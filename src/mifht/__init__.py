"""mifht: vector multi-interval finite Hilbert transform.

Evaluation, inversion and range testing of chi Theta H phi = psi systems of
finite Hilbert transforms on disjoint real intervals, plus the all-ones
interaction case handled by Fourier diagonalization.
"""

__version__ = "0.1.0"

from .chebyshev import PiecewiseFunction, cheb_eval, cheb_project
from .errors import (
    ConvergenceError,
    CoincidenceError,
    DegenerateDiagonalError,
    DomainError,
    EndpointError,
    MifhtError,
    NearSingularError,
    NonFiniteError,
    NonPositiveEigenvalueError,
    OverlapError,
    RangeError,
    RangeExceededError,
    RangeViolationError,
    SchemaError,
    SymmetryError,
    ZeroLambdaError,
)
from .intervals import (
    IntervalSystem,
    make_interval_system,
    multi_radical_sqrt,
    radical_eval,
)
from .quadrature import (
    QuadratureGrid,
    chebyshev1_grid,
    chebyshev2_grid,
    legendre_grid,
    pv_oracle,
)
from .single import RangeData, fht_forward, fht_invert, invert_with_kappa, range_scan
from .solver import (
    NystromSystem,
    SolveResult,
    ThetaMatrix,
    assemble_K,
    bilinear_form_J,
    compute_c,
    compute_nu,
    forward_map,
    injectivity_report,
    random_sqrt_vanishing,
    residual_range2,
    solve_phi,
)
from .gamma import (
    GammaSolution,
    build_gamma,
    compute_F,
    invert_via_resolvent,
    range_check_L1_variant,
    range_condition_J12,
    range_condition_N2,
)
from .uniform import (
    ChannelVector,
    SpectralData,
    TGrid,
    apply_T,
    apply_T_inverse,
    build_M,
    build_spectral_data,
    phi_inverse,
    uniform_forward,
    uniform_invert,
    uniform_invert_with_verdict,
    uniform_range_check,
)
from .problems import ProblemSpec, ResultBundle, parse_problem, run_command

__all__ = [name for name in dir() if not name.startswith("_")]
