import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.special

from mifht import (
    ConvergenceError,
    DegenerateDiagonalError,
    PiecewiseFunction,
    ZeroLambdaError,
    build_gamma,
    fht_forward,
    fht_invert,
    make_interval_system,
)
from mifht import solver
from mifht.gamma import GammaSolution, compute_F
from mifht.problems import parse_problem, run_command
from mifht.solver import (
    DEGENERATE,
    INVERTIBLE_DIAGONAL,
    SKETCH_TOL,
    SPD,
    SYMMETRIC_INVERTIBLE,
    UNIFORM,
    ThetaMatrix,
    assemble_K,
    bilinear_form_J,
    bilinear_form_J_many,
    clear_kernel_cache,
    compute_c,
    compute_nu,
    extreme_singular_values,
    forward_map,
    injectivity_report,
    random_sqrt_vanishing,
    residual_range2,
    solve_phi,
)
from mifht.intervals import radical_eval
from mifht.quadrature import chebyshev2_grid

from conftest import interior_points


# -- classification -----------------------------------------------------------


def test_classification_tags():
    assert ThetaMatrix([[1.0, 0.5], [0.5, 1.0]]).classification == SPD
    assert ThetaMatrix(np.ones((3, 3))).classification == UNIFORM
    assert ThetaMatrix([[0.0, 1.0], [1.0, 1.0]]).classification == DEGENERATE
    assert ThetaMatrix([[1.0, 3.0], [3.0, 1.0]]).classification == SYMMETRIC_INVERTIBLE
    assert ThetaMatrix([[1.0, 0.4], [0.1, 1.0]]).classification == INVERTIBLE_DIAGONAL


def test_split_exact():
    t = ThetaMatrix([[2.0, 0.5], [0.25, 3.0]])
    np.testing.assert_array_equal(t.diag + t.off, t.entries)
    assert np.all(np.diag(t.off) == 0)


def test_theta_matrix_is_read_only():
    t = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    for arr in (t.entries, t.diag, t.off):
        with pytest.raises(ValueError):
            arr[0, 1] = 3.0
    assert t.classification == SPD and t.off[0, 1] == 0.5


def test_theta_matrix_copies_the_callers_array():
    entries = np.array([[1.0, 0.5], [0.5, 1.0]])
    t = ThetaMatrix(entries)
    entries[0, 1] = 3.0
    assert entries.flags.writeable
    np.testing.assert_array_equal(t.entries, [[1.0, 0.5], [0.5, 1.0]])
    assert t.classification == SPD and t.off[0, 1] == 0.5


# -- forward map --------------------------------------------------------------


def test_forward_reduces_to_single_interval(sys1):
    th = ThetaMatrix([[1.0]])
    f = random_sqrt_vanishing(sys1, modes=12, seed=1)
    psi = forward_map(th, f)
    x = np.linspace(-0.9, 0.9, 17)
    np.testing.assert_allclose(psi(x), np.real(fht_forward(f, x)), atol=1e-12)


def test_forward_zero(sys2, theta2):
    z = PiecewiseFunction.zeros(sys2, 8, weighted=True)
    psi = forward_map(theta2, z)
    assert psi.norm2() == pytest.approx(0.0, abs=1e-15)


def test_forward_block_diagonal_decouples(sys2):
    th = ThetaMatrix([[2.0, 0.0], [0.0, 3.0]])
    f = random_sqrt_vanishing(sys2, modes=10, seed=2)
    psi = forward_map(th, f)
    for j, scale in enumerate((2.0, 3.0)):
        x = sys2.from_unit(j, np.linspace(-0.9, 0.9, 9))
        np.testing.assert_allclose(psi(x), scale * np.real(fht_forward(f, x, j=j)),
                                   atol=1e-12)


# -- c and nu -----------------------------------------------------------------


def test_compute_c_constant_vector(sys2):
    psi = PiecewiseFunction.from_callable(
        sys2, [lambda x: np.full_like(x, 2.0), lambda x: np.full_like(x, -1.0)],
        N=6)
    np.testing.assert_allclose(compute_c(psi), [2.0, -1.0], atol=1e-14)


def test_compute_c_odd_and_midpoint():
    sysa = make_interval_system([(-1.0, 1.0), (2.0, 4.0)])
    psi = PiecewiseFunction.from_callable(sysa, lambda x: x, N=6)
    np.testing.assert_allclose(compute_c(psi), [0.0, 3.0], atol=1e-13)


def test_compute_nu_zero_when_psi_is_constant(sys2, theta2):
    psi = PiecewiseFunction.from_callable(
        sys2, lambda x: np.full_like(x, 1.5), N=6)
    nu = compute_nu(psi, theta=theta2)
    assert nu.norm2() == pytest.approx(0.0, abs=1e-14)


def test_compute_nu_scaled_inversion(sys1):
    th = ThetaMatrix([[2.0]])
    psi = PiecewiseFunction.from_callable(sys1, lambda x: x, N=8)
    nu = compute_nu(psi, theta=th)
    x = np.linspace(-0.9, 0.9, 11)
    np.testing.assert_allclose(nu(x), -np.sqrt(1 - x * x) / 2.0, atol=1e-13)


def test_compute_nu_round_trip_identity(sys2, theta2):
    f = random_sqrt_vanishing(sys2, modes=12, seed=3)
    # psi_j - c_j = theta_jj H_j f_j  per component
    vals = []
    for j in range(2):
        x = sys2.from_unit(j, np.cos(np.pi * (np.arange(24) + 0.5) / 24)[::-1])
        vals.append(theta2[j, j] * np.real(fht_forward(f, x, j=j)))
    psi = PiecewiseFunction.from_smooth_values(sys2, vals, weighted=False)
    nu = compute_nu(psi, theta=theta2)
    x = interior_points(sys2, 13)
    np.testing.assert_allclose(nu(x), f(x), atol=1e-12)


def test_compute_nu_degenerate_diagonal(sys2):
    psi = PiecewiseFunction.zeros(sys2, 6)
    with pytest.raises(DegenerateDiagonalError):
        compute_nu(psi, theta=ThetaMatrix([[0.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("n", [1, 3])
def test_compute_nu_rejects_a_theta_of_the_wrong_size(sys2, theta2, n):
    # too small used to end in an IndexError from theta[j, j]
    psi = forward_map(theta2, random_sqrt_vanishing(sys2, modes=8))
    theta = ThetaMatrix(np.eye(n) + 0.1 * (1 - np.eye(n)))
    for call in (lambda: compute_nu(psi, theta=theta),
                 lambda: solve_phi(theta, psi, size=8)):
        with pytest.raises(ValueError, match="theta size does not match"):
            call()


# -- the Nystrom system --------------------------------------------------------


def test_assemble_identity_for_diagonal_theta(sys2):
    ns = assemble_K(sys2, ThetaMatrix([[5.0, 0.0], [0.0, 2.0]]), size=16)
    np.testing.assert_array_equal(ns.matrix, np.eye(ns.size))


def test_assemble_zero_diagonal_blocks_and_real(sys2, theta2):
    ns = assemble_K(sys2, theta2, size=12)
    assert ns.matrix.dtype == np.float64
    for j in range(2):
        blk = ns.kernel[ns.offsets[j]: ns.offsets[j + 1],
                        ns.offsets[j]: ns.offsets[j + 1]]
        np.testing.assert_array_equal(blk, 0.0)
    off = ns.kernel[ns.offsets[0]: ns.offsets[1], ns.offsets[1]: ns.offsets[2]]
    assert np.all(np.isfinite(off)) and np.any(off != 0)


def test_assemble_large_lambda_is_identity(sys2, theta2):
    ns = assemble_K(sys2, theta2, size=12, lam=1e12)
    np.testing.assert_allclose(ns.matrix, np.eye(ns.size), atol=1e-11)


@pytest.mark.parametrize("lam", [1.0, 0.7 + 0.4j])
def test_assembled_system_holds_one_n_by_n_array(sys3, theta3, lam):
    ns = assemble_K(sys3, theta3, size=20, lam=lam)
    square = [name for name, value in vars(ns).items()
              if isinstance(value, np.ndarray) and value.shape == (ns.size, ns.size)]
    assert square == ["kernel"]
    assert ns.kernel.dtype == np.float64


@pytest.mark.parametrize("lam", [1.0, -2.0, 0.7 + 0.4j])
def test_assembled_matrix_is_identity_minus_kernel_over_lambda(sys3, theta3, lam):
    ns = assemble_K(sys3, theta3, size=20, lam=lam)
    np.testing.assert_array_equal(ns.matrix, np.eye(ns.size) - ns.kernel / lam)
    assert np.iscomplexobj(ns.matrix) == isinstance(lam, complex)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_apply_smooth_block_matches_per_column_sums(request, n):
    # K v at off-grid targets of each interval, from the kernel's definition
    # theta_jk sw v / (pi theta_jj R_j(x) (x - z)) one column at a time
    sys = request.getfixturevalue(f"sys{n}")
    theta = request.getfixturevalue(f"theta{n}")
    ns = assemble_K(sys, theta, size=24, lam=1.0)
    rng = np.random.default_rng(n)
    block = rng.standard_normal((ns.size, 3)) + 1j * rng.standard_normal((ns.size, 3))
    block[:, 0] = block[:, 0].real
    for j in range(n):
        z = sys.from_unit(j, np.linspace(-0.97, 0.97, 11))
        got = ns.kernel_apply_smooth(block, j, z)
        assert got.shape == (z.size, 3)
        for r in range(3):
            ref = np.zeros(z.size, dtype=complex)
            for k in range(n):
                if k == j:
                    continue
                x = ns.grid.nodes[k]
                v = ns.split(block[:, r])[k] * ns.grid.sqrt_weights[k]
                rj = radical_eval(sys, j, x).real
                for i, zi in enumerate(z):
                    ref[i] += np.sum(theta[j, k] * v / (np.pi * theta[j, j] * rj * (x - zi)))
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got[:, r] - ref)) <= 1e-14 * scale
            column = ns.kernel_apply_smooth(block[:, r], j, z)
            assert np.max(np.abs(column - ref)) <= 1e-14 * scale
        real = ns.kernel_apply_smooth(block[:, 0].real, j, z)
        assert np.isrealobj(real)
        assert np.max(np.abs(real - got[:, 0])) <= 1e-14 * np.max(np.abs(got[:, 0]))


def test_assemble_errors(sys2):
    with pytest.raises(ZeroLambdaError):
        assemble_K(sys2, ThetaMatrix([[1.0, 0.2], [0.2, 1.0]]), lam=0.0, size=8)
    with pytest.raises(DegenerateDiagonalError):
        assemble_K(sys2, ThetaMatrix([[0.0, 1.0], [1.0, 1.0]]), size=8)


# -- the operator cache -------------------------------------------------------


def test_one_operator_at_two_lambdas_shares_one_kernel(sys3, theta3):
    a = assemble_K(sys3, theta3, size=20, lam=1.0)
    b = assemble_K(sys3, ThetaMatrix(theta3.entries.copy()), size=[20] * 3,
                   lam=0.7 + 0.4j)
    assert b.kernel is a.kernel and b.g_nodes is a.g_nodes and b.grid is a.grid
    assert (a.lam, b.lam) == (1.0, 0.7 + 0.4j)
    np.testing.assert_array_equal(b.matrix, np.eye(b.size) - b.kernel / b.lam)


def test_another_theta_size_or_geometry_gets_a_fresh_kernel(sys3, theta3):
    ulp = theta3.entries.copy()
    ulp[0, 1] = np.nextafter(ulp[0, 1], 1.0)
    moved = make_interval_system(sys3.endpoints + [[0.0, 0.0], [0.0, 0.0], [0.0, 0.5]])
    for sys, theta, size in ((sys3, ThetaMatrix(ulp), 20), (sys3, theta3, 21),
                             (sys3, theta3, [20, 20, 21]), (moved, theta3, 20)):
        base = assemble_K(sys3, theta3, size=20)
        other = assemble_K(sys, theta, size=size)
        assert other.kernel is not base.kernel
        clear_kernel_cache()
        np.testing.assert_array_equal(other.kernel, assemble_K(sys, theta, size=size).kernel)


def test_a_second_operator_evicts_the_first(monkeypatch, sys2, sys3, theta2, theta3):
    first = weakref.ref(assemble_K(sys3, theta3, size=20).kernel)
    assert first() is not None
    build, alive = solver._assemble, []
    monkeypatch.setattr(solver, "_assemble",
                        lambda *args: alive.append(first() is not None) or build(*args))
    second = assemble_K(sys2, theta2, size=20)
    assert alive == [False] and first() is None
    assert assemble_K(sys2, theta2, size=20).kernel is second.kernel
    assert alive == [False]


def test_the_shared_kernel_is_read_only(sys3, theta3):
    ns = assemble_K(sys3, theta3, size=20)
    with pytest.raises(ValueError, match="read-only"):
        ns.kernel[0, 1] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ns.kernel *= 2.0


def test_a_repeat_of_operator_and_lambda_returns_the_kept_gamma(monkeypatch, sys3, theta3):
    solves = []
    monkeypatch.setattr("mifht.gamma.compute_F",
                        lambda ns: solves.append(ns.lam) or compute_F(ns))
    first = build_gamma(sys3, theta3, lam=1.0, size=20)
    # an equal theta, per-interval sizes and a complex 1 name the same Gamma
    again = build_gamma(sys3, ThetaMatrix(theta3.entries.copy()), lam=1.0 + 0.0j,
                        size=[20] * 3)
    assert again is first and solves == [1.0]
    # built directly, a Gamma is never kept or shared
    assert GammaSolution(assemble_K(sys3, theta3, size=20)) is not first
    assert build_gamma(sys3, theta3, size=20) is first and solves == [1.0, 1.0]


def test_another_lambda_replaces_the_kept_gamma(monkeypatch, sys3, theta3):
    gc.disable()
    try:
        first = weakref.ref(build_gamma(sys3, theta3, lam=1.0, size=20))
        alive = []
        monkeypatch.setattr("mifht.gamma.compute_F",
                            lambda ns: alive.append(first() is not None) or compute_F(ns))
        other = build_gamma(sys3, theta3, lam=0.7 + 0.4j, size=20)
        # the old Gamma is gone before the new one is solved for, so a
        # lambda sweep never holds two
        assert alive == [False] and first() is None
        assert build_gamma(sys3, theta3, lam=0.7 + 0.4j, size=20) is other
        assert build_gamma(sys3, theta3, lam=1.0, size=20) is not other
    finally:
        gc.enable()


def test_a_new_operator_frees_the_old_kernel_and_its_gamma(
        monkeypatch, sys2, sys3, theta2, theta3):
    gc.disable()
    try:
        gam = build_gamma(sys3, theta3, size=20)
        gam._at_nodes  # the node cache is kept with it
        refs = [weakref.ref(gam), weakref.ref(gam.nystrom.kernel)]
        del gam
        assert all(r() is not None for r in refs)
        build, alive = solver._assemble, []
        monkeypatch.setattr(solver, "_assemble", lambda *args: alive.append(
            [r() is not None for r in refs]) or build(*args))
        build_gamma(sys2, theta2, size=20)
        assert alive == [[False, False]]
    finally:
        gc.enable()


def test_the_kept_gamma_is_read_only(sys3, theta3):
    gam = build_gamma(sys3, theta3, size=20)
    arrays = (*gam.density, gam.F_smooth_nodes, *gam._at_nodes)
    assert len(arrays) == 3 + 1 + 3
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    with pytest.raises(TypeError):
        gam.density[0] = gam.density[1]


def test_the_memoized_sketch_returns_the_cold_values_at_any_lambda():
    # the operator is sketched once, at the lambda-free target
    # SKETCH_TOL max(1, ||K||_F), and only W = Q^T K / lambda, B and its SVD
    # are formed per call, so a warm operator at any lambda, however far
    # from 1, gives the cold call's values bit for bit
    sys = make_interval_system([(-1.0, 0.0), (0.01, 1.0)])
    theta = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    lams = (1e5, 1.0, 1e5, 1e-3, 0.7 + 0.4j, -2.0, 1e12)
    warm = [extreme_singular_values(assemble_K(sys, theta, size=96, lam=lam))
            for lam in lams]
    for lam, got in zip(lams, warm):
        clear_kernel_cache()
        assert got == extreme_singular_values(assemble_K(sys, theta, size=96, lam=lam))


def test_each_operator_is_sketched_once(monkeypatch):
    # the sketch is made at the lambda-free target SKETCH_TOL max(1, ||K||_F),
    # so no lambda, however far from 1, asks for a second one
    sys = make_interval_system([(-1.0, 0.0), (0.01, 1.0)])
    theta = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    sketch, runs = solver._sketch, []
    monkeypatch.setattr(solver, "_sketch",
                        lambda *args: runs.append(args) or sketch(*args))
    ops = [assemble_K(sys, theta, size=96, lam=lam) for lam in (1e5, 1.0, 1e-3, 0.7 + 0.4j)]
    for ns in ops:
        extreme_singular_values(ns)
    solve_phi(theta, forward_map(theta, random_sqrt_vanishing(sys, modes=8)), size=96)
    build_gamma(sys, theta, lam=1.0, size=96)
    injectivity_report(theta, sys, size=96, n_samples=2)
    assert len(runs) == 1
    assert all(ns.basis is ops[0].basis and ns.rows is ops[0].rows for ns in ops)
    clear_kernel_cache()
    assert assemble_K(sys, theta, size=96).basis is not ops[0].basis
    assert len(runs) == 2


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


SPD3_INVERT = """
command = invert
intervals = (-3,-2) (-1,0) (1,3)
theta = [[1,0.5,0.5],[0.5,1,0.5],[0.5,0.5,1]]
rhs = forward-of random-sqrt 8
nystrom = 48
seed = 5
"""


def test_a_warm_cache_changes_no_output(sys3, theta3):
    psi = forward_map(theta3, random_sqrt_vanishing(sys3, modes=8, seed=5))
    points = np.array([0.5 + 0.5j, 4.0, -1.5])

    def direct():
        res = solve_phi(theta3, psi, size=48)
        return res.nystrom.kernel, [res.phi.coeffs, res.c, res.diagnostics]

    def gamma(lam):
        g = build_gamma(sys3, theta3, lam=lam, size=48)
        return g.nystrom.kernel, [g.density, g.f_residual, g.eval(points)]

    def report():
        return None, injectivity_report(theta3, sys3, size=48, n_samples=3)

    def invert():
        bundle = run_command(parse_problem(SPD3_INVERT))
        bundle.diagnostics.pop("elapsed_seconds")
        return None, [bundle.diagnostics, bundle.tables]

    # the first warm invert meets the Gamma of 0.7 + 0.4i and rebuilds it at
    # lambda = 1; the second reuses that Gamma and solves no F
    calls = (direct, lambda: gamma(1.0), lambda: gamma(0.7 + 0.4j), report,
             invert, invert)
    cold = []
    for call in calls:
        clear_kernel_cache()
        cold.append(call()[1])
    shared = assemble_K(sys3, theta3, size=48).kernel
    for call, want in zip(calls, cold):
        kernel, got = call()
        assert kernel is None or kernel is shared
        assert _same(got, want)


# -- solve_phi ----------------------------------------------------------------


def test_solve_round_trip_spd(sys2):
    th = ThetaMatrix([[2.0, 1.0], [1.0, 2.0]])
    phi0 = random_sqrt_vanishing(sys2, modes=20, seed=4)
    psi = forward_map(th, phi0)
    res = solve_phi(th, psi, size=64)
    x = interior_points(sys2, 40)
    rel = np.max(np.abs(res.phi(x) - phi0(x))) / np.max(np.abs(phi0(x)))
    assert rel <= 1e-6
    np.testing.assert_allclose(res.c, compute_c(psi), atol=1e-14)
    assert res.diagnostics["sigma_min"] > 1e-6
    assert np.max(np.abs(res.diagnostics["range2_residual"])) <= 1e-6


def test_solve_diagonal_theta_matches_single(sys2):
    th = ThetaMatrix([[2.0, 0.0], [0.0, 0.5]])
    psi = PiecewiseFunction.from_callable(sys2, lambda x: x, N=8)
    res = solve_phi(th, psi, size=24)
    c = compute_c(psi)
    for j in range(2):
        x = sys2.from_unit(j, np.linspace(-0.9, 0.9, 9))
        direct = fht_invert(psi, points=x, j=j, presubtract=c[j]) / th[j, j]
        np.testing.assert_allclose(res.phi(x), np.real(direct), atol=1e-12)


def test_solve_zero_rhs(sys2, theta2):
    psi = PiecewiseFunction.zeros(sys2, 8)
    res = solve_phi(theta2, psi, size=16)
    assert res.phi.norm2() == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(res.c, 0.0, atol=1e-15)


def test_solve_consistency_chain(sys2, theta2):
    # forward_map(theta, phi) - psi is a constant vector, vanishing on
    # round-trip instances
    phi0 = random_sqrt_vanishing(sys2, modes=16, seed=5)
    psi = forward_map(theta2, phi0)
    res = solve_phi(theta2, psi, size=64)
    diff = forward_map(theta2, res.phi) - psi
    for j in range(2):
        x = sys2.from_unit(j, np.linspace(-0.95, 0.95, 15))
        vals = diff(x)
        assert np.max(np.abs(vals - vals.mean())) <= 1e-6
        assert abs(vals.mean()) <= 1e-6


def test_grid_convergence_until_floor(sys2, theta2):
    phi0 = random_sqrt_vanishing(sys2, modes=12, seed=6)
    psi = forward_map(theta2, phi0)
    x = interior_points(sys2, 25)
    errs = []
    for size in (6, 12, 24, 48):
        res = solve_phi(theta2, psi, size=size)
        errs.append(np.max(np.abs(res.phi(x) - phi0(x))))
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 <= e1 / 10 or e2 <= 1e-10


# -- extreme singular values of Id - K/lambda ----------------------------------


def _dense_sigmas(ns):
    s = np.linalg.svd(ns.matrix, compute_uv=False)
    return s[-1], s[0]


def _theta_off(n, off):
    t = np.full((n, n), off)
    np.fill_diagonal(t, 1.0)
    return ThetaMatrix(t)


N3 = [(-3.0, -2.0), (-1.0, 0.0), (1.0, 3.0)]
SIGMA_CASES = {  # intervals, off-diagonal theta, nystrom size, lambda
    "n3-M256": (N3, 0.5, 256, 1.0),
    "n4-M256": ([(-4.0, -3.0), (-2.5, -1.5), (-1.0, 0.5), (1.0, 3.0)], 0.3, 256, 1.0),
    "gap-0.01": ([(-1.0, 0.0), (0.01, 1.0)], 0.5, 256, 1.0),
    "complex-lambda": (N3, 0.5, 128, 0.7 + 0.4j),
    "negative-lambda": (N3, 0.5, 128, -2.0),
    "whole-space": ([(-1.0, 0.0), (0.01, 1.01)], 0.5, 4, 1.0),
}


@pytest.mark.parametrize("case", SIGMA_CASES)
def test_extreme_singular_values_match_dense_svd(case):
    intervals, off, size, lam = SIGMA_CASES[case]
    ns = assemble_K(make_interval_system(intervals),
                    _theta_off(len(intervals), off), size=size, lam=lam)
    sigma_min, sigma_max, err = extreme_singular_values(ns)
    dense_min, dense_max = _dense_sigmas(ns)
    assert abs(sigma_min - dense_min) <= 1e-12
    assert abs(sigma_max - dense_max) <= 1e-12
    assert err <= SKETCH_TOL * max(1.0, np.linalg.norm(ns.kernel / ns.lam))
    assert extreme_singular_values(ns) == (sigma_min, sigma_max, err)
    if case == "whole-space":
        # each exact 4 x 4 block row keeps its full rank: B = I - W Q
        assert ns.sketch["rank"] == ns.size


# at nystrom 64 the first two gaps take the pure expansion, the last two also
# the branches with exact columns and with exact block rows
SKETCH_GAPS = (1.0, 0.2, 0.01, 1e-3)
SKETCH_LENGTHS = (1.0, 0.5, 2.0, 0.8)
SKETCH_THETAS = {
    "spd": lambda n: _theta_off(n, 0.3),
    "non-symmetric": lambda n: ThetaMatrix(np.eye(n) + 0.4 * np.triu(np.ones((n, n)), 1)
                                           - 0.25 * np.tril(np.ones((n, n)), -1)),
    "diagonal": lambda n: ThetaMatrix(np.diag([1.0, -2.0, 0.5, 3.0][:n])),
}


def _sketch_case(gap, n, kind):
    ends, left = [], -1.0
    for length in SKETCH_LENGTHS[:n]:
        ends.append((left, left + length))
        left += length + gap
    return make_interval_system(ends), SKETCH_THETAS[kind](n)


@pytest.mark.parametrize("lam", [1.0, -0.7 + 0.4j])
@pytest.mark.parametrize("kind", sorted(SKETCH_THETAS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gap", SKETCH_GAPS)
def test_the_sketch_bounds_its_error_and_gives_the_dense_sigmas(gap, n, kind, lam):
    sys, theta = _sketch_case(gap, n, kind)
    ns = assemble_K(sys, theta, size=64, lam=lam)
    K, Q, W = ns.kernel, ns.basis, ns.rows
    assert np.linalg.norm(K - Q @ W) <= ns.sketch_err
    assert ns.sketch_err <= SKETCH_TOL * max(1.0, np.linalg.norm(K))
    assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1])), initial=0.0) <= 1e-14
    assert (ns.sketch["rank"] == 0) == (n == 1 or kind == "diagonal")
    sigma_min, sigma_max, _ = extreme_singular_values(ns)
    dense_min, dense_max = _dense_sigmas(ns)
    assert abs(sigma_min - dense_min) <= 1e-12
    assert abs(sigma_max - dense_max) <= 1e-12
    clear_kernel_cache()
    again = assemble_K(sys, theta, size=64, lam=lam)
    assert np.array_equal(again.basis, Q) and np.array_equal(again.rows, W)
    assert again.sketch_err == ns.sketch_err


def test_extreme_singular_values_of_zero_kernel_are_one(sys3):
    ns = assemble_K(sys3, ThetaMatrix(np.diag([1.0, -2.0, 0.5])), size=40)
    assert extreme_singular_values(ns) == (1.0, 1.0, 0.0)


def _critical_coupling(delta):
    """Two unit intervals at gap 0.2 with theta_12 = theta_21 = (1 - delta) / mu_1.

    K is block off-diagonal, so its spectrum is +-mu_i, the eigenvalues of the
    all-ones K of the same grid: Id - K is singular at delta = 0, and
    sigma_max / sigma_min is near 2.7 / delta.
    """
    sys = make_interval_system([(0.0, 1.0), (1.2, 2.2)])
    mu = np.max(np.linalg.eigvals(assemble_K(sys, np.ones((2, 2)), size=96).kernel).real)
    t = (1.0 - delta) / mu
    return assemble_K(sys, ThetaMatrix([[1.0, t], [t, 1.0]]), size=96)


@pytest.mark.parametrize("delta, factor", [(1e-3, "float32"), (1e-6, "float64"),
                                           (1e-9, "float64")])
def test_refined_solve_near_the_critical_coupling_matches_the_dense_solve(delta, factor):
    ns = _critical_coupling(delta)
    b = np.random.default_rng(5).standard_normal(ns.size)
    x, report = solver._checked_solve(ns, b)
    kappa = report["sigma_max"] / report["sigma_min"]
    assert report["solve"]["factor"] == factor
    ref = np.linalg.solve(ns.matrix, b)
    assert np.max(np.abs(x - ref)) <= kappa * 1e-15 * np.max(np.abs(ref))


def test_a_refinement_that_cannot_converge_raises(monkeypatch):
    # a single-precision factor at kappa near 2.7e9 cannot contract the error
    ns = _critical_coupling(1e-9)
    monkeypatch.setattr(solver, "SINGLE_KAPPA", np.inf)
    with pytest.raises(ConvergenceError, match="not converged"):
        solver._checked_solve(ns, np.random.default_rng(5).standard_normal(ns.size))


def test_reported_sigmas_match_dense_svd(sys3, theta3):
    psi = forward_map(theta3, random_sqrt_vanishing(sys3, modes=8, seed=3))
    res = solve_phi(theta3, psi, size=64)
    dense_min, dense_max = _dense_sigmas(res.nystrom)
    assert abs(res.diagnostics["sigma_min"] - dense_min) <= 1e-12
    assert abs(res.diagnostics["sigma_max"] - dense_max) <= 1e-12
    rep = injectivity_report(theta3, sys3, size=64, n_samples=2)
    assert abs(rep["sigma_min"] - dense_min) <= 1e-12
    assert abs(rep["sigma_max"] - dense_max) <= 1e-12


def test_solve_warns_for_non_spd(sys2):
    th = ThetaMatrix([[1.0, 0.4], [0.1, 1.0]])
    phi0 = random_sqrt_vanishing(sys2, modes=8, seed=7)
    psi = forward_map(th, phi0)
    # reported in the diagnostics, not warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_phi(th, psi, size=32)
    assert "numerically" in res.diagnostics["warning"]


def test_solve_does_not_warn_when_theta_is_diagonal(sys2):
    th = ThetaMatrix([[1.0, 0.0], [0.0, -1.0]])
    psi = forward_map(th, random_sqrt_vanishing(sys2, modes=8, seed=7))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        res = solve_phi(th, psi, size=32)
    assert res.diagnostics["warning"] is None


def test_solve_does_not_warn_for_all_ones_theta(sys3):
    # case (b): Id - K is injective by theorem, not a numerical finding
    th = ThetaMatrix(np.ones((3, 3)))
    assert th.classification == "uniform"
    psi = forward_map(th, random_sqrt_vanishing(sys3, modes=8, seed=7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_phi(th, psi, size=32)
    assert res.diagnostics["warning"] is None


# -- second range condition residual -------------------------------------------


def test_residual_range2_single_interval(sys1):
    th = ThetaMatrix([[1.0]])
    phi = random_sqrt_vanishing(sys1, modes=8, seed=8)
    r = residual_range2(th, phi, np.array([0.7]))
    np.testing.assert_allclose(r, [-0.7], atol=1e-14)


def test_residual_range2_zero_case(sys2, theta2):
    phi = PiecewiseFunction.zeros(sys2, 6, weighted=True)
    r = residual_range2(theta2, phi, np.zeros(2))
    np.testing.assert_allclose(r, 0.0, atol=1e-15)


def test_residual_range2_on_solution(sys2, theta2):
    phi0 = random_sqrt_vanishing(sys2, modes=16, seed=9)
    psi = forward_map(theta2, phi0)
    res = solve_phi(theta2, psi, size=64)
    r = residual_range2(theta2, res.phi, res.c)
    assert np.max(np.abs(r)) <= 1e-6


def test_residual_range2_resolves_a_small_gap():
    # 1/R_m is singular 0.01 away from I_k; compare with 4x the derived nodes
    # (the 0.5 below is theta_mk)
    sys = make_interval_system([(-2.0, -0.005), (0.005, 2.0)])
    th = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    phi = random_sqrt_vanishing(sys, modes=24, seed=3)
    ref = np.zeros(2)
    for m, k in ((0, 1), (1, 0)):
        grid = chebyshev2_grid(sys, 4 * solver._cross_nodes(sys, k, m, 24))
        x = grid.nodes[k]
        ref[m] = 0.5 / np.pi * np.sum(grid.sqrt_weights[k] * phi.piece_smooth(k, x)
                                      / radical_eval(sys, m, x).real)
    np.testing.assert_allclose(residual_range2(th, phi, np.zeros(2)), ref,
                               rtol=1e-13)


# -- bilinear form and injectivity ----------------------------------------------


def test_J_zero_function(sys2, theta2):
    z = PiecewiseFunction.zeros(sys2, 6, weighted=True)
    assert bilinear_form_J(theta2, z) == 0.0
    with pytest.raises(ValueError):  # J of a non-vanishing function diverges
        bilinear_form_J(theta2, PiecewiseFunction.zeros(sys2, 6))


def test_J_symmetry(sys2, theta2):
    f = random_sqrt_vanishing(sys2, modes=10, seed=10)
    g = random_sqrt_vanishing(sys2, modes=10, seed=11)
    jfg = bilinear_form_J(theta2, f, g)
    jgf = bilinear_form_J(theta2, g, f)
    assert abs(jfg - jgf) <= 1e-12


def test_J_positive_definite(sys2, theta2):
    fs = [random_sqrt_vanishing(sys2, modes=12, seed=s) for s in range(12, 22)]
    vals = bilinear_form_J_many(theta2, fs)
    assert np.all(vals > 0)
    np.testing.assert_allclose(vals, [bilinear_form_J(theta2, f) for f in fs],
                               rtol=1e-14)


def test_J_dominates_identity_form(sys2):
    # J_theta(f, f) >= lambda_min(theta) J_I(f, f), pointwise in frequency
    th = ThetaMatrix([[2.0, 1.0], [1.0, 2.0]])
    lam_min = np.min(np.linalg.eigvalsh(th.entries))
    eye = ThetaMatrix(np.eye(2))
    for seed in (22, 23, 24):
        f = random_sqrt_vanishing(sys2, modes=10, seed=seed)
        assert bilinear_form_J(th, f) >= lam_min * bilinear_form_J(eye, f) - 1e-12


def _fourier_J(theta, f, g, xi_max, dxi=0.1):
    """Truncated Fourier form (1/2pi) sum theta_jk int |xi| f~_k conj(g~_j).

    Independent of the coefficient-space J: the transforms come from
    int_{-1}^{1} sqrt(1 - s^2) U_n(s) e^{i w s} ds = pi i^n (n+1) J_{n+1}(w)/w,
    and the xi-integral is a midpoint rule on (-xi_max, xi_max), whose
    truncation leaves an error of about 1/xi_max.
    """
    half = (np.arange(int(round(xi_max / dxi))) + 0.5) * dxi
    xi = np.concatenate([-half[::-1], half])

    def ft(pf, j):
        h, m = pf.sys.half[j], pf.sys.mid[j]
        n = np.arange(pf.coeffs[j].shape[0])[:, None]
        w = h * xi
        basis = np.pi * 1j ** n * (n + 1) * scipy.special.jv(n + 1, w) / w
        return h * h * np.exp(1j * m * xi) * (pf.coeffs[j] @ basis)

    fs = [ft(f, j) for j in range(f.sys.n)]
    gs = [ft(g, j) for j in range(g.sys.n)]
    acc = sum(theta[j, k] * np.sum(np.abs(xi) * fs[k] * np.conj(gs[j]))
              for j in range(f.sys.n) for k in range(f.sys.n))
    return float(np.real(acc)) * dxi / (2.0 * np.pi)


def test_J_matches_richardson_fourier_oracle():
    # close intervals and strong coupling: the cross terms carry ~1% of J
    sys = make_interval_system([(-1.5, -0.1), (0.1, 1.4)])
    th = ThetaMatrix([[1.0, 0.9], [0.9, 1.0]])
    f = random_sqrt_vanishing(sys, modes=16, seed=1)
    g = random_sqrt_vanishing(sys, modes=12, seed=2)
    oracle = 2.0 * _fourier_J(th, f, g, 400.0) - _fourier_J(th, f, g, 200.0)
    assert bilinear_form_J(th, f, g) == pytest.approx(oracle, rel=3e-4)


def test_J_cross_nodes_resolve_a_small_gap(monkeypatch):
    sys = make_interval_system([(-2.0, -0.005), (0.005, 2.0)])
    th = ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])
    f = random_sqrt_vanishing(sys, modes=24, seed=3)
    g = random_sqrt_vanishing(sys, modes=24, seed=4)
    derived = bilinear_form_J(th, f, g)
    nodes = solver._cross_nodes
    monkeypatch.setattr(solver, "_cross_nodes", lambda *a: 4 * nodes(*a))
    assert derived == pytest.approx(bilinear_form_J(th, f, g), rel=1e-13)


def test_injectivity_report_diagonal(sys2):
    rep = injectivity_report(ThetaMatrix(np.eye(2)), sys2, size=24, n_samples=3)
    assert rep["sigma_min"] == pytest.approx(1.0)
    assert rep["caveat"] is None


def test_injectivity_report_spd(sys2):
    th = ThetaMatrix([[2.0, 1.0], [1.0, 2.0]])
    rep = injectivity_report(th, sys2, size=32, n_samples=5)
    assert rep["sigma_min"] > 0
    assert rep["j_over_norm_min"] > 0
    assert rep["spd"] is True


def test_injectivity_report_uniform_flags_caveat(sys2):
    rep = injectivity_report(ThetaMatrix(np.ones((2, 2))), sys2, size=24,
                             n_samples=3)
    assert rep["caveat"] is not None
    assert rep["sigma_min"] > 0


def test_solve_complex_data(sys2, theta2):
    fr = random_sqrt_vanishing(sys2, modes=10, seed=71)
    fi = random_sqrt_vanishing(sys2, modes=10, seed=72)
    phi0 = PiecewiseFunction(sys2, [a + 1j * b for a, b in
                                    zip(fr.coeffs, fi.coeffs)],
                             weighted=True, field="complex")
    psi = forward_map(theta2, phi0)
    assert psi.field == "complex"
    res = solve_phi(theta2, psi, size=64)
    x = interior_points(sys2, 15)
    assert np.max(np.abs(res.phi(x) - phi0(x))) <= 1e-10


def test_theta_size_must_match_the_interval_system(sys2, theta2):
    theta3 = ThetaMatrix(np.eye(3) + 0.1)
    psi = forward_map(theta2, random_sqrt_vanishing(sys2, modes=8))
    for call in (lambda: assemble_K(sys2, theta3, size=8),
                 lambda: solve_phi(theta3, psi, size=8),
                 lambda: build_gamma(sys2, theta3, size=8),
                 lambda: injectivity_report(theta3, sys2, size=8)):
        with pytest.raises(ValueError, match="theta size does not match"):
            call()
