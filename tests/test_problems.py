import json
import tracemalloc
import warnings

import numpy as np
import pytest

import mifht.gamma
import mifht.problems
import mifht.uniform
from mifht import chebyshev as cheb
from mifht import (
    DegenerateDiagonalError,
    NonFiniteError,
    RangeViolationError,
    SchemaError,
    SymmetryError,
    ThetaMatrix,
)
from mifht.chebyshev import (
    PiecewiseFunction,
    cheb2_nodes,
    clenshaw_U,
    fht_weighted,
)
from mifht.cli import main as cli_main
from mifht.gamma import build_gamma
from mifht.intervals import radical_eval, unit_radical
from mifht.problems import (
    ProblemSpec,
    ResultBundle,
    build_rhs,
    parse_problem,
    read_table,
    run_command,
    write_bundle,
)
from mifht.quadrature import chebyshev2_grid
from mifht.solver import (
    SKETCH_TOL,
    _cross_modes,
    _cross_nodes,
    assemble_K,
    clear_kernel_cache,
    compute_c,
    compute_nu,
    random_sqrt_vanishing,
    solve_phi,
)

MINIMAL = """
command = invert
intervals = (-1,1)
theta = identity
rhs = linear 0 1
"""

SPD2 = """
command = invert
intervals = (-2,-1) (1,2)
theta = [[1,0.5],[0.5,1]]
rhs = forward-of random-sqrt 10
modes = 64
nystrom = 48
seed = 7
"""


def test_parse_minimal():
    spec = parse_problem(MINIMAL)
    assert spec.command == "invert"
    assert spec.intervals == [(-1.0, 1.0)]
    # a 1x1 identity is the all-ones matrix, so it classifies as uniform
    assert spec.theta_matrix().classification == "uniform"


def test_parse_uniform_tag():
    spec = parse_problem("command = forward\nintervals = (-2,-1) (1,2)\n"
                         "theta = uniform\nrhs = const 1\n")
    assert spec.theta_matrix().classification == "uniform"


def test_parse_degenerate_theta_defers_error():
    # parses fine; the degenerate diagonal is rejected at run time
    spec = parse_problem("command = invert\nintervals = (-2,-1) (1,2)\n"
                         "theta = [[0,1],[1,1]]\nrhs = const 1\n")
    with pytest.raises(DegenerateDiagonalError):
        run_command(spec)


def test_parse_errors_carry_context():
    with pytest.raises(SchemaError, match="line 2"):
        parse_problem("command = invert\nnonsense line\nintervals = (-1,1)\n")
    with pytest.raises(SchemaError, match="unknown command"):
        parse_problem("command = dance\nintervals = (-1,1)\n")
    with pytest.raises(SchemaError, match="missing required"):
        parse_problem("command = invert\n")
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_problem(MINIMAL + "bogus = 3\n")
    # keys are case-insensitive, so this is one key given twice
    with pytest.raises(SchemaError, match="line 3: key 'nystrom' is already given on line 2"):
        parse_problem("command = invert\nnystrom = 8\nNystrom = 9\nintervals = (-1,1)\n")
    with pytest.raises(SchemaError, match="theta shape"):
        parse_problem("command = invert\nintervals = (-1,1)\n"
                      "theta = [[1,0],[0,1]]\nrhs = const 1\n").theta_matrix()


def test_presets(sys2, theta2):
    spec = parse_problem(SPD2)
    sys = spec.system()
    th = spec.theta_matrix()
    for rhs, weighted in ((["const", "2"], False), (["linear", "0", "1"], False),
                          (["cheb-sqrt", "1"], True),
                          (["gaussian-bump", "0", "0.5", "2"], False),
                          (["random-sqrt", "8"], True)):
        spec.rhs = rhs
        pf = build_rhs(spec, sys, th)
        assert pf.weighted is weighted
    spec.rhs = ["cheb-sqrt", "0"]
    pf = build_rhs(spec, sys, th)
    x = np.array([-1.5, 1.5])
    np.testing.assert_allclose(pf(x), np.sqrt(0.5 * 0.5), atol=1e-12)


def test_forward_command_delegates():
    spec = parse_problem("command = forward\nintervals = (-1,1)\n"
                         "theta = identity\nrhs = cheb-sqrt 0\nmodes = 32\n")
    bundle = run_command(spec)
    table = np.array(bundle.tables["psi"])
    # H[w U_0] = -x on the interval
    np.testing.assert_allclose(table[:, 2], -table[:, 1], atol=1e-10)


def test_invert_command_spd_two_paths():
    bundle = run_command(parse_problem(SPD2))
    d = bundle.diagnostics
    assert d["two_path_discrepancy"]["pass"]
    assert d["linear_residual"]["pass"]
    assert d["range2_residual"]["pass"]
    assert set(bundle.tables) == {"phi", "nu", "phi_resolvent"}


def test_range_check_command():
    text = SPD2.replace("command = invert", "command = range-check")
    bundle = run_command(parse_problem(text))
    assert bundle.diagnostics["in_range"] is True
    assert bundle.diagnostics["symmetric_defect"]["pass"]
    assert bundle.diagnostics["general_defect"]["pass"]


def test_selftest_command():
    spec = parse_problem("command = selftest\nintervals = (-1,1)\n"
                         "theta = identity\nrhs = const 0\n")
    bundle = run_command(spec)
    assert bundle.diagnostics["all_pass"] is True


def test_determinism():
    b1 = run_command(parse_problem(SPD2))
    b2 = run_command(parse_problem(SPD2))
    t1 = {k: v for k, v in b1.diagnostics.items() if k != "elapsed_seconds"}
    t2 = {k: v for k, v in b2.diagnostics.items() if k != "elapsed_seconds"}
    assert json.dumps(t1, default=str, sort_keys=True) == json.dumps(
        t2, default=str, sort_keys=True)
    assert np.array_equal(b1.tables["phi"], b2.tables["phi"])


def test_tables_are_float_arrays():
    bundle = run_command(parse_problem(SPD2))
    for table in bundle.tables.values():
        assert table.dtype == np.float64 and table.shape == (2 * 64, 4)
        np.testing.assert_array_equal(table[:, 0], np.repeat([0, 1], 64))


def test_write_bundle_prints_interval_index_as_integer(tmp_path):
    bundle = run_command(parse_problem(SPD2))
    lines = (write_bundle(bundle, tmp_path) / "phi.tsv").read_text().splitlines()
    assert lines[0] == "interval_index\tx\tre_value\tim_value"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["0"] * 64 + ["1"] * 64
    assert lines[1].split("\t")[1] == "-2"


UNIFORM_IN_RANGE = """
command = uniform-invert
intervals = (-2,-1) (1,2.5)
theta = uniform
rhs = forward-of random-sqrt 8
"""


def test_uniform_invert_transforms_each_function_once(monkeypatch):
    """T runs once on g and once on the recovered f; out of range, once on g."""
    calls = []
    apply_T = mifht.uniform.apply_T

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_T(*args, **kwargs)

    monkeypatch.setattr(mifht.uniform, "apply_T", counted)
    bundle = run_command(parse_problem(UNIFORM_IN_RANGE))
    assert bundle.diagnostics["range_pass"] is True
    assert bundle.diagnostics["roundtrip_residual"]["pass"] is True
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(RangeViolationError, match="low-frequency energy"):
        run_command(parse_problem(UNIFORM_IN_RANGE.replace(
            "forward-of random-sqrt 8", "gaussian-bump")))
    assert len(calls) == 1


def test_uniform_invert_reports_t_boundary_fraction():
    """The t-grid boundary energy is a diagnostic, and names itself on rejection."""
    text = UNIFORM_IN_RANGE.replace("(1,2.5)", "(1,2)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = run_command(parse_problem(text))
        assert bundle.diagnostics["resolution"]["t_boundary_fraction"] < 1e-8
        # a half-width of 2 cuts the channels off: in-range data is rejected,
        # and the message says why
        with pytest.raises(RangeViolationError,
                           match=r"t-grid boundary energy fraction [0-9.]+e-02"):
            run_command(parse_problem(text + "tmax = 2\n"))


def test_gamma_check_evaluates_gamma_in_batches(monkeypatch):
    """One eval each for the far field and det, two each for jump and no-jump."""
    calls = []
    evaluate = mifht.gamma.GammaSolution.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(mifht.gamma.GammaSolution, "eval", counted)
    bundle = run_command(parse_problem(
        "command = gamma-check\nintervals = (-2,-1) (1,2)\n"
        "theta = [[1,0.5],[0.5,1]]\nnystrom = 48\n"))
    for key in ("jump_residual", "det_drift", "nojump_gamma_f", "nojump_gt_gamma_inv"):
        assert bundle.diagnostics[key]["pass"] is True
    assert len(calls) <= 6


def test_range_check_evaluates_gamma_once_per_node_set(monkeypatch):
    """One eval at the Nystrom nodes, shared by N2, L1 and the resolvent,
    and one at the resolvent's targets."""
    calls = []
    evaluate = mifht.gamma.GammaSolution.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(mifht.gamma.GammaSolution, "eval", counted)
    bundle = run_command(parse_problem(SPD2.replace("command = invert",
                                                    "command = range-check")))
    assert bundle.diagnostics["in_range"] is True
    assert "predicted_c_symmetric" in bundle.diagnostics
    assert len(calls) <= 2 * 2


N3_SPD = """
command = invert
intervals = (-3,-2) (-1,0) (1,3)
theta = [[1,0.5,0.5],[0.5,1,0.5],[0.5,0.5,1]]
rhs = forward-of random-sqrt 16
nystrom = 48
seed = 1
"""


COINCIDENT_INVERTS = {"n2-128": (SPD2, 128), "n2-512": (SPD2, 512),
                      "n3-65": (N3_SPD, 65), "n3-74": (N3_SPD, 74)}


@pytest.mark.parametrize("case", COINCIDENT_INVERTS)
def test_spd_invert_with_resolvent_targets_on_nodes(case):
    # gcd(nystrom + 1, 33) > 1: nystrom + 33 resolvent targets would meet
    # Nystrom nodes, exactly or (n3 at 65 and 74) 1 ulp apart, so the target
    # count steps to the next size whose U nodes share none with the grid
    text, nystrom = COINCIDENT_INVERTS[case]
    assert np.gcd(nystrom + 1, 33) > 1
    bundle = run_command(parse_problem(text.replace("nystrom = 48",
                                                    f"nystrom = {nystrom}")))
    assert bundle.diagnostics["two_path_discrepancy"]["value"] <= 1e-10


def test_warm_spd_invert_peak_memory_stays_under_6_n_squared_bytes():
    # a repeat of the operator reuses K and its Gamma, so the op allocates
    # no complex buffer, only the single-precision real LU of the direct
    # solve (4 N^2 bytes); measured 5.07 N^2 at N = 384
    spec = parse_problem(N3_SPD.replace("nystrom = 48", "nystrom = 128"))
    run_command(spec)  # warm the quadrature caches, the operator and Gamma
    tracemalloc.start()
    try:
        run_command(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = 3 * 128
    assert peak <= 6 * N ** 2


def test_cold_spd_invert_peak_memory_stays_under_21_n_squared_bytes():
    # with no cached operator the invert assembles K once (8 N^2) and keeps
    # it, read-only, for both the Gamma solve and the direct solve, whose
    # LUs are single precision (complex64, 8 N^2, then float32, 4 N^2);
    # measured 19.62 N^2 at N = 384 against 26.7 N^2 for double LUs
    spec = parse_problem(N3_SPD.replace("nystrom = 48", "nystrom = 128"))
    run_command(spec)  # warm the quadrature caches
    clear_kernel_cache()
    tracemalloc.start()
    try:
        run_command(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = 3 * 128
    assert peak <= 21 * N ** 2


def test_resolution_diagnostics_report_the_chopped_series():
    bundle = run_command(parse_problem(N3_SPD.replace("nystrom = 48", "nystrom = 256")))
    res = json.loads(bundle.to_json())["diagnostics"]["resolution"]
    # n3 densities resolve near 25 of the 256 node values per interval
    assert all(16 < m < 64 for m in res["gamma_density_modes"])
    assert res["gamma_density_capped"] == [False] * 3
    assert all(m <= 64 for m in res["resolvent_modes"])
    # a gap of 0.01 is not resolved by 64 nodes per interval: kept whole
    near = ("intervals = (0,1) (1.01,2.01) (2.02,3.02)\nnystrom = 64\n"
            "theta = [[1,0.5,0.5],[0.5,1,0.5],[0.5,0.5,1]]\n")
    for command in ("range-check", "gamma-check"):
        spec = parse_problem(f"command = {command}\n" + near)
        res = run_command(spec).diagnostics["resolution"]
        assert res == {"gamma_density_modes": [64] * 3,
                       "gamma_density_capped": [True] * 3}


def test_invert_chops_phi_and_reports_its_modes(monkeypatch):
    spec = parse_problem(N3_SPD.replace("nystrom = 48", "nystrom = 256"))
    modes = run_command(spec).diagnostics["resolution"]["phi_modes"]
    # n3 phi resolves well within the nu modes plus the _cross_modes read-out
    assert len(modes) == 3 and all(m <= 64 for m in modes)
    sys, theta = spec.system(), spec.theta_matrix()
    psi = build_rhs(spec, sys, theta)
    chopped = solve_phi(theta, psi, size=256).phi
    assert [a.size for a in chopped.coeffs] == modes
    monkeypatch.setattr(cheb, "chop", lambda coeffs: np.shape(coeffs)[-1])
    res = solve_phi(theta, psi, size=256)
    full = res.phi
    assert [a.size for a in full.coeffs] == [
        max(a.size, _cross_modes(sys, j)) for j, a in enumerate(res.nu.coeffs)]
    x = np.concatenate([sys.from_unit(j, np.linspace(-0.99, 0.99, 41))
                        for j in range(sys.n)])
    ref = full(x)
    assert np.max(np.abs(chopped(x) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # every invert reports the kept lengths, SPD or not; a non-SPD theta is
    # reported in the diagnostics, not warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        other = run_command(parse_problem(N3_SPD.replace(
            "[[1,0.5,0.5],[0.5,1,0.5],[0.5,0.5,1]]",
            "[[1,0.5,0.1],[0.2,1,0.5],[0.5,0.3,1]]")))
    assert "not symmetric positive definite" in other.diagnostics["warning"]
    assert set(other.diagnostics["resolution"]) == {"phi_modes"}


def test_invert_phi_does_not_depend_on_the_modes_key():
    # modes sizes the sampled presets and forward's output; phi of an invert
    # is read out at _cross_modes from the geometry, so modes = 12 loses nothing
    text = N3_SPD.replace("[[1,0.5,0.5],[0.5,1,0.5],[0.5,0.5,1]]",
                          "[[1,0.5,0.1],[0.2,1,0.5],[0.5,0.3,1]]")
    phis = [np.array(run_command(parse_problem(text + f"modes = {m}\n")).tables["phi"])
            for m in (12, 128)]
    scale = np.max(np.abs(phis[1][:, 2]))
    assert np.max(np.abs(phis[0] - phis[1])) <= 1e-14 * scale


# -- per-point references for the command diagnostics ---------------------------
#
# Each reference evaluates Gamma one point at a time and every U series by
# the Clenshaw recurrence, in the form the formulas are written in.


def _ref_gtinv(gam, x):
    return gam.g_vector(x) @ np.linalg.inv(gam.eval(x, side=1))


def _ref_resolvent(gam, nu, nmodes):
    """hat R nu, one target at a time: -(1/pi) sum sw p (A(x) - A(z)) Gamma_m(z) / (z - x)."""
    sys, grid = gam.sys, gam.nystrom.grid
    Ax = [np.array([_ref_gtinv(gam, x) for x in xs]) for xs in grid.nodes]
    p = [nu.piece_smooth(k, xs) for k, xs in enumerate(grid.nodes)]
    smooth = []
    for m in range(sys.n):
        vals = []
        for z in sys.from_unit(m, cheb2_nodes(nmodes)):
            G = gam.eval(z, side=1)
            Az = gam.g_vector(z) @ np.linalg.inv(G)
            vals.append(-sum(
                np.sum(grid.sqrt_weights[k] * p[k] * ((Ax[k] - Az) @ G[:, m])
                       / (z - grid.nodes[k])) for k in range(sys.n)) / np.pi)
        smooth.append(np.real(vals))
    return PiecewiseFunction.from_smooth_values(sys, smooth, weighted=True)


def _ref_range2(theta, phi):
    """(1/pi) sum_{k != m} theta_mk int_{I_k} phi_k / R_m, per m."""
    sys = phi.sys
    out = np.zeros(sys.n)
    for m in range(sys.n):
        for k in range(sys.n):
            if k == m:
                continue
            grid = chebyshev2_grid(sys, _cross_nodes(sys, k, m, phi.coeffs[k].size))
            x = grid.nodes[k]
            out[m] += theta[m, k] * np.sum(grid.sqrt_weights[k] * phi.piece_smooth(k, x)
                                           / radical_eval(sys, m, x).real)
    return out / np.pi


def _ref_range_check(spec):
    sys, theta = spec.system(), spec.theta_matrix()
    psi = build_rhs(spec, sys, theta)
    c = compute_c(psi)
    nu = compute_nu(psi, c, theta)
    gam = build_gamma(sys, theta, lam=1.0, size=spec.param("nystrom"))
    grid = gam.nystrom.grid
    corr = _ref_resolvent(gam, nu, max(grid.sizes) + 33)
    general = _ref_range2(theta, nu) + _ref_range2(theta, corr)
    symmetric = np.zeros(sys.n)
    integrable = np.pi * c
    for k in range(sys.n):
        for x, sw in zip(grid.nodes[k], grid.sqrt_weights[k]):
            p = nu.piece_smooth(k, x)
            ginv = np.linalg.inv(gam.eval(x, side=1))
            symmetric = symmetric + np.diag(theta.entries) / np.pi * sw * p * np.real(
                _ref_gtinv(gam, x))
            for m in range(sys.n):
                chain = sum(theta[k, a] / (theta[k, k] * theta[a, a]) * ginv[a, m]
                            / radical_eval(sys, a, x).real
                            for a in range(sys.n) if a != k)
                integrable[m] += theta[m, m] * np.real(sw * (-theta[k, k] * p * chain))
    return general, symmetric, integrable


RANGE_CASES = {
    "n2-in-range": SPD2.replace("command = invert", "command = range-check"),
    "n3-bump": ("command = range-check\nintervals = (-3,-2) (-1,0) (1,3)\n"
                "theta = [[1,0.5,0.3],[0.5,1,0.4],[0.3,0.4,1]]\n"
                "rhs = gaussian-bump 0 1.5\nmodes = 24\nnystrom = 40\n"),
}


@pytest.mark.parametrize("case", RANGE_CASES)
def test_range_check_diagnostics_match_per_point_reference(case):
    spec = parse_problem(RANGE_CASES[case])
    d = run_command(spec).diagnostics
    general, symmetric, integrable = _ref_range_check(spec)
    np.testing.assert_allclose(d["predicted_c_general"], general, rtol=0, atol=1e-13)
    np.testing.assert_allclose(d["predicted_c_symmetric"], symmetric, rtol=0, atol=1e-13)
    assert abs(d["integrable_residual"]["value"] - np.max(np.abs(integrable))) <= 1e-13


def test_invert_diagnostics_match_per_point_reference():
    spec = parse_problem(SPD2)
    bundle = run_command(spec)
    d = bundle.diagnostics
    sys, theta = spec.system(), spec.theta_matrix()
    psi = build_rhs(spec, sys, theta)
    res = solve_phi(theta, psi, size=spec.param("nystrom"))
    nu = compute_nu(psi, res.c, theta)
    gam = build_gamma(sys, theta, lam=1.0, size=spec.param("nystrom"))
    phi_r = nu + _ref_resolvent(gam, nu, spec.param("nystrom") + 33)
    table = np.array(bundle.tables["phi_resolvent"])
    ref = np.real(phi_r(table[:, 1]))
    assert np.max(np.abs(table[:, 2] - ref)) <= 1e-13 * np.max(np.abs(ref))
    x = np.concatenate([sys.from_unit(j, np.linspace(-0.95, 0.95, 24))
                        for j in range(sys.n)])
    disc = np.max(np.abs(res.phi(x) - phi_r(x)))
    assert abs(d["two_path_discrepancy"]["value"] - disc) <= 1e-13
    range2 = np.max(np.abs(_ref_range2(theta, res.phi) - res.c))
    assert abs(d["range2_residual"]["value"] - range2) <= 1e-13
    dense = np.linalg.svd(gam.nystrom.matrix, compute_uv=False)
    assert abs(d["sigma_min"] - dense[-1]) <= 1e-13


def _ref_j(theta, f):
    """J(f, f) with Clenshaw values of g and the exterior series summed term by term."""
    sys = f.sys
    total = 0.0
    for k in range(sys.n):
        da = f.coeffs[k] * np.arange(1, f.coeffs[k].size + 1)
        for j in range(sys.n):
            b = f.coeffs[j]
            if j == k:
                total += theta[k, k] * 0.5 * np.pi * sys.half[k] ** 2 * np.sum(da * b)
                continue
            grid = chebyshev2_grid(sys, _cross_nodes(sys, j, k, b.size))
            x = grid.nodes[j]
            s = sys.to_unit(k, x)
            deriv = -fht_weighted(da, s) / unit_radical(s)
            g = clenshaw_U(b, sys.to_unit(j, x))
            total -= theta[j, k] * np.sum(grid.sqrt_weights[j] * g * deriv)
    return float(np.real(total))


def test_injectivity_diagnostics_match_per_point_reference():
    spec = parse_problem("command = injectivity-report\n"
                         "intervals = (-3,-2) (-1,0) (1,3)\n"
                         "theta = [[1,0.5,0.3],[0.5,1,0.4],[0.3,0.4,1]]\n"
                         "nystrom = 40\nseed = 5\n")
    d = run_command(spec).diagnostics
    sys, theta = spec.system(), spec.theta_matrix()
    rng = np.random.default_rng(5)
    fs = [random_sqrt_vanishing(sys, modes=16, rng=rng) for _ in range(20)]
    ratio = min(_ref_j(theta, f) / f.norm2() ** 2 for f in fs)
    assert abs(d["j_over_norm_min"] - ratio) <= 1e-13 * abs(ratio)
    dense = np.linalg.svd(assemble_K(sys, theta, size=40).matrix, compute_uv=False)
    assert abs(d["sigma_min"] - dense[-1]) <= 1e-13
    assert abs(d["sigma_max"] - dense[0]) <= 1e-13


@pytest.mark.parametrize("command", ["invert", "range-check", "gamma-check",
                                     "injectivity-report"])
def test_nystrom_commands_report_the_sketch_of_their_kernel(command):
    spec = parse_problem(N3_SPD.replace("command = invert", f"command = {command}"))
    sketch = json.loads(run_command(spec).to_json())["diagnostics"]["sketch"]
    ns = assemble_K(spec.system(), spec.theta_matrix(), size=spec.param("nystrom"))
    K, Q = ns.kernel, ns.basis
    assert set(sketch) == {"rank", "err"}
    assert sketch["rank"] == Q.shape[1] <= ns.size
    target = SKETCH_TOL * max(1.0, np.linalg.norm(K))
    assert sketch["err"] <= target
    assert np.linalg.norm(K - Q @ (Q.T @ K)) <= target


def test_serialization_round_trip(tmp_path):
    bundle = run_command(parse_problem(SPD2))
    out = write_bundle(bundle, tmp_path / "out")
    data = read_table(out / "phi.tsv")
    orig = np.array(bundle.tables["phi"])
    np.testing.assert_array_equal(data, orig)  # 17 significant digits: exact
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["provenance"]["input_sha256"] == bundle.provenance["input_sha256"]


def test_samples_rhs_round_trip(tmp_path):
    # the forward command maps its rhs, so feed it phi itself; the psi
    # table then reloads as a sample-based rhs for inversion
    text = SPD2.replace("command = invert", "command = forward").replace(
        "rhs = forward-of random-sqrt 10", "rhs = random-sqrt 10")
    bundle = run_command(parse_problem(text))
    out = write_bundle(bundle, tmp_path / "fwd")
    text = (f"command = invert\nintervals = (-2,-1) (1,2)\n"
            f"theta = [[1,0.5],[0.5,1]]\nrhs = samples {out}/psi.tsv\n"
            f"modes = 64\nnystrom = 48\nseed = 7\n")
    bundle2 = run_command(parse_problem(text))
    assert bundle2.diagnostics["range2_residual"]["value"] <= 1e-5


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(MINIMAL)
    assert cli_main(["invert", "--problem", str(good)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "invert"

    bad_schema = tmp_path / "bad1.txt"
    bad_schema.write_text("command = nope\nintervals = (-1,1)\n")
    assert cli_main(["invert", "--problem", str(bad_schema)]) == 2

    bad_geom = tmp_path / "bad2.txt"
    bad_geom.write_text("command = invert\nintervals = (-1,1) (0,2)\n"
                        "theta = identity\nrhs = const 1\n")
    assert cli_main(["invert", "--problem", str(bad_geom)]) == 3

    degen = tmp_path / "bad3.txt"
    degen.write_text("command = invert\nintervals = (-2,-1) (1,2)\n"
                     "theta = [[0,1],[1,1]]\nrhs = const 1\n")
    assert cli_main(["invert", "--problem", str(degen)]) == 4

    out_of_range = tmp_path / "bad4.txt"
    out_of_range.write_text("command = uniform-invert\nintervals = (-1,1)\n"
                            "theta = uniform\nrhs = const 1\n")
    assert cli_main(["uniform-invert", "--problem", str(out_of_range)]) == 5


def test_cli_exits_1_on_an_unmapped_package_error(tmp_path, capsys, monkeypatch):
    def raise_symmetry(spec):
        raise SymmetryError("needs theta = theta^t")

    monkeypatch.setattr(mifht.problems, "run_command", raise_symmetry)
    prob = tmp_path / "good.txt"
    prob.write_text(MINIMAL)
    assert cli_main(["invert", "--problem", str(prob)]) == 1
    err = capsys.readouterr().err
    assert "error (SymmetryError): needs theta = theta^t" in err
    assert "Traceback" not in err


def test_cli_unreadable_problem_file_exits_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"command = invert\nintervals = (\xff,1)\n")
    for path in (not_utf8, tmp_path / "missing.txt"):
        assert cli_main(["invert", "--problem", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error (SchemaError): cannot read problem file" in err
        assert "Traceback" not in err


UNIFORM1 = """
command = uniform-invert
intervals = (-1,1)
theta = uniform
rhs = forward-of random-sqrt 8
"""

MALFORMED = {
    "lambda-without-imaginary-part": (MINIMAL, ["invert", "--lambda", "1"]),
    "lambda-zero": (MINIMAL, ["invert", "--lambda", "0,0"]),
    "lambda-not-finite": (MINIMAL + "lambda = nan,0\n", ["invert"]),
    "nystrom-zero": (MINIMAL, ["invert", "--nystrom", "0"]),
    "modes-one": (MINIMAL, ["invert", "--modes", "1"]),
    "theta-entry-not-a-number": (
        MINIMAL.replace("(-1,1)", "(-2,-1) (1,2)").replace(
            "identity", '[[1,"a"],[0.5,1]]'), ["invert"]),
    "theta-entry-not-finite": (
        MINIMAL.replace("(-1,1)", "(-2,-1) (1,2)").replace(
            "identity", "[[1,1e999],[1e999,1]]"), ["invert"]),
    "samples-file-missing": (
        MINIMAL.replace("linear 0 1", "samples /nonexistent/psi.tsv"), ["invert"]),
    "preset-argument-not-an-integer": (
        MINIMAL.replace("linear 0 1", "cheb-sqrt x"), ["invert"]),
    "random-sqrt-negative-modes": (
        MINIMAL.replace("linear 0 1", "random-sqrt -3"), ["invert"]),
    "random-sqrt-zero-modes": (
        MINIMAL.replace("linear 0 1", "random-sqrt 0"), ["invert"]),
    "cheb-sqrt-negative-degree": (
        MINIMAL.replace("linear 0 1", "cheb-sqrt -1"), ["invert"]),
    "gaussian-bump-zero-width": (
        MINIMAL.replace("linear 0 1", "gaussian-bump 0 0"), ["invert"]),
    "dt-zero": (UNIFORM1 + "dt = 0\n", ["uniform-invert"]),
    "tmax-negative": (UNIFORM1, ["uniform-invert", "--tmax", "-1"]),
    "tmax-beyond-inverse-map-range": (UNIFORM1, ["uniform-invert", "--tmax", "256"]),
    "range-tol-key-not-read": (MINIMAL + "range_tol = 1e-8\n", ["invert"]),
    "key-given-twice": (MINIMAL + "nystrom = 8\nnystrom = 9\n", ["invert"]),
    "seed-negative-random-sqrt": (
        MINIMAL.replace("linear 0 1", "random-sqrt 8") + "seed = -1\n", ["invert"]),
    "seed-negative-injectivity-report": (MINIMAL + "seed = -1\n", ["injectivity-report"]),
    "tol-nan": (MINIMAL + "tol = nan\n", ["invert"]),
    "tol-inf": (MINIMAL, ["invert", "--tol", "inf"]),
    "tol-zero": (MINIMAL + "tol = 0\n", ["invert"]),
}
MALFORMED_ERROR = {"tmax-beyond-inverse-map-range": "RangeExceededError"}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_theta_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(NonFiniteError, match="theta entries must be finite"):
        ThetaMatrix([[1.0, bad], [bad, 1.0]])


def test_problem_file_reports_non_finite_theta_as_a_schema_error():
    # a problem file gets its exit-2 schema error before the library check
    text = SPD2.replace("[[1,0.5],[0.5,1]]", "[[1,1e999],[1e999,1]]")
    with pytest.raises(SchemaError, match="theta: entries must be finite"):
        parse_problem(text).theta_matrix()


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2(case, tmp_path, capsys):
    text, (command, *options) = MALFORMED[case]
    prob = tmp_path / "p.txt"
    prob.write_text(text)
    assert cli_main([command, "--problem", str(prob), *options]) == 2
    assert MALFORMED_ERROR.get(case, "SchemaError") in capsys.readouterr().err


def test_cli_writes_output(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(MINIMAL)
    outdir = tmp_path / "results"
    assert cli_main(["invert", "--problem", str(prob),
                     "--output", str(outdir), "--modes", "48"]) == 0
    assert (outdir / "diagnostics.json").is_file()
    assert (outdir / "phi.tsv").is_file()


def test_cli_command_overrides_file(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(MINIMAL)  # file says invert
    assert cli_main(["selftest", "--problem", str(prob)]) == 0
