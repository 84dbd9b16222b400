import warnings

import numpy as np
import pytest
import scipy.special

from mifht import (
    DegenerateDiagonalError,
    PiecewiseFunction,
    ZeroLambdaError,
    fht_forward,
    fht_invert,
    make_interval_system,
)
from mifht import solver
from mifht.solver import (
    DEGENERATE,
    INVERTIBLE_DIAGONAL,
    SKETCH_BLOCK,
    SKETCH_TOL,
    SPD,
    SYMMETRIC_INVERTIBLE,
    UNIFORM,
    ThetaMatrix,
    assemble_K,
    bilinear_form_J,
    bilinear_form_J_many,
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
    "whole-space": ([(-2.0, -1.0), (1.0, 2.0)], 0.5, 3 * SKETCH_BLOCK // 4, 1.0),
    "smaller-than-a-block": ([(-2.0, -1.0), (1.0, 2.0)], 0.5, 8, 1.0),
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


def test_extreme_singular_values_of_zero_kernel_are_one(sys3):
    ns = assemble_K(sys3, ThetaMatrix(np.diag([1.0, -2.0, 0.5])), size=40)
    assert extreme_singular_values(ns) == (1.0, 1.0, 0.0)


def test_reported_sigmas_match_dense_svd(sys3, theta3):
    psi = forward_map(theta3, random_sqrt_vanishing(sys3, modes=8, seed=3))
    res = solve_phi(theta3, psi, size=64)
    dense_min, dense_max = _dense_sigmas(res.nystrom)
    assert abs(res.diagnostics["sigma_min"] - dense_min) <= 1e-12
    rep = injectivity_report(theta3, sys3, size=64, n_samples=2)
    assert abs(rep["sigma_min"] - dense_min) <= 1e-12
    assert abs(rep["sigma_max"] - dense_max) <= 1e-12


def test_solve_warns_for_non_spd(sys2):
    th = ThetaMatrix([[1.0, 0.4], [0.1, 1.0]])
    phi0 = random_sqrt_vanishing(sys2, modes=8, seed=7)
    psi = forward_map(th, phi0)
    with pytest.warns(UserWarning, match="numerically"):
        res = solve_phi(th, psi, size=32)
    assert res.diagnostics["warning"] is not None


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
