import numpy as np
import pytest

from mifht import (
    CoincidenceError,
    DegenerateDiagonalError,
    EndpointError,
    NearSingularError,
    PiecewiseFunction,
    SymmetryError,
    make_interval_system,
)
from mifht.gamma import (
    GammaSolution,
    build_gamma,
    compute_F,
    invert_via_resolvent,
    range_check_L1_variant,
    range_condition_J12,
    range_condition_N2,
    range_condition_two_intervals,
)
from mifht import chebyshev as cheb
from mifht.intervals import ABOVE, BELOW, unit_radical
from mifht.problems import _nojump_residuals
from mifht.solver import (
    SIGMA_FLOOR,
    ThetaMatrix,
    _solve_refined,
    assemble_K,
    compute_c,
    compute_nu,
    extreme_singular_values,
    forward_map,
    kernel_g,
    random_sqrt_vanishing,
    solve_phi,
)

from conftest import interior_points, zero_c_combination


@pytest.fixture(scope="module")
def rt2(sys2, theta2):
    """Round-trip fixture: psi = forward(phi0) plus derived quantities."""
    phi0 = random_sqrt_vanishing(sys2, modes=18, seed=41)
    psi = forward_map(theta2, phi0)
    c = compute_c(psi)
    nu = compute_nu(psi, c, theta2)
    return phi0, psi, c, nu


# -- kernel vectors ------------------------------------------------------------


def test_kernel_vectors_structure(gamma2, sys2):
    # g on I_1 has only the other component nonzero
    xx = float(sys2.from_unit(0, 0.3))
    g = gamma2.g_vector(xx)
    assert g[0] == 0.0 and g[1] != 0.0
    # f on I_1 is -2 R_{1+} in component 1
    fv = gamma2.f_vector(xx)
    assert fv[1] == 0.0
    assert fv[0] == pytest.approx(-2j * sys2.weight(0, xx))


def test_kernel_orthogonality(gamma2, sys2):
    pts = interior_points(sys2, 15)
    fg = np.sum(gamma2.f_vector(pts) * gamma2.g_vector(pts), axis=-1)
    assert np.max(np.abs(fg)) == 0.0


def test_kernel_degenerate_rejected(sys2):
    with pytest.raises(DegenerateDiagonalError):
        build_gamma(sys2, ThetaMatrix([[0.0, 1.0], [1.0, 1.0]]), size=12)


KERNEL_BLOCKS = [(n, j, k) for n in (2, 3) for j in range(n) for k in range(n) if j != k]


@pytest.mark.parametrize("n, j, k", KERNEL_BLOCKS)
def test_kernel_matches_nystrom_kernel(request, n, j, k):
    # f^t(z) g(x) / (2 pi i (z - x)) = K(z, x): check every entry of the
    # assembled block (j, k), whose smooth-part entries are K(z, x) sw_x / w_j(z)
    sys = request.getfixturevalue(f"sys{n}")
    ns = assemble_K(sys, request.getfixturevalue(f"theta{n}"), size=10)
    gam = GammaSolution(ns)
    z, x = ns.grid.nodes[j], ns.grid.nodes[k]
    kval = (gam.f_vector(z) @ gam.g_vector(x).T) / (2j * np.pi * np.subtract.outer(z, x))
    assert np.all(np.abs(kval.imag) <= 1e-15 * np.abs(kval))
    block = ns.kernel[ns.offsets[j]: ns.offsets[j + 1], ns.offsets[k]: ns.offsets[k + 1]]
    expect = kval.real * ns.grid.sqrt_weights[k][None, :] / sys.weight(j, z)[:, None]
    np.testing.assert_allclose(block, expect, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_vectors_batched_match_pointwise(request, n):
    sys = request.getfixturevalue(f"sys{n}")
    gam = build_gamma(sys, request.getfixturevalue(f"theta{n}"), size=12)
    pts = interior_points(sys, 9)
    F, G = gam.f_vector(pts), gam.g_vector(pts)
    assert F.shape == G.shape == (pts.size, n)
    for p, x in enumerate(pts):
        k = sys.locate(x)
        f = np.zeros(n, dtype=complex)
        f[k] = -2j * sys.weight(k, x)
        g = kernel_g(sys, gam.theta, k, [x])[:, 0]
        assert np.max(np.abs(F[p] - f)) <= 1e-14 * np.max(np.abs(f))
        assert np.max(np.abs(G[p] - g)) <= 1e-14 * np.max(np.abs(g))
        np.testing.assert_array_equal(gam.f_vector(float(x)), F[p])
        np.testing.assert_array_equal(gam.g_vector(float(x)), G[p])
    gap = 0.5 * (sys.beta[0] + sys.alpha[1])
    for bad in (np.array([pts[0], gap]), sys.alpha[0], np.array([sys.beta[-1]])):
        with pytest.raises(EndpointError):
            gam.f_vector(bad)
        with pytest.raises(EndpointError):
            gam.g_vector(bad)


# -- F and the diagonal reduction ------------------------------------------------


def test_F_diagonal_theta_equals_f(sys2):
    th = ThetaMatrix([[3.0, 0.0], [0.0, 2.0]])
    ns = assemble_K(sys2, th, size=12)
    smooth, residual, _ = compute_F(ns)
    assert residual <= 1e-14
    for j in range(2):
        own = slice(ns.offsets[j], ns.offsets[j + 1])
        np.testing.assert_allclose(smooth[j, own], -2j, atol=1e-14)
        other = slice(ns.offsets[1 - j], ns.offsets[2 - j])
        np.testing.assert_allclose(smooth[j, other], 0.0, atol=1e-14)


def test_F_large_lambda_tends_to_f(sys2, theta2):
    ns = assemble_K(sys2, theta2, size=12, lam=1e6)
    smooth, _, _ = compute_F(ns)
    rhs = np.zeros_like(smooth)
    for j in range(2):
        rhs[j, ns.offsets[j]: ns.offsets[j + 1]] = -2j
    assert np.max(np.abs(smooth - rhs)) <= 1e-5


def test_F_solver_residual(sys2, theta2):
    ns = assemble_K(sys2, theta2, size=64)
    _, residual, _ = compute_F(ns)
    assert residual <= 1e-10


def test_F_uses_the_same_singularity_floor_as_solve_phi(sys2, theta2):
    # lambda just above the largest eigenvalue mu of K leaves Id - K/lambda
    # with sigma_min / sigma_max near 4e-12, below SIGMA_FLOOR = 1e-10
    mu = float(np.max(np.linalg.eigvals(assemble_K(sys2, theta2, size=32).kernel).real))
    lam = mu * (1.0 + 1e-11)
    smin, smax, _ = extreme_singular_values(assemble_K(sys2, theta2, size=32, lam=lam))
    assert smin < SIGMA_FLOOR * smax
    with pytest.raises(NearSingularError):
        build_gamma(sys2, theta2, lam=lam, size=32)


# -- Gamma: jump, determinant, decay, no-jump -----------------------------------


def test_gamma_diagonal_theta_is_identity(sys2):
    gam = build_gamma(sys2, ThetaMatrix(np.eye(2)), size=12)
    z = np.array([0.1 + 0.3j, -1.5, 5.0])
    np.testing.assert_allclose(gam.eval(z, side=1),
                               np.tile(np.eye(2), (3, 1, 1)), atol=1e-15)


def test_gamma_jump_condition(gamma2, sys2):
    pts = interior_points(sys2, 20)
    assert gamma2.jump_residual(pts) <= 1e-7


def test_gamma_det_one(gamma2, sys2):
    pts = interior_points(sys2, 10)
    dets = gamma2.det(pts, side=1)
    assert np.max(np.abs(dets - 1.0)) <= 1e-8
    off = np.array([0.5 + 0.5j, -4.0, 10.0j])
    assert np.max(np.abs(gamma2.det(off) - 1.0)) <= 1e-10


def test_gamma_decay_law(gamma2, sys2):
    # Gamma - Id decays like 1/|z|: ratio across radii within 2% of 2
    r1 = np.max(np.abs(gamma2.eval(4.0e3 * np.exp(0.3j)) - np.eye(2)))
    r2 = np.max(np.abs(gamma2.eval(8.0e3 * np.exp(0.3j)) - np.eye(2)))
    assert r1 / r2 == pytest.approx(2.0, rel=0.02)


def test_gamma_identity_normalization_weak_coupling(sys2):
    # the 1e-6 decay bound at 10^3 * scale holds for mild coupling, where
    # the first moment of F g^t is small
    th = ThetaMatrix([[1.0, 0.02], [0.02, 1.0]])
    gam = build_gamma(sys2, th, size=48)
    zs = 1e3 * sys2.scale * np.exp(1j * np.linspace(0.2, np.pi - 0.2, 6))
    assert np.max(np.abs(gam.eval(zs) - np.eye(2))) <= 1e-6


def test_gamma_no_jump_combinations(gamma2, sys2):
    pts = interior_points(sys2, 12)
    worst_f = worst_g = 0.0
    for x in pts:
        x = float(x)
        gp = gamma2.eval(x, side=+1)
        gm = gamma2.eval(x, side=-1)
        fv = gamma2.f_vector(x)
        gv = gamma2.g_vector(x)
        worst_f = max(worst_f, np.max(np.abs((gp - gm) @ fv)))
        worst_g = max(worst_g, np.max(np.abs(
            gv @ (np.linalg.inv(gp) - np.linalg.inv(gm)))))
    assert worst_f <= 1e-8 and worst_g <= 1e-8


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 2.0 + 1.0j])
def test_batched_gamma_checks_match_pointwise(request, n, lam):
    sys = request.getfixturevalue(f"sys{n}")
    gam = build_gamma(sys, request.getfixturevalue(f"theta{n}"), lam=lam, size=48)
    pts = interior_points(sys, 9)
    jump = nojump_f = nojump_g = 0.0
    for x in pts:
        k = sys.locate(x)
        f = np.zeros(n, dtype=complex)
        f[k] = -2j * sys.weight(k, x)
        g = kernel_g(sys, gam.theta, k, [x])[:, 0]
        gp = gam.eval(float(x), side=+1)
        gm = gam.eval(float(x), side=-1)
        jump = max(jump, np.max(np.abs(gp - gm @ (np.eye(n) - np.outer(f, g) / lam))))
        nojump_f = max(nojump_f, np.max(np.abs((gp - gm) @ f)))
        nojump_g = max(nojump_g, np.max(np.abs(
            g @ (np.linalg.inv(gp) - np.linalg.inv(gm)))))
    assert abs(gam.jump_residual(pts) - jump) <= 1e-14
    got_f, got_g = _nojump_residuals(gam, pts)
    assert abs(got_f - nojump_f) <= 1e-14
    assert abs(got_g - nojump_g) <= 1e-14
    assert max(jump, nojump_f, nojump_g) <= 1e-8


def test_gamma_own_column_no_jump(gamma2, sys2):
    for j in range(2):
        x = sys2.from_unit(j, np.linspace(-0.8, 0.8, 7))
        cp = gamma2.eval(x, side=+1)[:, :, j]
        cm = gamma2.eval(x, side=-1)[:, :, j]
        np.testing.assert_allclose(cp, cm, atol=1e-12)


def test_gamma_column_cauchy_representation(gamma2, sys2, theta2):
    # col_j(z) = e_j + (1/pi i) sum_{k != j} (theta_jk/theta_jj)
    #            int_{I_k} R_{k+} col_k / (R_j (zeta - z)) dzeta
    from mifht.quadrature import chebyshev2_grid

    grid = chebyshev2_grid(sys2, 96)
    for j in range(2):
        k = 1 - j
        x = grid.nodes[k]
        colk = gamma2.eval(x, side=1)[:, :, k]  # (M, n), continuous on I_k
        s = (x - sys2.mid[j]) / sys2.half[j]
        rj = sys2.half[j] * np.sign(s) * np.sqrt(s * s - 1.0)
        for z in (0.4 + 1.1j, -3.7, 6.0):
            integ = (grid.sqrt_weights[k][:, None] * 1j * colk
                     / (rj * (x - z))[:, None]).sum(axis=0)
            expect = np.eye(2)[:, j] + (theta2[j, k] / (np.pi * 1j * theta2[j, j])
                                        ) * integ
            got = gamma2.eval(np.array([complex(z)]))[0][:, j]
            np.testing.assert_allclose(got, expect, atol=1e-7)


def test_gamma_bounded_at_endpoints(gamma2, sys2):
    for j in range(2):
        a, b = sys2.endpoints[j]
        eps = np.array([1e-4, 1e-6, 1e-8])
        vals_a = gamma2.eval(a - eps)
        vals_b = gamma2.eval(b + eps)
        assert np.all(np.isfinite(vals_a)) and np.all(np.isfinite(vals_b))
        assert np.max(np.abs(vals_a)) < 10 and np.max(np.abs(vals_b)) < 10


def test_gamma_endpoint_eval_rejected(gamma2, sys2):
    with pytest.raises(EndpointError):
        gamma2.eval(float(sys2.beta[0]))


def test_gamma_endpoint_continuity(sys2, theta2):
    # first-order sensitivity in an endpoint: O(delta) with ratio scaling
    z = 0.25 + 0.9j
    base = build_gamma(sys2, theta2, size=48).eval(z)

    def dev(delta):
        pts = sys2.endpoints.copy()
        pts[0, 1] += delta
        gam = build_gamma(make_interval_system(pts), theta2, size=48)
        return np.max(np.abs(gam.eval(z) - base))

    d1 = dev(1e-4)
    d2 = dev(5e-5)
    assert d1 <= 1e-2
    assert 2.0 / 3.0 <= d1 / d2 <= 6.0


# -- resolvent -------------------------------------------------------------------


def test_resolvent_zero_for_diagonal(sys2):
    gam = build_gamma(sys2, ThetaMatrix(np.eye(2)), size=12)
    z = sys2.from_unit(0, 0.2)
    x = sys2.from_unit(1, -0.4)
    assert gam.resolvent_kernel(z, x) == pytest.approx(0.0, abs=1e-15)


def test_resolvent_side_independence(gamma2, sys2):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        jz, jx = rng.integers(0, 2, 2)
        z = float(sys2.from_unit(jz, rng.uniform(-0.9, 0.9)))
        x = float(sys2.from_unit(jx, rng.uniform(-0.9, 0.9)))
        if z == x:
            continue
        az_p = gamma2.g_vector(x) @ np.linalg.inv(gamma2.eval(x, side=+1))
        az_m = gamma2.g_vector(x) @ np.linalg.inv(gamma2.eval(x, side=-1))
        gf_p = gamma2.gamma_f(z, side=+1)
        gf_m = gamma2.gamma_f(z, side=-1)
        rp = np.dot(az_p - 0, gf_p)
        rm = np.dot(az_m - 0, gf_m)
        worst = max(worst, abs(rp - rm) / (2 * np.pi * abs(z - x)))
    assert worst <= 1e-9


def test_resolvent_coincidence(gamma2, sys2):
    z = float(sys2.from_unit(0, 0.3))
    with pytest.raises(CoincidenceError):
        gamma2.resolvent_kernel(z, z)
    lim = gamma2.resolvent_kernel(z, z, limit=True)
    assert np.isfinite(lim)
    near = gamma2.resolvent_kernel(z + 1e-7, z)
    assert abs(lim - near) <= 1e-4 * (1 + abs(lim))


def test_resolvent_identity_on_grid(sys2, theta2):
    gam = build_gamma(sys2, theta2, size=48)
    R = gam.resolvent_matrix()
    ident = (np.eye(gam.nystrom.size) + R) @ gam.nystrom.matrix
    assert np.max(np.abs(ident - np.eye(gam.nystrom.size))) <= 1e-8


def test_resolvent_matrix_entries_match_resolvent_kernel(sys2, theta2):
    gam = build_gamma(sys2, theta2, size=48)
    R = gam.resolvent_matrix()
    ns = gam.nystrom
    nodes = np.concatenate(ns.grid.nodes)
    sw = np.concatenate(ns.grid.sqrt_weights)
    wt = np.concatenate([sys2.weight(l, x) for l, x in enumerate(ns.grid.nodes)])
    rng = np.random.default_rng(8)
    for i, q in rng.integers(0, nodes.size, (40, 2)):
        if i == q:
            continue
        expect = gam.resolvent_kernel(nodes[i], nodes[q]) * sw[q] / wt[i]
        assert abs(R[i, q] - expect) <= 1e-10 * abs(expect)
    # the coincidence diagonal is the exact limit -A'(z) (Gamma f)(z) / (2 pi i)
    for i in (0, 17, nodes.size - 1):
        lim = gam.resolvent_kernel(nodes[i], nodes[i], limit=True) * sw[i] / wt[i]
        assert abs(R[i, i] - lim) <= 1e-12 * abs(lim)


@pytest.mark.parametrize("k, lo, hi", [(0, -0.5, 0.3), (1, 0.1, 0.9)])
def test_gtinv_derivative_matches_interpolant_derivative(gamma2, sys2, k, lo, hi):
    # A = g^t Gamma^{-1} is analytic inside I_k: differentiate a degree-24
    # Chebyshev interpolant of it on [lo, hi] (unit coordinates of I_k)
    a, b = sys2.from_unit(k, lo), sys2.from_unit(k, hi)
    cheb = np.polynomial.chebyshev
    t = np.cos(np.pi * (np.arange(25) + 0.5) / 25)
    A = gamma2.gtinv(k, 0.5 * (a + b) + 0.5 * (b - a) * t)
    slope = cheb.chebder(cheb.chebfit(t, A, 24)) * (2.0 / (b - a))
    tt = np.linspace(-0.9, 0.9, 9)
    expect = cheb.chebval(tt, slope).T
    got = gamma2.gtinv_derivative(k, 0.5 * (a + b) + 0.5 * (b - a) * tt)
    assert np.max(np.abs(got - expect)) <= 1e-11 * np.max(np.abs(expect))


def _difference_form_resolvent(gam, nu, nmodes):
    """hat R nu at the U nodes of every interval, one target at a time.

    -(1/(pi lambda)) sum_q sw p(x_q) (A(x_q) - A(z)) Gamma_m(z) / (z - x_q);
    a node within 8 eps max|endpoint| of z takes -A'(z) Gamma_m(z) instead.
    Also returns the number of such node hits on each interval.
    """
    ns, sys = gam.nystrom, gam.sys
    x = np.concatenate(ns.grid.nodes)
    _, ginv, Ax = gam._at_nodes
    w = np.concatenate(ns.grid.sqrt_weights) * ns.nodal(nu)
    out, hits = [], []
    for m in range(sys.n):
        z = sys.from_unit(m, cheb.cheb2_nodes(nmodes))
        G = gam.eval(z, side=ABOVE)
        Az = np.einsum("qa,qam->qm", gam.g_vector(z), np.linalg.inv(G))
        vals = []
        hits.append(0)
        for zp, col, az in zip(z, G[:, :, m], Az):
            on = np.abs(zp - x) <= 8 * np.finfo(float).eps * sys.scale
            terms = np.empty(x.size, dtype=complex)
            terms[~on] = (Ax[~on] - az) @ col / (zp - x[~on])
            terms[on] = -gam._slope(x[on], ns.g_nodes[:, on], ginv[on], Ax[on]) @ col
            hits[-1] += int(on.sum())
            vals.append(-(w @ terms) / (np.pi * gam.lam))
        out.append(np.array(vals))
    return out, hits


RESOLVENT_CASES = {"n3-65": (3, 65, 1.0), "n3-74": (3, 74, 1.0),
                   "n3-256": (3, 256, 1.0), "n2-complex-lambda": (2, 64, 2.0 + 1.0j),
                   "n3-unequal": (3, [40, 65, 74], 1.0)}


@pytest.mark.parametrize("case", RESOLVENT_CASES)
def test_apply_resolvent_matches_difference_form_reference(request, case):
    n, size, lam = RESOLVENT_CASES[case]
    sys, theta = request.getfixturevalue(f"sys{n}"), request.getfixturevalue(f"theta{n}")
    psi = forward_map(theta, random_sqrt_vanishing(sys, modes=16, seed=3))
    nu = compute_nu(psi, compute_c(psi), theta)
    gam = build_gamma(sys, theta, lam=lam, size=size)
    got = gam.apply_resolvent(nu)
    sizes = gam.nystrom.grid.sizes
    nmodes = max(sizes) + 33
    ref, hits = _difference_form_resolvent(gam, nu, nmodes)
    # the reference keeps max(M) + 33 targets, more than the _cross_modes
    # apply_resolvent starts from, and they meet the nodes of I_m, exactly or
    # 1 ulp apart, when gcd(nmodes + 1, M_m + 1) > 1; the target count of
    # apply_resolvent steps past such sizes
    assert [h > 0 for h in hits] == [np.gcd(nmodes + 1, M + 1) > 1 for M in sizes]
    scale = max(np.max(np.abs(r)) for r in ref)
    for m in range(sys.n):
        assert got.coeffs[m].size < nmodes
        vals = cheb.chebU_nodal(got.coeffs[m], nmodes)
        assert np.max(np.abs(vals - ref[m])) <= 1e-13 * scale


def test_apply_resolvent_resolves_a_small_gap(theta3):
    # at gap 0.01 hat R nu needs ~180 modes; max(M) + 33 = 97 targets left
    # it 2.9e-9 off, the _cross_modes count resolves it to eps
    sys = make_interval_system([(0.0, 1.0), (1.01, 2.01), (2.02, 3.02)])
    psi = forward_map(theta3, random_sqrt_vanishing(sys, modes=16, seed=3))
    nu = compute_nu(psi, compute_c(psi), theta3)
    gam = build_gamma(sys, theta3, lam=1.0, size=64)
    got = gam.apply_resolvent(nu)
    ref, hits = _difference_form_resolvent(gam, nu, 251)
    assert hits == [0, 0, 0]
    scale = max(np.max(np.abs(r)) for r in ref)
    for m in range(sys.n):
        vals = cheb.chebU_nodal(got.coeffs[m], 251)
        assert np.max(np.abs(vals - ref[m])) <= 1e-12 * scale


def test_apply_resolvent_inverts_the_nystrom_operator_at_complex_lambda(sys2, theta2, rt2):
    # read at the nodes, hat R nu is the resolvent matrix applied to the
    # node values of nu, whose rows carry the 1/lambda of R(z, x; lambda)
    gam = build_gamma(sys2, theta2, lam=2.0 + 1.0j, size=40)
    nu = rt2[3]
    got = gam.apply_resolvent(nu)
    vals = np.concatenate([cheb.chebU_nodal(c, 40) for c in got.coeffs])
    expect = gam.resolvent_matrix() @ gam.nystrom.nodal(nu)
    assert np.max(np.abs(vals - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("n, size, lam", [(3, 256, 1.0), (2, 96, 2.0 + 1.0j)])
def test_chopped_gamma_matches_the_full_density(request, monkeypatch, n, size, lam):
    sys, theta = request.getfixturevalue(f"sys{n}"), request.getfixturevalue(f"theta{n}")
    gam = build_gamma(sys, theta, lam=lam, size=size)
    monkeypatch.setattr(cheb, "chop", lambda c: np.shape(c)[-1])
    # built directly, since build_gamma would return the kept, chopped Gamma
    full = GammaSolution(assemble_K(sys, theta, lam=lam, size=size))
    eps = np.finfo(float).eps
    x = interior_points(sys, 40)
    z = np.concatenate([x + 0.3j, 10.0 * sys.scale * np.exp(1j * np.linspace(0.1, 3.0, 5))])
    for D, F in zip(gam.density, full.density):
        K = D.shape[2]
        assert K < F.shape[2] == size
        np.testing.assert_array_equal(D, F[:, :, :K])
        assert np.max(np.abs(F[:, :, K:])) <= eps * np.max(np.abs(F))
    for pts, side in ((x, ABOVE), (x, BELOW), (z, None)):
        value = gam.eval(pts, side)
        assert np.max(np.abs(value - full.eval(pts, side))) <= 1e-14 * np.max(np.abs(value))
        # Gamma' moves by the dropped (k+1)-weighted tail alone: each dropped
        # coefficient is below eps of the envelope, and (k + 1) reaches the
        # sampled length
        bound = np.zeros(pts.size)
        for l, (D, F) in enumerate(zip(gam.density, full.density)):
            s = (pts - sys.mid[l]) / sys.half[l]
            rad = unit_radical(s, side)
            k = np.arange(D.shape[2], F.shape[2])
            tail = np.max(np.abs(F[:, :, k]), axis=(0, 1)) * (k + 1)
            bound += np.abs(cheb.exterior_powers(s + rad, F.shape[2])[k].T) @ tail / (
                2 * abs(lam) * np.abs(rad))
        slope = gam._series(pts, side, derivative=True)
        diff = np.max(np.abs(slope - full._series(pts, side, derivative=True)), axis=(1, 2))
        assert np.all(diff <= bound + 1e-15 * np.max(np.abs(slope)))


@pytest.mark.parametrize("lam", [1.0, 2.0 + 1.0j])
def test_compute_F_leaves_the_nystrom_matrices_unchanged(sys3, theta3, lam):
    ns = assemble_K(sys3, theta3, size=48, lam=lam)
    matrix, kernel = ns.matrix.copy(), ns.kernel.copy()
    smooth, residual, solve = compute_F(ns)
    np.testing.assert_array_equal(ns.matrix, matrix)
    np.testing.assert_array_equal(ns.kernel, kernel)
    assert residual <= 1e-13 * np.max(np.abs(smooth))
    assert solve["factor"] == "float32"
    # the single-precision LU works in place on its own buffer, for a real
    # and a complex right-hand side alike, solves with the operator itself,
    # and its refinement lands on the dense double solve
    smin, smax, _ = extreme_singular_values(ns)
    b = np.random.default_rng(3).standard_normal((ns.size, 2))
    for rhs in (b, b[:, 0] + 1j * b[:, 1]):
        x, solve = _solve_refined(ns, rhs, smax / smin)
        np.testing.assert_array_equal(ns.kernel, kernel)
        np.testing.assert_allclose(matrix @ x, rhs, rtol=0, atol=1e-13)
        ref = np.linalg.solve(matrix, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert solve["factor"] == "float32" and solve["refinements"] <= 5


@pytest.mark.parametrize("n", [2, 3])
def test_node_cache_A_matches_gtinv_per_interval(request, n):
    sys = request.getfixturevalue(f"sys{n}")
    gam = build_gamma(sys, request.getfixturevalue(f"theta{n}"), size=40)
    _, _, A = gam._at_nodes
    ns = gam.nystrom
    for k, (nodes, Ak) in enumerate(zip(ns.grid.nodes, ns.split(A))):
        ref = gam.gtinv(k, nodes)
        assert np.max(np.abs(Ak - ref)) <= 1e-15 * np.max(np.abs(ref))


# -- inversion via the resolvent --------------------------------------------------


def test_invert_via_resolvent_diagonal_returns_nu(sys2):
    th = ThetaMatrix([[2.0, 0.0], [0.0, 3.0]])
    psi = PiecewiseFunction.from_callable(sys2, lambda x: x, N=10)
    nu = compute_nu(psi, compute_c(psi), th)
    phi = invert_via_resolvent(nu, build_gamma(sys2, th, size=24))
    x = interior_points(sys2, 11)
    np.testing.assert_allclose(phi(x), nu(x), atol=1e-12)


def test_invert_via_resolvent_zero(sys2, theta2, gamma2):
    psi = PiecewiseFunction.zeros(sys2, 8)
    phi = invert_via_resolvent(compute_nu(psi, compute_c(psi), theta2), gamma2)
    assert phi.norm2() == pytest.approx(0.0, abs=1e-14)


def test_two_path_equivalence(sys2, theta2, gamma2, rt2):
    phi0, psi, c, nu = rt2
    res = solve_phi(theta2, psi, size=96)
    phi_r = invert_via_resolvent(nu, gamma2)
    x = interior_points(sys2, 30)
    assert np.max(np.abs(res.phi(x) - phi_r(x))) <= 1e-6
    assert np.max(np.abs(phi_r(x) - phi0(x))) <= 1e-6


# -- range conditions --------------------------------------------------------------


def test_N2_requires_symmetry(sys2, rt2):
    _, _, _, nu = rt2
    gam = build_gamma(sys2, ThetaMatrix([[1.0, 0.4], [0.1, 1.0]]), size=24)
    with pytest.raises(SymmetryError):
        range_condition_N2(nu, gam)


def test_N2_predicts_c(sys2, theta2, gamma2, rt2):
    _, psi, c, nu = rt2
    pred = range_condition_N2(nu, gamma2)
    assert np.max(np.abs(pred.imag)) <= 1e-8
    np.testing.assert_allclose(pred.real, c, atol=1e-6)


def test_N2_diagonal_theta_predicts_zero(sys2):
    th = ThetaMatrix([[2.0, 0.0], [0.0, 3.0]])
    gam = build_gamma(sys2, th, size=24)
    nu = random_sqrt_vanishing(sys2, modes=8, seed=13)
    pred = range_condition_N2(nu, gam)
    np.testing.assert_allclose(pred, 0.0, atol=1e-15)


def test_two_interval_form_matches_general_path(sys2, theta2, gamma2, rt2):
    _, _, _, nu = rt2
    pred = range_condition_N2(nu, gamma2)
    pred2 = range_condition_two_intervals(nu, gamma2)
    assert np.max(np.abs(pred - pred2)) <= 1e-12


def test_J12_symmetric_agrees_with_N2(sys2, theta2, gamma2, rt2):
    _, _, _, nu = rt2
    predN = range_condition_N2(nu, gamma2)
    predJ = range_condition_J12(nu, gamma2)
    assert np.max(np.abs(predN - predJ)) <= 1e-6


def test_J12_diagonal_zero(sys2):
    th = ThetaMatrix([[2.0, 0.0], [0.0, 3.0]])
    gam = build_gamma(sys2, th, size=24)
    nu = random_sqrt_vanishing(sys2, modes=8, seed=14)
    pred = range_condition_J12(nu, gam)
    np.testing.assert_allclose(pred, 0.0, atol=1e-15)


def test_J12_non_symmetric_round_trip(sys2):
    th = ThetaMatrix([[1.0, 0.4], [0.1, 1.0]])
    phi0 = random_sqrt_vanishing(sys2, modes=14, seed=15)
    psi = forward_map(th, phi0)
    c = compute_c(psi)
    nu = compute_nu(psi, c, th)
    gam = build_gamma(sys2, th, size=96)
    pred = range_condition_J12(nu, gam)
    np.testing.assert_allclose(pred.real, c, atol=1e-5)


def test_integrable_residual_on_round_trip(sys2, theta2, gamma2, rt2):
    _, psi, c, nu = rt2
    out = range_check_L1_variant(psi, c, nu, gamma2)
    assert np.max(np.abs(out["integrable"])) <= 1e-6
    assert out["zero_shift"] is None  # c[psi] != 0 here


def test_zero_shift_residual_on_zero_c_fixture(sys2, theta2, gamma2):
    phi0 = zero_c_combination(sys2, theta2, seeds=(51, 52, 53))
    psi = forward_map(theta2, phi0)
    c = compute_c(psi)
    assert np.max(np.abs(c)) <= 1e-12
    out = range_check_L1_variant(psi, c, compute_nu(psi, c, theta2), gamma2)
    assert out["zero_shift"] is not None
    assert np.max(np.abs(out["zero_shift"])) <= 1e-6
    assert np.max(np.abs(out["integrable"])) <= 1e-6


def test_range_check_zero_input(sys2, theta2, gamma2):
    psi = PiecewiseFunction.zeros(sys2, 8)
    c = compute_c(psi)
    out = range_check_L1_variant(psi, c, compute_nu(psi, c, theta2), gamma2)
    np.testing.assert_allclose(out["integrable"], 0.0, atol=1e-15)


def test_jump_equals_density(gamma2, sys2):
    # Gamma_+ - Gamma_- = -(1/lambda) F(x) g^t(x) with F interpolated off
    # the collocation grid independently of the stored densities
    ns = gamma2.nystrom
    for k, s in ((0, 0.21), (1, -0.47)):
        x = float(sys2.from_unit(k, s))
        jump = gamma2.eval(x, side=+1) - gamma2.eval(x, side=-1)
        w = sys2.weight(k, x)
        F = np.array([
            w * ((-2j if j == k else 0.0)
                 + ns.kernel_apply_smooth(gamma2.F_smooth_nodes[j], k,
                                          np.array([x]))[0] / ns.lam)
            for j in range(2)])
        expect = -np.outer(F, gamma2.g_vector(x)) / gamma2.lam
        np.testing.assert_allclose(jump, expect, atol=1e-8)


def test_gamma_near_a_small_gap_takes_its_density_from_every_node():
    # at gap 0.01 the densities need more than 128 U modes; built from F g^t
    # at all 256 nodes of each interval they resolve, and Gamma_+ = Gamma_- V
    # and det Gamma_+ = 1 hold to rounding
    sys = make_interval_system([(0.0, 1.0), (1.01, 2.01), (2.02, 3.02)])
    gam = build_gamma(sys, ThetaMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3)),
                      size=256)
    assert gam.density_resolution()["gamma_density_capped"] == [False] * 3
    pts = np.concatenate([sys.from_unit(j, np.linspace(-0.9, 0.9, 20))
                          for j in range(sys.n)])
    assert gam.jump_residual(pts) <= 1e-14
    assert np.max(np.abs(gam.det(pts, side=ABOVE) - 1.0)) <= 1e-14


def test_verify_jump_vanishes_for_large_lambda(sys2, theta2):
    gam = build_gamma(sys2, theta2, lam=1e8, size=24)
    pts = interior_points(sys2, 6)
    assert gam.jump_residual(pts) <= 1e-7


def test_compute_nu_propagates_range_error(sys2, theta2):
    from mifht import RangeError
    from mifht.solver import compute_nu as cnu

    psi = PiecewiseFunction.from_callable(sys2, lambda x: np.ones_like(x), N=6)
    with pytest.raises(RangeError):
        cnu(psi, c=np.zeros(2), theta=theta2)  # wrong shift: moment fails


def test_gamma_complex_lambda(sys2, theta2):
    # the lambda-parametrized construction away from the real axis
    gam = build_gamma(sys2, theta2, lam=2.0 + 1.0j, size=48)
    pts = interior_points(sys2, 8)
    assert gam.jump_residual(pts) <= 1e-12
    assert np.max(np.abs(gam.det(pts, side=1) - 1.0)) <= 1e-12
    R = gam.resolvent_matrix()
    ident = (np.eye(gam.nystrom.size) + R) @ gam.nystrom.matrix
    assert np.max(np.abs(ident - np.eye(gam.nystrom.size))) <= 1e-10
