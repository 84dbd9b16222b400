import mpmath
import numpy as np
import pytest
from scipy.special import expit

from mifht import (
    PiecewiseFunction,
    RangeExceededError,
    RangeViolationError,
    fht_forward,
    fht_invert,
    make_interval_system,
    multi_radical_sqrt,
    pv_oracle,
)
from mifht.errors import NonPositiveEigenvalueError
from mifht.solver import random_sqrt_vanishing
from mifht.uniform import (
    NEWTON_MAX_ITER,
    TABLE_LIMIT,
    ChannelVector,
    TGrid,
    apply_T,
    apply_T_inverse,
    build_M,
    build_spectral_data,
    forward_ft,
    inverse_ft,
    inverse_ft_at,
    phi_inverse,
    uniform_forward,
    uniform_invert,
    uniform_invert_with_verdict,
    uniform_range_check,
)
from mifht.chebyshev import cheb1_nodes, cheb2_nodes, clenshaw_T, clenshaw_U

GRID = TGrid(npoints=4096, dt=1.0 / 64.0)


@pytest.fixture(scope="module")
def sd1(sys1):
    return build_spectral_data(sys1)


@pytest.fixture(scope="module")
def sd2(sys2):
    return build_spectral_data(sys2)


@pytest.fixture(scope="module")
def sd3(sys3):
    return build_spectral_data(sys3)


# -- spectral data ---------------------------------------------------------------


def test_n1_closed_forms(sd1):
    assert sd1.bezout == pytest.approx(np.array([[2.0]]))
    assert sd1.rho[0] == pytest.approx(2.0)
    assert abs(sd1.omega[0, 0]) == pytest.approx(1.0)
    assert sd1.q_eval(np.array([0.3]))[0] == pytest.approx(2.0)
    # phi = log((1-x)/(1+x))
    x = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(sd1.phi(x), np.log((1 - x) / (1 + x)), atol=1e-14)


def test_bezout_symmetric_and_positive(sd2, sd3):
    for sd in (sd2, sd3):
        np.testing.assert_array_equal(sd.bezout, sd.bezout.T)
        assert np.all(sd.rho > 0)
        omega = sd.omega
        np.testing.assert_allclose(omega @ omega.T, np.eye(omega.shape[0]),
                                   atol=1e-12)
        np.testing.assert_allclose(
            omega.T @ np.diag(sd.rho) @ omega, sd.bezout, atol=1e-12)


def test_q_positive_on_intervals(sd2, sd3):
    for sd in (sd2, sd3):
        for k in range(sd.sys.n):
            x = sd.sys.from_unit(k, np.linspace(-0.999, 0.999, 101))
            assert np.all(sd.q_eval(x) > 0)


def test_phi_monotone_decreasing(sd2):
    for k in range(2):
        x = sd2.sys.from_unit(k, np.linspace(-0.99, 0.99, 51))
        assert np.all(np.diff(sd2.phi(x)) < 0)
        assert np.all(sd2.phi_prime(x) < 0)


def test_nonpositive_eigenvalue_never_for_valid_systems():
    # interlacing endpoints force a definite Bezout matrix; spot check a few
    for pts in ([(-1, 1)], [(-5, -4), (0, 1)], [(0, 1), (2, 3), (5, 9)]):
        build_spectral_data(make_interval_system(pts))


# -- inverse map -------------------------------------------------------------------


def test_phi_inverse_examples(sd1):
    assert phi_inverse(sd1, 0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert phi_inverse(sd1, 0, 1.0) == pytest.approx(-np.tanh(1.0), abs=1e-14)


def test_phi_inverse_residual(sd2):
    # |phi(x) - 2t| small wherever the naive phi evaluation is trustworthy
    for k in range(2):
        t = np.linspace(-3.5, 3.5, 31)
        x = sd2.inverse_map(k, t)["x"]
        assert np.max(np.abs(sd2.phi(x) - 2 * t)) <= 1e-12


def test_phi_inverse_tail_distances(sd1):
    # exact closed form for [-1, 1]: dist_a = 2 e^{-2t} / (1 + e^{-2t})
    t = np.array([6.0, 10.0, 18.0, 25.0])
    m = sd1.inverse_map(0, t)
    expect = 2 * np.exp(-2 * t) / (1 + np.exp(-2 * t))
    np.testing.assert_allclose(m["dist_a"], expect, rtol=1e-13)


def test_phi_inverse_monotone(sd2):
    t = np.linspace(-4, 4, 41)
    for k in range(2):
        x = sd2.inverse_map(k, t)["x"]
        assert np.all(np.diff(x) < 0)  # phi decreasing => inverse decreasing


def test_phi_inverse_distances_match_mpmath():
    # 40-digit root zeta of phi(alpha_k + L expit(zeta)) = 2t; gaps down to 0.01
    sys = make_interval_system([(-3, -1.5), (-1.49, 0.2), (0.21, 1.0), (1.05, 4.0)])
    sd = build_spectral_data(sys)
    t = np.arange(-32, 33) / 4.0
    with mpmath.workdps(40):
        alpha = [mpmath.mpf(v) for v in sys.alpha]
        beta = [mpmath.mpf(v) for v in sys.beta]

        def phi(x):
            return sum(mpmath.log(abs((x - bj) / (x - aj)))
                       for aj, bj in zip(alpha, beta))

        for k in range(sys.n):
            length = beta[k] - alpha[k]
            expect = []
            for tq in t:
                zeta = mpmath.findroot(
                    lambda z: phi(alpha[k] + length / (1 + mpmath.exp(-z))) - 2 * tq,
                    (-40, 40), solver="anderson")
                expect.append([float(length / (1 + mpmath.exp(s * zeta)))
                               for s in (-1, 1)])
            m = sd.inverse_map(k, t)
            got = np.stack([m["dist_a"], m["dist_b"]], axis=1)
            np.testing.assert_allclose(got, np.array(expect), rtol=1e-13)


def _all_points_newton(sd, k, t):
    """(dist_a, dist_b, |phi'|) from rtsafe Newton in zeta on every point.

    The plain form of ``inverse_map``: h as a sum of logs, two logistic
    calls per step, the bracket midpoint as start, and every point iterated
    until all pass the residual test.
    """
    sys = sd.sys
    y = 2.0 * np.asarray(t, dtype=float)
    a, b = sys.alpha[k], sys.beta[k]
    length = b - a
    others = [j for j in range(sys.n) if j != k]

    def h(x):
        out = np.zeros(np.shape(x))
        for j in others:
            out += np.log((x - sys.beta[j]) / (x - sys.alpha[j]))
        return out

    def place(zeta):
        dist_a, dist_b = length * expit(zeta), length * expit(-zeta)
        return dist_a, dist_b, np.where(zeta < 0.0, a + dist_a, b - dist_b)

    lo = h(a) - y - 1.0
    hi = h(b) - y + 1.0
    zeta = 0.5 * (lo + hi)
    for _ in range(NEWTON_MAX_ITER):
        dist_a, dist_b, x = place(zeta)
        hx = h(x)
        g = hx - zeta - y
        hp = sum((sys.beta[j] - sys.alpha[j])
                 / ((x - sys.beta[j]) * (x - sys.alpha[j])) for j in others)
        lo = np.where(g > 0.0, zeta, lo)
        hi = np.where(g > 0.0, hi, zeta)
        new = zeta - g / (hp * dist_a * dist_b / length - 1.0)
        new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
        done = np.abs(g) <= 1e-13 * (1.0 + np.abs(hx) + np.abs(y))
        zeta = new
        if np.all(done):
            break
    dist_a, dist_b, x = place(zeta)
    rest = np.ones(y.shape)
    for j in others:
        rest *= np.abs(x - sys.alpha[j]) * np.abs(x - sys.beta[j])
    return dist_a, dist_b, sd.q_eval(x) / (dist_a * dist_b * rest)


@pytest.mark.parametrize("pts", [
    [(-1.0, 1.0)],
    [(-2.0, -1.0), (1.0, 2.5)],
    [(-3.0, -2.0), (-1.0, 0.0), (1.0, 3.0)],
    [(-3, -1.5), (-1.49, 0.2), (0.21, 1.0), (1.05, 4.0)],
    [(-1.0, -5e-5), (5e-5, 1.0), (1.5, 2.5)],          # gap 1e-4
], ids=["n1", "n2", "n3", "n4-tight", "gap-1e-4"])
def test_inverse_map_matches_all_points_newton(pts):
    sd = build_spectral_data(make_interval_system(pts))
    half = TABLE_LIMIT / 2.0
    t = np.concatenate([GRID.t, np.linspace(-half, half, 2001)])
    for k in range(sd.sys.n):
        m = sd.inverse_map(k, t)
        ref = _all_points_newton(sd, k, t)
        # both solve for zeta to the same residual test, so they agree to a
        # few roundings of zeta, which dist and |phi'| carry relatively; that
        # is also how far each is from a 60-digit root (~6e-14 at |2t| = 400)
        zeta = np.log(ref[0] / ref[1])
        rtol = 1e-14 * (1.0 + np.abs(zeta))
        for key, r in zip(("dist_a", "dist_b", "absphip"), ref):
            assert np.all(np.abs(m[key] - r) <= rtol * r), key


def test_phi_inverse_range_exceeded(sd1):
    with pytest.raises(RangeExceededError):
        sd1.inverse_map(0, np.array([300.0]))


# -- transforms on the line ----------------------------------------------------------


def test_fourier_conventions_gaussian():
    g = np.exp(-GRID.t ** 2 / 2)
    spec = forward_ft(GRID, g)
    np.testing.assert_allclose(spec, np.sqrt(2 * np.pi) * np.exp(-GRID.lam ** 2 / 2),
                               atol=1e-13)
    np.testing.assert_allclose(inverse_ft(GRID, spec), g, atol=1e-14)
    at = inverse_ft_at(GRID, spec, np.array([0.37, -2.11]))
    np.testing.assert_allclose(at, np.exp(-np.array([0.37, -2.11]) ** 2 / 2),
                               atol=1e-13)


@pytest.mark.parametrize("grid, shape", [
    (GRID, (3, 4096)),
    (GRID, (4096,)),
    (TGrid(npoints=1000, dt=1.0 / 16.0), (1000,)),  # P not a square
    (TGrid(npoints=1023, dt=1.0 / 16.0), (2, 1023)),  # odd P
])
def test_inverse_ft_at_matches_direct_sum(grid, shape):
    rng = np.random.default_rng(7)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tmax = grid.tmax
    t = np.concatenate([[0.0, -tmax, tmax, grid.t[0], grid.t[-1]],
                        rng.uniform(-tmax, tmax, 40)])
    direct = grid.dlam / (2 * np.pi) * (spec @ np.exp(-1j * np.outer(grid.lam, t)))
    got = inverse_ft_at(grid, spec, t)
    assert got.shape == direct.shape
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_apply_T_constant_is_sech(sd1):
    one = PiecewiseFunction.from_callable(sd1.sys, lambda x: np.ones_like(x), N=6)
    cv = apply_T(sd1, one, GRID)
    np.testing.assert_allclose(cv.data[0] * np.cosh(GRID.t), 1.0, rtol=1e-12)


@pytest.mark.parametrize("weighted", [True, False], ids=["U", "T"])
@pytest.mark.parametrize("field", [float, complex])
def test_apply_T_matches_clenshaw_at_every_point(sd2, weighted, field):
    tab = sd2.tables(GRID)
    ends = np.abs(tab["s"]) == 1.0
    assert np.all(np.mean(ends, axis=1) >= 0.4)  # the end-value rule runs
    rng = np.random.default_rng(47)
    coeffs = [rng.standard_normal(12) for _ in range(2)]
    if field is complex:
        coeffs = [c + 1j * rng.standard_normal(12) for c in coeffs]
    f = PiecewiseFunction(sd2.sys, coeffs, weighted=weighted)
    got = apply_T(sd2, f, GRID).data
    n = np.arange(12)
    for k, c in enumerate(coeffs):
        m = tab["maps"][k]
        s = (m["dist_a"] - m["dist_b"]) / (2.0 * sd2.sys.half[k])
        factor = np.sqrt(2.0) * sd2.sgn_odd[k] / np.sqrt(m["absphip"])
        if weighted:
            factor = factor * np.sqrt(m["dist_a"] * m["dist_b"])
            direct, size = clenshaw_U(c, s), np.sum(np.abs(c) * (n + 1))
        else:
            direct, size = clenshaw_T(c, s), np.sum(np.abs(c))
        # relative to the size of the terms (the conditioning of the sum),
        # point by point: an end value sum a_k (k + 1) can cancel far below it
        err = np.abs(got[k] - factor * direct)
        assert np.all(err <= 1e-14 * size * np.abs(factor))


def test_apply_T_zero(sd2):
    z = PiecewiseFunction.zeros(sd2.sys, 6, weighted=True)
    cv = apply_T(sd2, z, GRID)
    assert cv.norm() == 0.0


def test_apply_T_isometry(sd2):
    for seed in (31, 32, 33):
        f = random_sqrt_vanishing(sd2.sys, modes=14, seed=seed)
        cv = apply_T(sd2, f, GRID)
        assert abs(cv.norm() - f.norm2()) <= 1e-8 * f.norm2()


def test_apply_T_inverse_on_grid(sd2):
    # T^{-1} T = id on grid points; compare where x is resolvable away from
    # the endpoints (the tails agree by construction but x itself rounds)
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=34)
    cv = apply_T(sd2, f, GRID)
    back = apply_T_inverse(sd2, cv)
    tab = sd2.tables(GRID)
    window = np.abs(GRID.t) <= 8.0
    for k in range(2):
        fx = f(tab["x"][k][window])
        np.testing.assert_allclose(back[k][window], fx,
                                   atol=1e-12 * (1 + np.abs(fx).max()))


def test_apply_T_inverse_at_points(sd2):
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=35)
    cv = apply_T(sd2, f, GRID)
    x = np.concatenate([sd2.sys.from_unit(j, np.linspace(-0.8, 0.8, 7))
                        for j in range(2)])
    vals = apply_T_inverse(sd2, cv, points=x)
    np.testing.assert_allclose(vals.real, f(x), atol=1e-9)


# -- mixing matrix -------------------------------------------------------------------


@pytest.mark.parametrize("nsys", [1, 2, 3])
def test_M_orthogonal(nsys, sd1, sd2, sd3):
    sd = {1: sd1, 2: sd2, 3: sd3}[nsys]
    t = np.linspace(-8, 8, 50)
    M = build_M(sd, t)
    prod = np.einsum("pji,pjk->pik", M, M)
    eye = np.tile(np.eye(sd.sys.n), (t.size, 1, 1))
    assert np.max(np.abs(prod - eye)) <= 1e-10


@pytest.mark.parametrize("nodes", [cheb1_nodes, cheb2_nodes])
def test_mixing_column_matches_build_M(sd3, nodes):
    for k in range(3):
        x = sd3.sys.from_unit(k, nodes(40))
        M = build_M(sd3, 0.5 * sd3.phi(x))
        assert np.max(np.abs(sd3.mixing_column(x) - M[:, :, k].T)) <= 1e-12


def test_M_n1_is_unit(sd1):
    assert abs(build_M(sd1, 0.7)[0, 0]) == pytest.approx(1.0, abs=1e-14)


def test_M_continuous_in_t(sd2):
    t = np.linspace(-2, 2, 401)
    M = build_M(sd2, t)
    increments = np.abs(np.diff(M, axis=0)).max()
    assert increments <= 0.05  # smooth columns, no branch flips


# -- forward / inverse ----------------------------------------------------------------


def test_uniform_forward_n1_matches_single(sd1):
    f = random_sqrt_vanishing(sd1.sys, modes=16, seed=36)
    g = uniform_forward(sd1, f, GRID)
    x = np.linspace(-0.95, 0.95, 33)
    assert np.max(np.abs(g(x) - np.real(fht_forward(f, x)))) <= 1e-6


def test_uniform_forward_weight_function(sd1):
    f = PiecewiseFunction.from_callable(sd1.sys, lambda x: np.sqrt(1 - x * x),
                                        N=8, weighted=True)
    g = uniform_forward(sd1, f, GRID)
    x = np.linspace(-0.9, 0.9, 11)
    np.testing.assert_allclose(g(x), -x, atol=1e-10)


def test_uniform_forward_zero(sd2):
    z = PiecewiseFunction.zeros(sd2.sys, 6, weighted=True)
    g = uniform_forward(sd2, z, GRID)
    assert g.norm2() <= 1e-14


def test_uniform_forward_vs_pv_quadrature(sd2):
    # the multi-interval transform is the sum of per-interval PV/ordinary
    # Cauchy integrals; compare at scattered interior points
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=37)
    g = uniform_forward(sd2, f, GRID)
    rng = np.random.default_rng(38)
    for _ in range(6):
        j = int(rng.integers(0, 2))
        x = float(sd2.sys.from_unit(j, rng.uniform(-0.85, 0.85)))
        direct = 0.0
        for k in range(2):
            fk = lambda t: float(f(np.atleast_1d(t))[0])
            if k == j:
                direct += pv_oracle(fk, sd2.sys.endpoints[k], x)
            else:
                direct += float(np.real(fht_forward(f, np.atleast_1d(x), j=k))[0])
        assert g(np.atleast_1d(x))[0] == pytest.approx(direct, abs=1e-4)


def test_uniform_round_trip_n1(sd1):
    f = random_sqrt_vanishing(sd1.sys, modes=12, seed=39)
    g = uniform_forward(sd1, f, GRID)
    back = uniform_invert(sd1, g, GRID)
    x = np.linspace(-0.95, 0.95, 31)
    rel = np.max(np.abs(back(x) - f(x))) / np.max(np.abs(f(x)))
    assert rel <= 1e-4
    # inverse of -x is the weight function
    gx = PiecewiseFunction.from_callable(sd1.sys, lambda x: -x, N=6)
    w = uniform_invert(sd1, gx, GRID)
    np.testing.assert_allclose(w(x), np.sqrt(1 - x * x), atol=1e-6)


def test_uniform_round_trip_n2(sd2):
    f = random_sqrt_vanishing(sd2.sys, modes=14, seed=40)
    g = uniform_forward(sd2, f, GRID)
    back = uniform_invert(sd2, g, GRID)
    x = np.concatenate([sd2.sys.from_unit(j, np.linspace(-0.95, 0.95, 21))
                        for j in range(2)])
    rel = np.max(np.abs(back(x) - f(x))) / np.max(np.abs(f(x)))
    assert rel <= 1e-4


def test_uniform_invert_zero(sd2):
    z = PiecewiseFunction.zeros(sd2.sys, 6)
    out = uniform_invert(sd2, z, GRID)
    assert out.norm2() <= 1e-14


# -- range check ------------------------------------------------------------------------


def test_range_check_constant_fails(sd1, sd2):
    for sd in (sd1, sd2):
        one = PiecewiseFunction.from_callable(sd.sys,
                                              lambda x: np.ones_like(x), N=6)
        verdict = uniform_range_check(sd, one, GRID)
        assert verdict["pass"] is False
        with pytest.raises(RangeViolationError):
            uniform_invert(sd, one, GRID)


def test_range_check_forward_image_passes(sd2):
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=42)
    g = uniform_forward(sd2, f, GRID)
    verdict = uniform_range_check(sd2, g, GRID)
    assert verdict["pass"] is True
    assert np.all(verdict["dc_energy"] <= verdict["tolerance"])


def test_invert_verdict_is_the_range_check(sd2):
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=42)
    g = uniform_forward(sd2, f, GRID)
    back, verdict = uniform_invert_with_verdict(sd2, g, GRID)
    ref = uniform_range_check(sd2, g, GRID)
    assert verdict["pass"] is ref["pass"] is True
    for key in ("dc_energy", "windowed_energy", "tolerance"):
        np.testing.assert_array_equal(verdict[key], ref[key])
    x = sd2.sys.from_unit(1, np.linspace(-0.9, 0.9, 7))
    np.testing.assert_array_equal(back(x), uniform_invert(sd2, g, GRID)(x))


def test_range_check_zero_passes(sd2):
    z = PiecewiseFunction.zeros(sd2.sys, 6)
    assert uniform_range_check(sd2, z, GRID)["pass"] is True


# -- operator identities -------------------------------------------------------------


def test_sinh_convolution_matches_multiplier(sd1):
    # direct staggered-grid quadrature of int cv(t) / (pi sinh(s - t)) dt
    # against the Fourier route i tanh(pi lam / 2)
    f = random_sqrt_vanishing(sd1.sys, modes=8, seed=43)
    cv = apply_T(sd1, f, GRID)
    spec = forward_ft(GRID, cv.data)
    mult = 1j * np.tanh(np.pi * GRID.lam / 2.0)
    out_spec = mult[None, :] * spec
    s_pts = GRID.t[2000:2006] + 0.5 * GRID.dt  # staggered: kernel regular
    fourier_vals = inverse_ft_at(GRID, out_spec[0], s_pts)
    for s, fv in zip(s_pts, fourier_vals):
        direct = np.sum(cv.data[0] / (np.pi * np.sinh(s - GRID.t))) * GRID.dt
        assert fv == pytest.approx(direct, abs=1e-6)


def test_diagonalization_identity(sd2):
    # T H T^{-1} = M^T K M on the grid, applied to a channel vector coming
    # from a smooth function (truncation-limited tolerance)
    f = random_sqrt_vanishing(sd2.sys, modes=10, seed=44)
    cv = apply_T(sd2, f, GRID)
    tab = sd2.tables(GRID)
    # right side: M^T K M cv
    mixed = np.einsum("jkp,kp->jp", tab["mix"], cv.data)
    spec = forward_ft(GRID, mixed)
    conv = inverse_ft(GRID, 1j * np.tanh(np.pi * GRID.lam / 2.0)[None, :] * spec)
    rhs = np.einsum("jkp,jp->kp", tab["mix"], conv)
    # left side: T applied to H f (spectral single-interval forward map),
    # restricted to the window where the grid x values are resolvable
    window = np.abs(GRID.t) <= 8.0
    lhs = np.zeros((2, int(window.sum())))
    for k in range(2):
        x = tab["x"][k][window]
        acc = np.zeros(x.size, dtype=complex)
        for j in range(2):
            acc += fht_forward(f, x, j=j)
        m = tab["maps"][k]
        lhs[k] = (np.sqrt(2.0) * sd2.sgn_odd[k] * np.real(acc)
                  / np.sqrt(m["absphip"][window]))
    assert np.max(np.abs(lhs - rhs[:, window])) <= 1e-4


def test_isometry_chain(sd2):
    f = random_sqrt_vanishing(sd2.sys, modes=12, seed=45)
    cv = apply_T(sd2, f, GRID)
    tab = sd2.tables(GRID)
    mixed = np.einsum("jkp,kp->jp", tab["mix"], cv.data)
    spec = forward_ft(GRID, mixed)
    norm_spec = np.sqrt(np.sum(np.abs(spec) ** 2) * GRID.dlam / (2 * np.pi))
    assert abs(norm_spec - f.norm2()) <= 1e-6 * f.norm2()


def test_sinh_identity_bezout(sys2, sd2):
    rng = np.random.default_rng(46)
    for _ in range(100):
        j, k = rng.integers(0, 2, 2)
        x = float(sys2.from_unit(j, rng.uniform(-0.99, 0.99)))
        z = float(sys2.from_unit(k, rng.uniform(-0.99, 0.99)))
        lhs = 2 * np.sinh((sd2.phi(x) - sd2.phi(z)) / 2.0)
        zrow = np.array([1.0, z])
        xrow = np.array([1.0, x])
        rhs = (x - z) * (zrow @ sd2.bezout @ xrow) / multi_radical_sqrt(sys2, x, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_channel_vector_norm_and_boundary():
    data = np.zeros((1, GRID.npoints))
    data[0, GRID.npoints // 2] = 1.0
    cv = ChannelVector(grid=GRID, data=data)
    assert cv.norm() == pytest.approx(np.sqrt(GRID.dt))
    assert cv.boundary_fraction() == 0.0


def test_sinh_identity_coincidence_limit(sys2, sd2):
    # slope matching as z -> x: 2 sinh((phi(x)-phi(z))/2) ~ -phi'(x) (z - x)
    # must agree with the Bezout form against the sign-resolved square root
    for x in (-1.4, 1.6):
        eps = 1e-7
        z = x + eps
        lhs = 2 * np.sinh((sd2.phi(x) - sd2.phi(z)) / 2.0)
        rhs = ((x - z) * (np.array([1.0, z]) @ sd2.bezout @ np.array([1.0, x]))
               / multi_radical_sqrt(sys2, x, z))
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_spectral_data_general_interval():
    sys = make_interval_system([(2.0, 5.0)])
    sd = build_spectral_data(sys)
    assert sd.bezout[0, 0] == pytest.approx(3.0)  # beta - alpha
    assert sd.rho[0] == pytest.approx(3.0)
    assert sd.q_eval(np.array([3.7]))[0] == pytest.approx(3.0)
    assert abs(build_M(sd, 1.3)[0, 0]) == pytest.approx(1.0)
