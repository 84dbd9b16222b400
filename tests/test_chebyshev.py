import mpmath
import numpy as np
import pytest

import mifht.chebyshev
from mifht import DomainError, PiecewiseFunction, cheb_eval, cheb_project
from mifht import make_interval_system
from mifht.chebyshev import (
    cheb1_nodes,
    cheb2_nodes,
    chebT_coeffs,
    chebT_integral,
    chebU_coeffs,
    chebU_first_moment,
    chebU_integral,
    chebU_nodal,
    chebU_to_T,
    chop,
    clenshaw_T,
    clenshaw_U,
    exterior_powers,
    fht_plain,
    fht_weighted,
)
from mifht.intervals import ABOVE, BELOW, joukowski_exterior


def test_cheb_project_constant():
    c = cheb_project(lambda x: np.ones_like(x), (-1, 1), N=8)
    np.testing.assert_allclose(c, np.eye(8)[0], atol=1e-14)


def test_cheb_project_linear():
    c = cheb_project(lambda x: x, (-1, 1), N=8)
    expect = np.zeros(8)
    expect[1] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-14)


def test_cheb_project_weighted_tag():
    c = cheb_project(lambda x: np.sqrt(1 - x * x), (-1, 1), N=8, weighted=True)
    np.testing.assert_allclose(c, np.eye(8)[0], atol=1e-13)


def test_cheb_project_requires_two_modes():
    with pytest.raises(ValueError):
        cheb_project(lambda x: x, (-1, 1), N=1)


def test_projection_round_trip_polynomial():
    rng = np.random.default_rng(1)
    coef = rng.standard_normal(12)
    fn = lambda x: clenshaw_T(coef, (x - 0.5) / 1.5)
    c = cheb_project(fn, (-1.0, 2.0), N=16)
    x = np.linspace(-1, 2, 33)
    np.testing.assert_allclose(cheb_eval(c, (-1.0, 2.0), x), fn(x), atol=1e-13)


def test_projection_exact_on_nodes():
    fn = lambda x: np.exp(x)
    c = cheb_project(fn, (0.0, 1.0), N=10)
    nodes = 0.5 + 0.5 * cheb1_nodes(10)
    np.testing.assert_allclose(cheb_eval(c, (0.0, 1.0), nodes), fn(nodes),
                               atol=1e-14)


@pytest.mark.parametrize("coef_field, s", [
    (float, np.linspace(-1.0, 1.0, 41)),
    (complex, np.linspace(-1.0, 1.0, 41)),
    (float, np.array([[0.3 + 2j, -1.5 - 0.5j], [4.0 + 0j, 1j]])),
    (float, 0.3),
])
def test_clenshaw_rounds_as_the_one_expression_recurrence(coef_field, s):
    # the buffered recurrence must give the same bits as the textbook loop
    rng = np.random.default_rng(3)
    b = rng.standard_normal(15)
    if coef_field is complex:
        b = b + 1j * rng.standard_normal(15)
    s = np.asarray(s)
    c0 = c1 = np.zeros(s.shape, dtype=np.result_type(b, s, float))
    for coef in b[::-1]:
        c0, c1 = coef + 2 * s * c0 - c1, c0
    assert np.array_equal(clenshaw_U(b, s), c0)
    assert np.array_equal(clenshaw_T(b, s), c0 - s * c1)
    assert np.shape(clenshaw_U(b, s)) == np.shape(s)


def test_u_coeffs_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(9)
    vals = clenshaw_U(a, cheb2_nodes(9))
    np.testing.assert_allclose(chebU_coeffs(vals), a, atol=1e-13)


@pytest.mark.parametrize("N", [1, 2, 8, 257, 1024])
def test_coefficient_maps_match_direct_sums(N):
    # b_n = (2/N) sum_q v_q cos(n t_q), b_0 halved, and
    # a_k = (2/(N+1)) sum_q v_q sin(t_q) sin((k+1) t_q), with t_q the node
    # angles in descending-node order; two stacked rows, one complex
    rng = np.random.default_rng(N)
    v = rng.standard_normal((2, N)) + 1j * rng.standard_normal((2, N)) * [[0], [1]]
    t1 = np.pi * (np.arange(N) + 0.5) / N
    b = (2.0 / N) * (v[:, ::-1] @ np.cos(np.outer(np.arange(N), t1)).T)
    b[:, 0] *= 0.5
    t2 = np.pi * np.arange(1, N + 1) / (N + 1)
    a = (2.0 / (N + 1)) * ((v[:, ::-1] * np.sin(t2))
                           @ np.sin(np.outer(np.arange(1, N + 1), t2)).T)
    assert np.max(np.abs(chebT_coeffs(v) - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.max(np.abs(chebU_coeffs(v) - a)) <= 1e-12 * np.max(np.abs(a))
    assert np.isrealobj(chebT_coeffs(v[0].real)) and np.isrealobj(chebU_coeffs(v[0].real))


def _u_sum_mpmath(a, N):
    """sum_k a_k sin((k+1) t_q) / sin(t_q) at 40 digits, ascending nodes."""
    with mpmath.workdps(40):
        out = []
        for q in range(N, 0, -1):
            t = mpmath.pi * q / (N + 1)
            out.append(sum(mpmath.mpmathify(complex(ak)) * mpmath.sin((k + 1) * t)
                           for k, ak in enumerate(a)) / mpmath.sin(t))
        return np.array([complex(v) for v in out])


NODAL_CASES = {  # modes K, nodes N, complex coefficients
    "K<N": (9, 32, False),
    "K=N": (33, 33, False),
    "K>N-folded": (150, 40, False),
    "K>>N-folded-twice": (90, 13, False),
    "complex": (60, 64, True),
    "N=1": (7, 1, False),
    "long": (300, 256, False),
}


@pytest.mark.parametrize("case", NODAL_CASES)
def test_chebU_nodal_matches_mpmath(case):
    K, N, cplx = NODAL_CASES[case]
    rng = np.random.default_rng(K * 1000 + N)
    a = rng.standard_normal(K) + (1j * rng.standard_normal(K) if cplx else 0.0)
    ref = _u_sum_mpmath(a, N)
    got = chebU_nodal(a, N)
    assert got.shape == (N,) and np.iscomplexobj(got) == cplx
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _exterior_powers_mpmath(u, K):
    """u^{-(k+1)} for k < K at 40 digits from the double input u."""
    out = np.empty((K,) + u.shape, dtype=complex)
    with mpmath.workdps(40):
        for idx, x in np.ndenumerate(u):
            inv = 1 / mpmath.mpc(complex(x))
            for k in range(K):
                out[(k,) + idx] = complex(inv ** (k + 1))
    return out


def _exterior_points(case):
    s = np.linspace(-0.99, 0.99, 9)
    if case == "cut-above":
        return joukowski_exterior(s, ABOVE)
    if case == "cut-below":
        return joukowski_exterior(s, BELOW)
    if case == "just-off":
        return joukowski_exterior(np.array([1 + 1e-6, -1 - 1e-6]))
    if case == "gap-0.01":  # nodes of I_0 in the unit variable of I_1
        sys = make_interval_system([(-2.0, -0.005), (0.005, 2.0)])
        return joukowski_exterior(sys.to_unit(1, sys.from_unit(0, cheb2_nodes(9))))
    rng = np.random.default_rng(7)
    return joukowski_exterior(rng.standard_normal(6) + 1j * rng.standard_normal(6))


@pytest.mark.parametrize("K", [1, 2, 3, 33, 256])
@pytest.mark.parametrize("case", ["cut-above", "cut-below", "just-off", "gap-0.01",
                                  "off-axis"])
def test_exterior_powers_match_mpmath(case, K):
    u = _exterior_points(case)
    got = exterior_powers(u, K)
    ref = _exterior_powers_mpmath(u, K)
    assert got.shape == (K,) + u.shape
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def test_chebU_nodal_batched_rows():
    # rows of a stacked (2, 3, K) block evaluate like each row alone, and
    # like the Clenshaw sum at the nodes
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3, 20)) + 1j * rng.standard_normal((2, 3, 20))
    got = chebU_nodal(a, 16)
    assert got.shape == (2, 3, 16)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(got[i, j], chebU_nodal(a[i, j], 16))
            ref = clenshaw_U(a[i, j], cheb2_nodes(16))
            assert np.max(np.abs(got[i, j] - ref)) <= 1e-13 * np.max(np.abs(ref))


EPS = np.finfo(float).eps


def test_chop_cuts_a_geometric_series_at_its_eps_plateau():
    rng = np.random.default_rng(3)
    k = np.arange(128)
    c = 0.5 ** k + EPS * rng.uniform(-1.0, 1.0, k.size)
    cut = chop(c)
    # 0.5^k >= 1e3 eps up to k = 42; what is dropped is the plateau
    assert 42 < cut < k.size
    assert np.max(np.abs(c[cut:])) <= 2 * EPS
    # the envelope runs over every leading axis
    block = np.outer([1.0, -3.0, 2.0j], 0.6 ** k) + EPS * rng.uniform(-1.0, 1.0, (3, 128))
    cut = chop(block)
    assert np.nonzero(np.max(np.abs(block), axis=0) >= 1e3 * EPS)[0][-1] < cut
    assert np.max(np.abs(block[:, cut:])) <= 2 * EPS


@pytest.mark.parametrize("coeffs", [
    1.0 / (1.0 + np.arange(200)) ** 2,  # algebraic decay, never near eps
    0.9 ** np.arange(128),  # geometric, but 0.9^127 = 1.6e-6
    np.ones(40),
], ids=["algebraic", "geometric-unresolved", "flat"])
def test_chop_keeps_a_series_with_no_plateau_whole(coeffs):
    assert chop(coeffs) == coeffs.size


def test_chop_is_never_longer_than_its_input_and_never_zero():
    rng = np.random.default_rng(4)
    for n in range(1, 60):
        for c in (rng.standard_normal(n) * 0.3 ** np.arange(n), np.zeros(n),
                  np.eye(n)[-1]):
            assert 1 <= chop(c) <= n
    assert chop(np.zeros(30)) == 1
    assert chop(np.zeros(5)) == 5  # below 17 coefficients nothing is cut


def test_u_to_t_conversion():
    rng = np.random.default_rng(3)
    s = np.linspace(-1, 1, 41)
    for n in (7, 1, 2, 40):
        a = rng.standard_normal(n)
        np.testing.assert_allclose(clenshaw_T(chebU_to_T(a), s), clenshaw_U(a, s),
                                   atol=1e-13)


def test_integrals():
    # int T_0 = 2, int T_2 = -2/3, odd vanish
    assert chebT_integral(np.array([1.0, 0, 0])) == pytest.approx(2.0)
    assert chebT_integral(np.array([0, 1.0, 0])) == pytest.approx(0.0)
    assert chebT_integral(np.array([0, 0, 1.0])) == pytest.approx(-2.0 / 3)
    # int U_0 = 2, int U_1 = 0, int U_2 = 2/3
    assert chebU_integral(np.array([1.0])) == pytest.approx(2.0)
    assert chebU_integral(np.array([0, 1.0])) == pytest.approx(0.0)
    assert chebU_integral(np.array([0, 0, 1.0])) == pytest.approx(2.0 / 3)
    # int s U_1 ds = int (U_2 + U_0)/2 = 4/3 over the pair
    assert chebU_first_moment(np.array([0, 1.0])) == pytest.approx(4.0 / 3)
    # against Gauss-Legendre quadrature of s * sum a_k U_k for a long series
    a = np.random.default_rng(5).standard_normal(30)
    x, w = np.polynomial.legendre.leggauss(40)
    assert chebU_first_moment(a) == pytest.approx(np.sum(w * x * clenshaw_U(a, x)),
                                                  abs=1e-12)


def test_weighted_pv_matches_closed_form():
    # (1/pi) PV int w U_{k-1}/(t-s) = -T_k(s)
    s = np.linspace(-0.9, 0.9, 7)
    for k in (1, 2, 5):
        a = np.zeros(k)
        a[k - 1] = 1.0
        np.testing.assert_allclose(fht_weighted(a, s),
                                   -np.cos(k * np.arccos(s)), atol=1e-13)


def test_weighted_offcut_decay_branch():
    a = np.array([1.0])
    for z in (2.5, -2.5, 1.0 + 1.0j):
        u = z + np.sqrt(complex(z) - 1) * np.sqrt(complex(z) + 1)
        val = fht_weighted(a, np.atleast_1d(z))[0]
        assert val == pytest.approx(-1.0 / u)


def test_plain_pv_recurrence_vs_oracle():
    from mifht import pv_oracle

    rng = np.random.default_rng(4)
    b = rng.standard_normal(10) * 0.5 ** np.arange(10)
    fn = lambda t: clenshaw_T(b, t)
    for s in (-0.62, 0.11, 0.83):
        spectral = np.sum(b * 0) + fht_plain(b, np.array([s]))[0]
        oracle = pv_oracle(fn, (-1, 1), s)
        assert spectral == pytest.approx(oracle, abs=2e-11)


def test_cauchy_plain_offcut_vs_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(5)
    b = rng.standard_normal(8) * 0.6 ** np.arange(8)
    fn = lambda t: clenshaw_T(b, t)
    targets = np.array([1.8, -3.0, 0.5 + 0.8j, 1.02])
    vals = fht_plain(b, targets)
    for tgt, got in zip(targets, vals):
        re = quad(lambda t: (fn(t) / (t - tgt)).real, -1, 1,
                  limit=400, epsabs=1e-13)[0]
        im = quad(lambda t: (fn(t) / (t - tgt)).imag, -1, 1,
                  limit=400, epsabs=1e-13)[0]
        assert got == pytest.approx((re + 1j * im) / np.pi, abs=5e-12)


def _cauchy_plain_references(b, targets):
    """(1/pi) int p(t)/(t - z) dt in mpmath: the closed form where |u| <= 1.05,
    a direct mp.quad elsewhere (p is cached at the shared tanh-sinh nodes)."""
    bm = [mpmath.mpf(float(c)) for c in b]
    cache = {}

    def p(t):
        if t not in cache:
            c0 = c1 = mpmath.mpf(0)
            for c in bm[::-1]:
                c0, c1 = c + 2 * t * c0 - c1, c0
            cache[t] = c0 - t * c1
        return cache[t]

    out = []
    with mpmath.workdps(40):
        for z in map(complex, targets):
            z = mpmath.mpc(z)
            if abs(z + mpmath.sqrt(z - 1) * mpmath.sqrt(z + 1)) > 1.05:
                with mpmath.workdps(20):
                    out.append(complex(mpmath.quad(lambda t: p(t) / (t - z), [-1, 1])
                                       / mpmath.pi))
                continue
            # p(z) log((z-1)/(z+1)) + int (p(t) - p(z))/(t - z) dt as the upward
            # recurrence: it loses at most log10(1.05^150) ~ 3 of the 40 digits
            h_prev = mpmath.log((z - 1) / (z + 1))
            h_cur = 2 + z * h_prev
            val = bm[0] * h_prev + bm[1] * h_cur
            for n in range(1, len(bm) - 1):
                tau = 0 if n % 2 else mpmath.mpf(2) / (1 - n * n)
                h_prev, h_cur = h_cur, 2 * tau + 2 * z * h_cur - h_prev
                val += bm[n + 1] * h_cur
            out.append(complex(val / mpmath.pi))
    return np.array(out)


@pytest.mark.parametrize("deg", [5, 150])
@pytest.mark.parametrize("decay", [0.8, 1.0], ids=["geometric", "flat"])
def test_fht_plain_matches_mpmath_near_and_far_from_the_cut(deg, decay):
    rng = np.random.default_rng(deg)
    b = rng.standard_normal(deg + 1) * decay ** np.arange(deg + 1)
    d = 10.0 ** -np.array([0, 1, 2, 3, 4, 6, 8, 10, 12])
    targets = np.concatenate([1 + d, -1 - d, 0.3 + 1j * d, 0.999 - 1j * d, 3 + 1j * d])
    got = fht_plain(b, targets)
    ref = _cauchy_plain_references(b, targets)
    scale = np.maximum(1.0, np.abs(ref)) if decay < 1 else np.sum(np.abs(b))
    assert np.max(np.abs(got - ref) / scale) <= 1e-13


def test_piecewise_eval_and_norm():
    sys = make_interval_system([(-2, -1), (1, 2)])
    pf = PiecewiseFunction.from_callable(sys, lambda x: x ** 2, N=8)
    x = np.array([-1.5, 1.25])
    np.testing.assert_allclose(pf(x), x ** 2, atol=1e-13)
    # ||x^2||_{L^2}^2 = int_{-2}^{-1} + int_1^2 x^4 = 2*(31/5)
    assert pf.norm2() == pytest.approx(np.sqrt(2 * 31.0 / 5), rel=1e-12)
    # weighted and complex pieces, long and short, against a Gauss-Legendre
    # rule that integrates |piece|^2 (a polynomial of degree 2N) exactly
    sys = make_interval_system([(-3, -2.5), (1, 4)])
    rng = np.random.default_rng(9)
    xg, wg = np.polynomial.legendre.leggauss(260)
    for weighted in (False, True):
        for modes in (1, 7, 200):
            for imag in (0.0, 1.0):
                coeffs = [rng.standard_normal(modes) + imag * 1j * rng.standard_normal(modes)
                          for _ in range(2)]
                pf = PiecewiseFunction(sys, coeffs, weighted=weighted)
                for j in range(2):
                    v = pf.piece_values(j, sys.from_unit(j, xg))
                    ref = np.sqrt(sys.half[j] * np.sum(wg * np.abs(v) ** 2))
                    assert abs(pf.piece_norm2(j) - ref) <= 1e-13 * ref


def test_piece_norms_are_taken_once_per_function(monkeypatch):
    sys = make_interval_system([(-2, -1), (1, 2)])
    pf = PiecewiseFunction.from_callable(sys, lambda x: x ** 2, N=8)
    calls = []
    norm = mifht.chebyshev._unit_l2_squared

    def counted(c, weighted):
        calls.append(c)
        return norm(c, weighted)

    monkeypatch.setattr(mifht.chebyshev, "_unit_l2_squared", counted)
    parts = [pf.piece_norm2(j) for j in range(2)]
    assert pf.norm2() == np.sqrt(sum(p ** 2 for p in parts)) == pf.norm2()
    assert len(calls) == 2
    assert all(c is pc for c, pc in zip(calls, pf.coeffs))


def test_piecewise_outside_domain():
    sys = make_interval_system([(-1, 1)])
    pf = PiecewiseFunction.zeros(sys, 4)
    with pytest.raises(DomainError):
        pf(np.array([3.0]))


def test_piecewise_arithmetic_and_shift():
    sys = make_interval_system([(-1, 1), (2, 3)])
    f = PiecewiseFunction.from_callable(sys, lambda x: x, N=6)
    g = PiecewiseFunction.from_callable(sys, lambda x: 1 + 0 * x, N=4)
    h = f + 2.0 * g
    x = np.array([0.5, 2.5])
    np.testing.assert_allclose(h(x), x + 2, atol=1e-13)
    shifted = h.shift_piece_constants([2.0, 2.0])
    np.testing.assert_allclose(shifted(x), x, atol=1e-13)


def test_weighted_real_field_detected():
    sys = make_interval_system([(-1, 1)])
    pf = PiecewiseFunction(sys, [np.array([1.0, -0.5])], weighted=True)
    assert pf.field == "real"
    vals = pf(np.array([0.3]))
    assert vals.dtype == np.float64


def test_from_samples_projection():
    sys = make_interval_system([(0, 2)])
    x = np.linspace(0.05, 1.95, 40)
    pf = PiecewiseFunction.from_samples(sys, [x], [np.cos(x)], N=16)
    xs = np.linspace(0.1, 1.9, 17)
    np.testing.assert_allclose(pf(xs), np.cos(xs), atol=1e-10)
