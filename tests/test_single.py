import numpy as np
import pytest

from mifht import (
    DomainError,
    PiecewiseFunction,
    RangeError,
    fht_forward,
    fht_invert,
    invert_with_kappa,
    make_interval_system,
    pv_oracle,
    range_scan,
)
from mifht.chebyshev import cheb1_nodes
from mifht.intervals import ABOVE, BELOW


@pytest.fixture(scope="module")
def unit():
    return make_interval_system([(-1.0, 1.0)])


def weight_fn(x):
    return np.sqrt(1.0 - x * x)


def random_weighted(sys, modes, seed, decay=0.7):
    rng = np.random.default_rng(seed)
    coeffs = [rng.standard_normal(modes) * decay ** np.arange(modes)
              for _ in range(sys.n)]
    return PiecewiseFunction(sys, coeffs, weighted=True, field="real")


def resample_plain(pf, j=0, n=None):
    """Plain projection of single-interval forward data."""
    sys = pf.sys
    n = n or pf.coeffs[j].shape[0] + 2
    nodes = sys.from_unit(j, cheb1_nodes(n))
    vals = np.real(fht_forward(pf, nodes, j=j))
    sub = make_interval_system([sys.endpoints[j]])
    return PiecewiseFunction.from_smooth_values(sub, [vals], weighted=False)


# -- forward ---------------------------------------------------------------


def test_forward_weight_is_minus_x(unit):
    f = PiecewiseFunction.from_callable(unit, weight_fn, N=8, weighted=True)
    assert fht_forward(f, 0.3) == pytest.approx(-0.3, abs=1e-14)


def test_forward_zero(unit):
    f = PiecewiseFunction.zeros(unit, 8, weighted=True)
    pts = np.array([0.5, 2.0, 1j])
    np.testing.assert_allclose(fht_forward(f, pts), 0.0, atol=0)


def test_forward_constant_log(unit):
    one = PiecewiseFunction.from_callable(unit, lambda x: np.ones_like(x), N=6)
    assert fht_forward(one, 0.5) == pytest.approx(np.log(1 / 3) / np.pi,
                                                  abs=1e-13)


def test_forward_endpoint_rejected(unit):
    f = PiecewiseFunction.from_callable(unit, weight_fn, N=8, weighted=True)
    with pytest.raises(DomainError):
        fht_forward(f, 1.0)


def test_forward_oracle_equivalence(unit):
    f = random_weighted(unit, 24, seed=11)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.95, 0.95, 50)
    spectral = fht_forward(f, pts)
    fn = lambda t: float(f(np.atleast_1d(t))[0])
    for x, got in zip(pts, spectral):
        assert got == pytest.approx(pv_oracle(fn, (-1, 1), x), abs=1e-9)


def test_forward_plain_oracle_equivalence(unit):
    rng = np.random.default_rng(13)
    b = rng.standard_normal(10) * 0.6 ** np.arange(10)
    pf = PiecewiseFunction(unit, [b], weighted=False)
    for x in (-0.7, 0.05, 0.81):
        oracle = pv_oracle(lambda t: pf(np.atleast_1d(t))[0], (-1, 1), x)
        assert fht_forward(pf, x) == pytest.approx(oracle, abs=1e-10)


def test_forward_side_values_plemelj(unit):
    f = random_weighted(unit, 12, seed=14)
    x = 0.37
    pv = fht_forward(f, x)
    above = fht_forward(f, x, side=ABOVE)
    below = fht_forward(f, x, side=BELOW)
    assert 0.5 * (above + below) == pytest.approx(pv, abs=1e-13)
    assert (above - below) == pytest.approx(2j * f(np.atleast_1d(x))[0],
                                            abs=1e-13)


def test_forward_plain_offcut_tends_to_the_boundary_values(unit):
    # H[f](s + i side d) -> H[f](s, side) as d -> 0, with a gap of about
    # |dH/dz| d: the Cauchy transform has bounded derivative near an interior s.
    # Both classes: plain exp, and weighted w exp
    plain = PiecewiseFunction.from_callable(unit, np.exp, N=20)
    weighted = PiecewiseFunction.from_callable(unit, lambda x: weight_fn(x) * np.exp(x),
                                               N=20, weighted=True)
    for f in (plain, weighted):
        for s in (-0.6, 0.3, 0.85):
            for side in (ABOVE, BELOW):
                boundary = fht_forward(f, s, side=side)
                for d in 10.0 ** -np.arange(2, 13):
                    gap = abs(fht_forward(f, s + side * 1j * d) - boundary)
                    assert gap <= 10.0 * d


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("side", [None, ABOVE, BELOW])
def test_forward_mixed_real_and_complex_points_match_separate_calls(weighted, side):
    # a complex array whose real points lie on the cut keeps the PV or the
    # side asked for at those points: each pair [x, z] gives the values of
    # the calls at x and at z alone, and a longer mixed array those of the
    # calls on its real and its complex points.  Bit for bit for the weighted
    # class; the plain recurrence divides in complex arithmetic once the
    # array is complex, so there the values agree to rounding
    sys = make_interval_system([(1.0, 3.0), (4.0, 5.0)])
    f = (random_weighted(sys, 12, seed=21) if weighted
         else PiecewiseFunction.from_callable(sys, np.cos, N=12))

    def check(got, want):
        if weighted:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    real = sys.from_unit(0, np.array([-0.8, -0.2, 0.3, 0.9]))
    cplx = real + np.array([1e-3j, -1e-6j, 0.5j, -2j])
    for x, z in zip(real, cplx):
        pair = fht_forward(f, np.array([x, z]), side=side)
        check(pair, [fht_forward(f, x, side=side), fht_forward(f, z, side=side)])
    mixed = fht_forward(f, np.concatenate([real, cplx]), side=side)
    check(mixed, np.concatenate([fht_forward(f, real, side=side),
                                 fht_forward(f, cplx, side=side)]))


def test_forward_reality_on_interval(unit):
    f = random_weighted(unit, 16, seed=15)
    vals = fht_forward(f, np.linspace(-0.9, 0.9, 11))
    assert np.isrealobj(vals)


# -- range scan --------------------------------------------------------------


def test_range_scan_odd_function(unit):
    g = PiecewiseFunction.from_callable(unit, lambda x: x, N=8)
    rd = range_scan(g)
    assert rd.m0 == pytest.approx(0.0, abs=1e-15)
    assert rd.c == pytest.approx(0.0, abs=1e-15)


def test_range_scan_constant(unit):
    g = PiecewiseFunction.from_callable(unit, lambda x: np.ones_like(x), N=8)
    rd = range_scan(g)
    assert rd.c == pytest.approx(1.0)
    assert rd.m0 == pytest.approx(-1j * np.pi)


def test_range_scan_arcsine_mean_is_midpoint():
    sys = make_interval_system([(0.0, 2.0)])
    g = PiecewiseFunction.from_callable(sys, lambda x: x, N=8)
    assert range_scan(g).c == pytest.approx(1.0)


def test_range_scan_weighted_against_quadrature(unit):
    # c = (1/pi) int f / w dx and kappa = -(1/pi) int t (f - c)/R_+ dt,
    # checked against adaptive quadrature for a weighted-tag function
    from scipy.integrate import quad

    f = random_weighted(unit, 10, seed=16)
    rd = range_scan(f)
    smooth = lambda t: float(f.piece_smooth(0, np.atleast_1d(t))[0])
    c_quad = quad(smooth, -1, 1, limit=200)[0] / np.pi
    assert rd.c == pytest.approx(c_quad, abs=1e-12)
    # t (f - c)/R_+ = (t/i) (w p - c)/w; imaginary part integrates to kappa/i
    integrand = lambda t: t * (f(np.atleast_1d(t))[0] - c_quad) / np.sqrt(1 - t * t)
    kappa_quad = 1j * quad(integrand, -1, 1, limit=400)[0] / np.pi
    assert rd.kappa == pytest.approx(kappa_quad, abs=1e-9)


# -- inversion ---------------------------------------------------------------


def test_invert_linear(unit):
    g = PiecewiseFunction.from_callable(unit, lambda x: x, N=8)
    inv = fht_invert(g)
    x = np.linspace(-0.9, 0.9, 11)
    np.testing.assert_allclose(inv(x), -np.sqrt(1 - x * x), atol=1e-13)


def test_invert_zero(unit):
    g = PiecewiseFunction.zeros(unit, 6)
    assert fht_invert(g).norm2() == pytest.approx(0.0, abs=1e-15)


def test_invert_constant_identities(unit):
    one = PiecewiseFunction.from_callable(unit, lambda x: np.ones_like(x), N=6)
    on = fht_invert(one, points=np.linspace(-0.99, 0.99, 100),
                    check_range=False)
    np.testing.assert_allclose(on, 0.0, atol=1e-12)
    rng = np.random.default_rng(17)
    zs = np.concatenate([
        rng.uniform(1.1, 9.0, 10) * np.exp(1j * rng.uniform(0.05, np.pi, 10)),
        rng.uniform(1.1, 9.0, 10),
    ])
    off = fht_invert(one, points=zs, check_range=False)
    np.testing.assert_allclose(off, -1j, atol=1e-10)


def test_invert_range_error(unit):
    one = PiecewiseFunction.from_callable(unit, lambda x: np.ones_like(x), N=6)
    with pytest.raises(RangeError):
        fht_invert(one)


def test_invert_presubtract_equals_shift(unit):
    g = PiecewiseFunction.from_callable(unit, lambda x: 2.0 + x, N=8)
    inv = fht_invert(g, presubtract=2.0)
    x = np.linspace(-0.9, 0.9, 9)
    np.testing.assert_allclose(inv(x), -np.sqrt(1 - x * x), atol=1e-13)


def test_round_trip_random_modes():
    for sys in (make_interval_system([(-1.0, 1.0)]),
                make_interval_system([(2.0, 5.0)])):
        for seed in range(5):
            f = random_weighted(sys, 32, seed=seed)
            g = resample_plain(f, n=64)
            back = fht_invert(g)
            x = sys.from_unit(0, np.linspace(-0.97, 0.97, 41))
            err = np.max(np.abs(back(x) - f(x)))
            assert err <= 1e-8 * (1 + np.max(np.abs(f(x))))


def test_invert_reality(unit):
    f = random_weighted(unit, 12, seed=18)
    g = resample_plain(f)
    back = fht_invert(g)
    assert back.field == "real"


def test_kappa_consistency(unit):
    # radical-weighted general formula with kappa from range_scan matches
    # the plain inversion pointwise, on and off the interval
    f = random_weighted(unit, 16, seed=19)
    g = resample_plain(f, n=48)
    pts_on = np.linspace(-0.9, 0.9, 15)
    pts_off = np.array([1.5, -2.2, 0.3 + 0.7j])
    via_kappa_on = invert_with_kappa(g, pts_on)
    via_plain_on = fht_invert(g, points=pts_on)
    np.testing.assert_allclose(via_kappa_on, via_plain_on, atol=1e-9)
    via_kappa_off = invert_with_kappa(g, pts_off)
    via_plain_off = fht_invert(g, points=pts_off)
    np.testing.assert_allclose(via_kappa_off, via_plain_off, atol=1e-9)


def test_invert_weighted_input_pointwise(unit):
    # inverting a weighted-tag g = w p: the exact values are
    # -(w(x)/pi) PV int p(t)/(t - x) dt, checked against the PV oracle
    f = random_weighted(unit, 10, seed=20)
    rd = range_scan(f)
    xs = np.array([-0.7, -0.1, 0.45, 0.88])
    got = fht_invert(f, points=xs, presubtract=rd.c)
    smooth = lambda t: float(f.piece_smooth(0, np.atleast_1d(t))[0])
    for x, gv in zip(xs, got):
        expect = -np.sqrt(1 - x * x) * pv_oracle(smooth, (-1, 1), x)
        assert gv == pytest.approx(expect, abs=1e-11)
