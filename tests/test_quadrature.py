import numpy as np
import pytest

from mifht import make_interval_system, pv_oracle
from mifht.chebyshev import _cheb2_theta, cheb2_nodes
from mifht.solver import _node_angles
from mifht.errors import DomainError
from mifht.quadrature import (
    GAUSS_CHEBYSHEV_1,
    GAUSS_CHEBYSHEV_2,
    GAUSS_LEGENDRE,
    chebyshev1_grid,
    chebyshev2_grid,
    legendre_grid,
    ordinary_cauchy,
)


@pytest.fixture(scope="module")
def sys2():
    return make_interval_system([(-2.0, -1.0), (1.0, 2.0)])


def test_legendre_grid_integrates(sys2):
    g = legendre_grid(sys2, 12)
    assert g.family == GAUSS_LEGENDRE
    for j in range(2):
        val = np.sum(g.weights[j] * g.nodes[j] ** 2)
        a, b = sys2.endpoints[j]
        assert val == pytest.approx((b ** 3 - a ** 3) / 3, rel=1e-13)


def test_chebyshev1_grid_weighted_integral(sys2):
    # int f / w dx with f = 1 equals pi on every interval
    g = chebyshev1_grid(sys2, 16)
    assert g.family == GAUSS_CHEBYSHEV_1
    for j in range(2):
        assert np.sum(g.weights[j]) == pytest.approx(np.pi, rel=1e-14)


def test_chebyshev2_grid_sqrt_weights(sys2):
    # int w dx = pi h^2 / 2
    g = chebyshev2_grid(sys2, 16)
    assert g.family == GAUSS_CHEBYSHEV_2
    # the angles are the shared cached table, bit for bit pi q / 17
    theta = np.pi * np.arange(1, 17) / 17
    np.testing.assert_array_equal(_cheb2_theta(16), theta)
    assert not _cheb2_theta(16).flags.writeable
    np.testing.assert_array_equal(cheb2_nodes(16), np.cos(theta)[::-1])
    np.testing.assert_array_equal(_node_angles(16), theta[::-1])
    for j in range(2):
        h = sys2.half[j]
        np.testing.assert_array_equal(g.nodes[j], sys2.from_unit(j, np.cos(theta)[::-1]))
        np.testing.assert_array_equal(g.weights[j], h * np.pi * np.sin(theta)[::-1] / 17)
        np.testing.assert_array_equal(g.sqrt_weights[j],
                                      h * h * np.pi * np.sin(theta)[::-1] ** 2 / 17)
        assert np.sum(g.sqrt_weights[j]) == pytest.approx(np.pi * h * h / 2,
                                                          rel=1e-13)
        # the plain weights are exact for the w * polynomial class:
        # int w(x) x dx = mid * pi h^2 / 2 by symmetry
        wvals = np.sqrt((g.nodes[j] - sys2.alpha[j]) * (sys2.beta[j] - g.nodes[j]))
        assert np.sum(g.weights[j] * wvals * g.nodes[j]) == pytest.approx(
            sys2.mid[j] * np.pi * h * h / 2, rel=1e-12)


def test_grid_nodes_interior(sys2):
    for g in (legendre_grid(sys2, 8), chebyshev1_grid(sys2, 8),
              chebyshev2_grid(sys2, 8)):
        for j in range(2):
            a, b = sys2.endpoints[j]
            assert np.all((g.nodes[j] > a) & (g.nodes[j] < b))
            assert np.all(g.weights[j] > 0)


def test_pv_oracle_sqrt_weight():
    val = pv_oracle(lambda t: np.sqrt(1 - t * t), (-1, 1), 0.3)
    assert val == pytest.approx(-0.3, abs=1e-11)


def test_pv_oracle_zero():
    assert pv_oracle(lambda t: 0.0, (-1, 1), 0.2) == pytest.approx(0.0, abs=1e-14)


def test_pv_oracle_constant():
    # antiderivative log|t - z|: (1/pi) log((1-z)/(1+z)) at z = 0.5
    val = pv_oracle(lambda t: 1.0, (-1, 1), 0.5)
    assert val == pytest.approx(np.log(1.0 / 3.0) / np.pi, abs=1e-12)


def test_pv_oracle_shifted_interval():
    # (1/pi)[ (b-a) + z log((b-z)/(z-a)) ] for f = t on [2, 5]
    z = 3.1
    val = pv_oracle(lambda t: t, (2, 5), z)
    expect = (3.0 + z * np.log(1.9 / 1.1)) / np.pi
    assert val == pytest.approx(expect, abs=1e-12)


def test_pv_oracle_domain():
    with pytest.raises(DomainError):
        pv_oracle(lambda t: 1.0, (-1, 1), 1.5)


def test_ordinary_cauchy_offcut():
    val = ordinary_cauchy(lambda t: np.sqrt(1 - t * t), (-1, 1), 2.5)
    u = 2.5 + np.sqrt(2.5 ** 2 - 1)
    assert val == pytest.approx(-1.0 / u, abs=1e-12)
    with pytest.raises(DomainError):
        ordinary_cauchy(lambda t: 1.0, (-1, 1), 0.5)
