import numpy as np
import pytest
from hypothesis import settings

from mifht import make_interval_system
from mifht.gamma import build_gamma
from mifht.solver import (
    ThetaMatrix,
    compute_c,
    forward_map,
    random_sqrt_vanishing,
)

# the same examples on every run, and no per-example deadline, so a slow
# host cannot fail a property test on time alone
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def sys1():
    return make_interval_system([(-1.0, 1.0)])


@pytest.fixture(scope="session")
def sys2():
    return make_interval_system([(-2.0, -1.0), (1.0, 2.0)])


@pytest.fixture(scope="session")
def sys3():
    return make_interval_system([(-3.0, -2.0), (-1.0, 0.0), (1.0, 3.0)])


@pytest.fixture(scope="session")
def theta2():
    return ThetaMatrix([[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture(scope="session")
def theta3():
    t = np.full((3, 3), 0.5)
    np.fill_diagonal(t, 1.0)
    return ThetaMatrix(t)


@pytest.fixture(scope="session")
def gamma2(sys2, theta2):
    return build_gamma(sys2, theta2, lam=1.0, size=96)


def interior_points(sys, per_interval=20, pad=0.05):
    return np.concatenate([
        sys.from_unit(j, np.linspace(-1 + pad, 1 - pad, per_interval))
        for j in range(sys.n)])


def zero_c_combination(sys, theta, seeds, modes=16):
    """Random sqrt-vanishing phi0 whose forward image has c[psi] = 0."""
    phis = [random_sqrt_vanishing(sys, modes=modes, seed=s) for s in seeds]
    cs = np.stack([np.real(compute_c(forward_map(theta, p))) for p in phis])
    w = np.linalg.svd(cs.T, full_matrices=True)[2][-1]
    out = phis[0] * w[0]
    for wi, p in zip(w[1:], phis[1:]):
        out = out + p * wi
    return out
