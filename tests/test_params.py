import math

import numpy as np
import pytest

from cavity_squeezing import SystemParams


def test_gamma_c_derived_from_coupling():
    p = SystemParams(g=0.3, kappa=0.9, epsilon=0.1)
    assert p.gamma_c == 4.0 * 0.3 * 0.3 / 0.9


def test_gamma_c_formula():
    p = SystemParams(g=0.2828427125, kappa=0.8, epsilon=0.0)
    assert p.gamma_c == pytest.approx(0.4, rel=1e-9)
    p = SystemParams(g=0.5, kappa=1.0, epsilon=0.0)
    assert p.gamma_c == 1.0


def test_gamma_c_vanishes_quadratically():
    small = SystemParams(g=1e-8, kappa=0.8, epsilon=0.0)
    assert small.gamma_c == 4.0 * 1e-8 * 1e-8 / 0.8


def test_from_gamma_c_stores_given_value_exactly():
    p = SystemParams.from_gamma_c(0.4, 0.8, 0.2)
    assert p.gamma_c == 0.4
    assert p.g == math.sqrt(0.4 * 0.8) / 2.0
    # re-deriving 4 g**2 / kappa lands one ulp away, which must be accepted
    assert p.gamma_c == pytest.approx(4.0 * p.g * p.g / p.kappa, rel=1e-15)


def test_explicit_gamma_c_must_be_consistent():
    g = math.sqrt(0.4 * 0.8) / 2.0
    SystemParams(g=g, kappa=0.8, epsilon=0.2, gamma_c=0.4)  # fine
    with pytest.raises(ValueError, match="inconsistent"):
        SystemParams(g=g, kappa=0.8, epsilon=0.2, gamma_c=0.45)


def test_denominator():
    p = SystemParams.from_gamma_c(0.4, 0.8, 0.2)
    assert p.denominator == 8.0 * 0.2 * 0.2 + 0.8 * 0.4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(g=0.0, kappa=0.8, epsilon=0.2),
        dict(g=-0.1, kappa=0.8, epsilon=0.2),
        dict(g=0.3, kappa=0.0, epsilon=0.2),
        dict(g=0.3, kappa=-1.0, epsilon=0.2),
        dict(g=0.3, kappa=0.8, epsilon=-1e-12),
        dict(g=math.nan, kappa=0.8, epsilon=0.2),
        dict(g=0.3, kappa=math.inf, epsilon=0.2),
        dict(g=0.3, kappa=0.8, epsilon=math.nan),
        dict(g=0.3, kappa=0.8, epsilon=0.2, gamma_c=-0.4),
        dict(g=1e-200, kappa=1.0, epsilon=0.0),  # 4 g**2 / kappa underflows to 0
        dict(g=0.3, kappa=0.8, epsilon=1e40),  # the closed forms would overflow
        dict(g=0.3, kappa=0.8, epsilon=1e200),
        dict(g=0.3, kappa=0.8, epsilon=[0.1, 1e200]),
        dict(g=0.3, kappa=0.8, epsilon=[0.1, -1e-12]),
        dict(g=0.3, kappa=0.8, epsilon=[0.1, math.nan]),
        dict(g=0.3, kappa=0.8, epsilon=[[0.1, 0.2]]),
        dict(g=1e-20, kappa=1.0, epsilon=0.0),  # derived gamma_c = 4e-40
        dict(g=1e35, kappa=1e-40, epsilon=0.0),  # derived gamma_c = 4e110
        # 4 g**2 / kappa overflows to inf, which no given gamma_c matches
        dict(g=1e200, kappa=1.0, epsilon=0.2, gamma_c=1.0),
    ],
)
def test_rejects_bad_rates(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


@pytest.mark.parametrize(
    "gamma_c,kappa",
    [(1.0, 1e-200), (1e110, 1e-40), (1e-39, 1.0), (1.0, 1e-39), (1e39, 1.0), (1.0, 1e39)],
)
def test_rates_outside_the_window_are_named(gamma_c, kappa):
    name = "kappa" if gamma_c == 1.0 else "gamma_c"
    with pytest.raises(ValueError, match=f"^{name}="):
        SystemParams.from_gamma_c(gamma_c, kappa, 0.0)


@pytest.mark.parametrize("gamma_c,kappa", [(1e-38, 1e-38), (1e38, 1e38), (1e-38, 1e38)])
def test_window_edges_are_valid(gamma_c, kappa):
    p = SystemParams.from_gamma_c(gamma_c, kappa, 0.0)
    assert (p.gamma_c, p.kappa) == (gamma_c, kappa)


@pytest.mark.parametrize("gamma_c,kappa", [(0.0, 0.8), (-0.4, 0.8), (0.4, 0.0)])
def test_from_gamma_c_rejects_bad_rates(gamma_c, kappa):
    with pytest.raises(ValueError):
        SystemParams.from_gamma_c(gamma_c, kappa, 0.2)


def test_epsilon_zero_is_valid():
    p = SystemParams(g=0.3, kappa=0.8, epsilon=0.0)
    assert p.epsilon == 0.0


def test_drive_factors_accepted_when_consistent():
    p = SystemParams(g=0.3, kappa=0.8, epsilon=0.2, lam=2.0, beta=0.1)
    assert p.lam == 2.0 and p.beta == 0.1


def test_drive_factors_rejected_when_inconsistent():
    with pytest.raises(ValueError, match="lam"):
        SystemParams(g=0.3, kappa=0.8, epsilon=0.21, lam=2.0, beta=0.1)


def test_single_drive_factor_is_unconstrained():
    SystemParams(g=0.3, kappa=0.8, epsilon=0.2, lam=123.0)
    SystemParams(g=0.3, kappa=0.8, epsilon=0.2, beta=123.0)


def test_both_construction_routes_agree():
    a = SystemParams.from_gamma_c(0.4, 0.8, 0.2)
    b = SystemParams(g=math.sqrt(0.4 * 0.8) / 2.0, kappa=0.8, epsilon=0.2)
    assert a.g == b.g
    assert a.gamma_c == pytest.approx(b.gamma_c, rel=1e-12)


def test_frozen():
    p = SystemParams(g=0.3, kappa=0.8, epsilon=0.2)
    with pytest.raises(AttributeError):
        p.g = 1.0


def test_epsilon_grid_is_kept_as_an_array():
    p = SystemParams.from_gamma_c(0.4, 0.8, np.array([0.0, 0.1, 0.2]))
    assert isinstance(p.epsilon, np.ndarray)
    assert p.gamma_c == 0.4
    np.testing.assert_array_equal(
        p.denominator, [8.0 * e * e + 0.8 * 0.4 for e in (0.0, 0.1, 0.2)]
    )

