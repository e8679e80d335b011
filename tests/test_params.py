import math
import re

import numpy as np
import pytest

from cavity_squeezing import (
    GROUND_STATE,
    HilbertConfig,
    IntegratorConfig,
    SweepSpec,
    SystemParams,
    decoupled_benchmark,
    default_integrator_config,
    integrate,
    steady_density,
    stream_trajectory,
)


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


def test_a_drive_array_is_a_read_only_copy():
    drive = np.array([0.0, 0.1, 0.2])
    p = SystemParams.from_gamma_c(0.4, 0.8, drive)
    drive[1] = 5.0
    assert p.epsilon.tolist() == [0.0, 0.1, 0.2]
    assert p.epsilon.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        p.epsilon[1] = 5.0
    assert p.denominator[1] == 8.0 * 0.1 * 0.1 + 0.8 * 0.4
    assert type(SystemParams.from_gamma_c(0.4, 0.8, np.float32(0.25)).epsilon) is float


_DRIVES = [0.0, -0.0, 5e-324, 2.2e-308, 1e-160, 0.2, 3.7, 1e38]


@pytest.mark.parametrize("gamma_c,kappa", [(0.4, 0.8), (1e-38, 1e38), (1e38, 1e-38)])
def test_cached_terms_are_the_uncached_expressions(gamma_c, kappa):
    # D and eps**4 are computed once per parameter set and kept, with the bits of the
    # expressions they replace (``hex`` tells -0.0 from 0.0), for one drive and for a grid
    grid = SystemParams.from_gamma_c(gamma_c, kappa, _DRIVES)
    assert grid.denominator is grid.denominator and grid.epsilon4 is grid.epsilon4
    for k, eps in enumerate(_DRIVES):
        p = SystemParams.from_gamma_c(gamma_c, kappa, eps)
        d = 8.0 * eps * eps + kappa * gamma_c
        eps4 = eps ** 4
        assert p.denominator.hex() == d.hex() == grid.denominator[k].hex()
        assert float(p.epsilon4).hex() == eps4.hex() == float(grid.epsilon4[k]).hex()
        assert type(p.denominator) is float and isinstance(p.epsilon4, float)



# One construction per checked value; each takes the value under test.  A count with a
# largest value has a third entry.
_COUNTS = {
    "n_cut": (2, lambda v: HilbertConfig(v)),
    "dim_cap": (6, lambda v: HilbertConfig(2, dim_cap=v)),
    "n_points": (2, lambda v: SweepSpec(0.0, 1.0, v, 0.4, 0.8)),
    "levels": (1, lambda v: HilbertConfig(2, levels=v), 2),
}
_POSITIVES = {
    "dt": lambda v: IntegratorConfig(dt=v, t_max=1.0, steady_tol=1e-12),
    "steady_tol": lambda v: IntegratorConfig(dt=0.1, t_max=1.0, steady_tol=v),
    "g": lambda v: SystemParams(g=v, kappa=0.8, epsilon=0.2),
}


def _rule_cases():
    for name, (least, build, *most) in _COUNTS.items():
        rule = f"from {least} to {most[0]}" if most else f">= {least}"
        for value in (math.inf, math.nan, 2.5, least - 1, True, *(m + 1 for m in most)):
            yield pytest.param(build, value, f"{name} must be an integer {rule}, got {value}",
                               id=f"{name}={value}")
    for name, build in _POSITIVES.items():
        for value in (0.0, -1.0, math.nan, math.inf):
            # g's finiteness check comes first and keeps its own message.
            rule = "finite" if name == "g" and not math.isfinite(value) else "> 0"
            yield pytest.param(build, value, f"{name} must be {rule}, got {value}",
                               id=f"{name}={value}")


@pytest.mark.parametrize("build,value,message", _rule_cases())
def test_shared_numeric_rules(build, value, message):
    """Every count and every positive setting is refused with its rule's message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


# The solvers that take one drive, each given a parameter set.
_ONE_DRIVE = {
    "steady_density": lambda p: steady_density(p, HilbertConfig(8)),
    "decoupled_benchmark": lambda p: decoupled_benchmark(p.epsilon, p.kappa),
    "integrate": lambda p: integrate(GROUND_STATE, p, default_integrator_config(p)),
    "stream_trajectory": lambda p: stream_trajectory(GROUND_STATE, p,
                                                     default_integrator_config(p)),
}


@pytest.mark.parametrize("drive", [[0.2], [0.2, 0.3]], ids=["1 drive", "2 drives"])
@pytest.mark.parametrize("solve", _ONE_DRIVE.values(), ids=_ONE_DRIVE)
def test_solvers_refuse_a_drive_array(solve, drive):
    """The closed forms take a grid of drives; the oracle and the integrator take one."""
    p = SystemParams.from_gamma_c(0.4, 0.8, np.array(drive))
    message = f"epsilon must be one drive, got an array of shape ({len(drive)},)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve(p)
