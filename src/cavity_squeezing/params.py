"""Physical parameters of the driven atom-cavity system.

A single two-level atom sits in a lossy cavity whose mode is driven by
coherent light.  Everything downstream is controlled by three rates: the
atom-field coupling ``g``, the cavity energy decay rate ``kappa``, and the
driving-field amplitude ``epsilon``.  The combination ``4 g**2 / kappa``
acts as a stimulated-emission decay constant and shows up in every
steady-state expression, so it is computed once here and carried around
with the parameter set.

All rates share a single inverse-time unit; only ratios matter.  The
drive ``epsilon`` may also be a 1-D array, so that every closed form
evaluates a whole grid of drives in one call; the oracle and the moment
integrator solve for one drive and refuse an array.  The parameter set keeps
such a drive as its own read-only copy and computes ``D`` and ``eps**4``, which
several closed forms read, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["SystemParams"]

# Tolerance for cross-checking a given gamma_c against 4 g**2 / kappa.
_GAMMA_REL_TOL = 1e-9
# The closed forms raise D = 8 eps**2 + kappa*gamma_c to the fourth power;
# 1e77**4 = 1e308 still fits in a double.
_MAX_DENOMINATOR = 1e77
# Inside this window for gamma_c and kappa no product, power or quotient of
# the closed forms (kappa**2, gamma_c**3, kappa*D**2, ...) under- or
# overflows to a zero divisor or an infinity.
_RATE_WINDOW = (1e-38, 1e38)
# The oracle's largest Hilbert-space dimension, the default of ``--dim-cap``.
_DIM_CAP = 256


# The solvers' failures, which the CLI maps to exit codes 3 and 4.  They live in the
# module that every subcommand loads, so that the CLI's parser and its exit-code mapping
# load neither ``dynamics`` nor ``oracle``; those modules export them.
class NonConvergence(RuntimeError):
    """Raised when ``t_max`` is reached with the derivative above tolerance."""


class StepTooLarge(RuntimeError):
    """Raised when a population leaves [0, 1] by more than the allowed slack."""


class DimensionCap(RuntimeError):
    """Raised when the requested Hilbert space exceeds the dimension cap."""


class SingularSystem(RuntimeError):
    """Raised when the stationary linear system cannot be solved reliably."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be > 0, got {value}")


def _require_count(name: str, value, least: int, most: float = math.inf) -> int:
    """``value`` as an ``int`` from ``least`` to ``most``; bools, fractions, NaN and inf fail."""
    if isinstance(value, bool) or not (
            -math.inf < value < math.inf and int(value) == value and least <= value <= most):
        rule = f">= {least}" if most == math.inf else f"from {least} to {most}"
        raise ValueError(f"{name} must be an integer {rule}, got {value}")
    return int(value)


def _require_rate(name: str, value: float) -> float:
    """A rate (``gamma_c`` or ``kappa``) as a float inside ``_RATE_WINDOW``."""
    value = float(value)
    lo, hi = _RATE_WINDOW
    if not lo <= value <= hi:  # also rejects NaN
        raise ValueError(
            f"{name}={value!r} is out of range: "
            f"gamma_c and kappa must lie in [{lo:g}, {hi:g}]"
        )
    return value


def _require_drive(value):
    """``epsilon`` as a float or a read-only 1-D float64 copy, finite and >= 0."""
    if np.ndim(value) == 0:
        value = float(value)
    else:
        value = np.array(value, dtype=float)
        value.flags.writeable = False
    if np.ndim(value) > 1 or not np.all(np.isfinite(value)) or np.any(value < 0.0):
        raise ValueError(f"epsilon must be finite and >= 0 (float or 1-D), got {value!r}")
    return value


def _require_one_drive(value) -> float:
    """``epsilon`` as one float, for the solvers that take a single drive."""
    if np.ndim(value) != 0:
        raise ValueError(f"epsilon must be one drive, got an array of shape {np.shape(value)}")
    return float(value)


def _denominator(epsilon, kappa_gamma_c: float):
    """``D = 8 eps**2 + kappa*gamma_c``, the closed forms' denominator, for a product
    ``kappa*gamma_c`` taken once."""
    return 8.0 * epsilon * epsilon + kappa_gamma_c


def _require_bounded_drive(epsilon, kappa_gamma_c: float = 0.0) -> None:
    """Refuses a drive whose ``8 eps**2 + kappa*gamma_c`` exceeds ``_MAX_DENOMINATOR``: the
    closed forms' bound, and with ``gamma_c = 0`` that of the oracle's ``g = 0`` limit."""
    with np.errstate(over="ignore"):  # an overflow to inf is what this rejects
        in_range = np.all(_denominator(epsilon, kappa_gamma_c) <= _MAX_DENOMINATOR)
    if not in_range:
        raise ValueError(f"epsilon={float(np.max(epsilon))!r} is out of range: "
                         f"8*epsilon**2 + kappa*gamma_c must not exceed {_MAX_DENOMINATOR:g}")


@dataclass(frozen=True)
class SystemParams:
    """Rate constants for one driven atom-cavity system.

    Parameters
    ----------
    g : float
        Atom-field coupling rate, > 0.
    kappa : float
        Cavity energy decay rate, in [1e-38, 1e38].
    epsilon : float or 1-D array of float
        Classical driving amplitude, >= 0 (elementwise for an array).  An
        array is stored as a read-only float64 copy, so the caller's array
        may change without changing the parameter set; a scalar is stored
        as a float.
    gamma_c : float, optional
        Stimulated-emission decay constant.  Derived as ``4 g**2 / kappa``
        when omitted.  When supplied it must agree with the derived value
        to 1e-9 (relative), and the supplied value is the one stored, so
        that parameter sets built from a round ``gamma_c`` keep it exactly.

    Raises
    ------
    ValueError
        If any rate is out of range or redundant inputs disagree, if
        ``gamma_c`` (given or derived) or ``kappa`` lies outside
        [1e-38, 1e38], or if the drive is so strong that
        ``D = 8 eps**2 + kappa*gamma_c`` exceeds 1e77 (the closed forms
        would overflow).
    """

    g: float
    kappa: float
    epsilon: float | np.ndarray
    gamma_c: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", _require_finite("g", self.g))
        object.__setattr__(self, "kappa", _require_rate("kappa", self.kappa))
        object.__setattr__(self, "epsilon", _require_drive(self.epsilon))
        _require_positive("g", self.g)

        derived = 4.0 * self.g * self.g / self.kappa
        supplied = self.gamma_c is not None
        gamma_c = _require_rate("gamma_c", self.gamma_c if supplied else derived)
        object.__setattr__(self, "gamma_c", gamma_c)
        # A derived value that overflowed to inf matches no given gamma_c.
        mismatch = math.isinf(derived) or (
            abs(gamma_c - derived) > _GAMMA_REL_TOL * max(gamma_c, derived))
        if supplied and mismatch:
            raise ValueError(
                f"gamma_c={gamma_c} inconsistent with 4*g**2/kappa={derived}"
            )
        _require_bounded_drive(self.epsilon, self.kappa * self.gamma_c)

    @classmethod
    def from_gamma_c(cls, gamma_c: float, kappa: float, epsilon: float) -> "SystemParams":
        """Build a parameter set from the decay constant instead of ``g``.

        The coupling is recovered as ``g = sqrt(gamma_c * kappa) / 2`` and
        the given ``gamma_c`` is stored verbatim (re-deriving it from the
        recovered ``g`` can be off by one ulp).
        """
        gamma_c = _require_rate("gamma_c", gamma_c)
        kappa = _require_rate("kappa", kappa)
        g = math.sqrt(gamma_c * kappa) / 2.0
        return cls(g=g, kappa=kappa, epsilon=epsilon, gamma_c=gamma_c)

    @cached_property
    def denominator(self) -> float | np.ndarray:
        """The ubiquitous steady-state denominator ``8 eps**2 + kappa*gamma_c``, computed
        on first use and kept."""
        return _denominator(self.epsilon, self.kappa * self.gamma_c)

    @cached_property
    def epsilon4(self) -> float | np.ndarray:
        """``eps**4`` as libm's ``pow`` gives it (``np.float_power``, as Python's ``**``),
        computed on first use and kept."""
        return np.float_power(self.epsilon, 4)
