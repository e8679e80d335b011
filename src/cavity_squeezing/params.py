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
evaluates a whole grid of drives in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SystemParams"]

# Tolerances for cross-checking redundantly specified inputs.
_GAMMA_REL_TOL = 1e-9
_EPSILON_REL_TOL = 1e-12
# The closed forms raise D = 8 eps**2 + kappa*gamma_c to the fourth power;
# 1e77**4 = 1e308 still fits in a double.
_MAX_DENOMINATOR = 1e77


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_drive(value):
    """``epsilon`` as a float or a 1-D float array, finite and >= 0."""
    value = float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)
    if np.ndim(value) > 1 or not np.all(np.isfinite(value)) or np.any(value < 0.0):
        raise ValueError(f"epsilon must be finite and >= 0 (float or 1-D), got {value!r}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Rate constants for one driven atom-cavity system.

    Parameters
    ----------
    g : float
        Atom-field coupling rate, > 0.
    kappa : float
        Cavity energy decay rate, > 0.
    epsilon : float or 1-D array of float
        Classical driving amplitude, >= 0 (elementwise for an array).
    lam : float, optional
        Photon flux amplitude of the driving beam.  Informational; when
        given together with `beta` the product must reproduce `epsilon`.
    beta : float, optional
        Cavity input coupling amplitude, see `lam`.
    gamma_c : float, optional
        Stimulated-emission decay constant.  Derived as ``4 g**2 / kappa``
        when omitted.  When supplied it must agree with the derived value
        to 1e-9 (relative), and the supplied value is the one stored, so
        that parameter sets built from a round ``gamma_c`` keep it exactly.

    Raises
    ------
    ValueError
        If any rate is out of range or redundant inputs disagree, if the
        derived ``gamma_c`` underflows to zero, or if the drive is so strong
        that ``D = 8 eps**2 + kappa*gamma_c`` exceeds 1e77 (the closed forms
        would overflow).
    """

    g: float
    kappa: float
    epsilon: float | np.ndarray
    lam: float | None = None
    beta: float | None = None
    gamma_c: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", _require_finite("g", self.g))
        object.__setattr__(self, "kappa", _require_finite("kappa", self.kappa))
        object.__setattr__(self, "epsilon", _require_drive(self.epsilon))
        if self.g <= 0.0:
            raise ValueError(f"g must be > 0, got {self.g}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")

        derived = 4.0 * self.g * self.g / self.kappa
        supplied = self.gamma_c is not None
        gamma_c = _require_finite("gamma_c", self.gamma_c if supplied else derived)
        object.__setattr__(self, "gamma_c", gamma_c)
        if gamma_c <= 0.0:
            raise ValueError(f"gamma_c = 4*g**2/kappa must be > 0, got {gamma_c}")
        if supplied and abs(gamma_c - derived) > _GAMMA_REL_TOL * max(gamma_c, derived):
            raise ValueError(
                f"gamma_c={gamma_c} inconsistent with 4*g**2/kappa={derived}"
            )
        with np.errstate(over="ignore"):  # an overflow to inf is what this rejects
            in_range = np.all(self.denominator <= _MAX_DENOMINATOR)
        if not in_range:
            raise ValueError(
                f"epsilon={float(np.max(self.epsilon))!r} is out of range: "
                f"8*epsilon**2 + kappa*gamma_c must not exceed {_MAX_DENOMINATOR:g}"
            )

        if self.lam is not None:
            object.__setattr__(self, "lam", _require_finite("lam", self.lam))
        if self.beta is not None:
            object.__setattr__(self, "beta", _require_finite("beta", self.beta))
        if self.lam is not None and self.beta is not None:
            product = self.lam * self.beta
            scale = np.maximum(abs(self.epsilon), abs(product))
            if np.any(abs(product - self.epsilon) > _EPSILON_REL_TOL * scale):
                raise ValueError(
                    f"epsilon={self.epsilon} inconsistent with lam*beta={product}"
                )

    @classmethod
    def from_gamma_c(
        cls,
        gamma_c: float,
        kappa: float,
        epsilon: float,
        lam: float | None = None,
        beta: float | None = None,
    ) -> "SystemParams":
        """Build a parameter set from the decay constant instead of ``g``.

        The coupling is recovered as ``g = sqrt(gamma_c * kappa) / 2`` and
        the given ``gamma_c`` is stored verbatim (re-deriving it from the
        recovered ``g`` can be off by one ulp).
        """
        gamma_c = _require_finite("gamma_c", gamma_c)
        kappa = _require_finite("kappa", kappa)
        if gamma_c <= 0.0:
            raise ValueError(f"gamma_c must be > 0, got {gamma_c}")
        if kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {kappa}")
        g = math.sqrt(gamma_c * kappa) / 2.0
        return cls(g=g, kappa=kappa, epsilon=epsilon, lam=lam, beta=beta,
                   gamma_c=gamma_c)

    @property
    def denominator(self) -> float | np.ndarray:
        """The ubiquitous steady-state denominator ``8 eps**2 + kappa*gamma_c``."""
        return 8.0 * self.epsilon * self.epsilon + self.kappa * self.gamma_c
