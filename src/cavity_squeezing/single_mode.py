"""Closed-form steady-state statistics of the driven cavity mode.

On resonance the steady state of the atom-cavity system admits closed
forms for the atomic populations and coherence, the intracavity photon
budget, and the variances of the two quadrature amplitudes of the
emitted field.  The expressions below are parameterised by the
stimulated-emission decay constant ``gamma_c = 4 g**2 / kappa``, the
cavity decay rate ``kappa`` and the driving amplitude ``epsilon``; they
all share the denominator ``D = 8 eps**2 + kappa * gamma_c``.

The quadrature variances here use the effective-mode commutator, whose
vacuum level is ``gamma_c / kappa`` rather than 1; the minus quadrature
sits exactly at that vacuum level for every driving strength, and the
plus quadrature drops below it, which is the squeezing effect this
package quantifies.

Every function of ``params`` also accepts a 1-D ``epsilon`` array and then
returns arrays (drive-free values such as ``vac_var`` stay floats), each
equal to the scalar result bit for bit: quartic powers use ``np.float_power``
(libm ``pow``, as Python's ``**``), as numpy's ``**`` can round apart on AVX-512.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .params import SystemParams

__all__ = [
    "AtomSteady",
    "SingleModeStats",
    "steady_atom",
    "mean_photons",
    "quadrature_variances",
    "uncertainty_bound",
    "uncertainty_product",
    "squeezing",
    "single_mode_stats",
]


@dataclass(frozen=True)
class AtomSteady:
    """Steady-state atomic moments.

    ``eta_a`` and ``eta_b`` are the upper- and lower-level populations
    (they sum to one; the upper level never passes one half), ``sigma``
    is the real-valued atomic coherence.
    """

    eta_a: float
    eta_b: float
    sigma: float


@dataclass(frozen=True)
class SingleModeStats:
    """Full closed-form steady-state summary for the cavity mode.

    ``f_a`` is the uncertainty-product lower bound, ``f_b`` the actual
    uncertainty product; ``squeezing`` is the fractional reduction of the
    plus-quadrature variance below the vacuum level ``vac_var``.
    """

    n_bar: float
    n_emitted: float
    n_absorbed: float
    n_drive: float
    var_plus: float
    var_minus: float
    vac_var: float
    f_a: float
    f_b: float
    squeezing: float


def steady_atom(params: SystemParams) -> AtomSteady:
    """Steady-state populations and coherence of the atom.

    ``eta_b`` is computed as ``1 - eta_a`` so the pair sums to one
    exactly in floating point.
    """
    eps = params.epsilon
    d = params.denominator
    eta_a = 4.0 * eps * eps / d
    sigma = 4.0 * params.g * eps / d
    return AtomSteady(eta_a=eta_a, eta_b=1.0 - eta_a, sigma=sigma)


def mean_photons(params: SystemParams) -> tuple[float, float, float, float]:
    """Steady-state photon budget ``(n_bar, n_emitted, n_absorbed, n_drive)``.

    ``n_emitted`` counts photons put into the mode by atomic emission,
    ``n_absorbed`` those removed by absorption, ``n_drive`` the coherent
    drive contribution; ``n_bar`` is their signed sum and is what a
    photon counter in the cavity sees.  ``n_absorbed`` is exactly twice
    ``n_emitted``, so ``n_bar`` never exceeds the bare-drive value.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    ratio = gc / k
    n_emitted = ratio * (4.0 * eps * eps / d)
    n_absorbed = ratio * (8.0 * eps * eps / d)
    n_drive = 4.0 * eps * eps / (k * k)
    n_bar = n_emitted - n_absorbed + n_drive
    return n_bar, n_emitted, n_absorbed, n_drive


def quadrature_variances(params: SystemParams) -> tuple[float, float, float]:
    """Variances ``(var_plus, var_minus, vac_var)`` of the two quadratures.

    Both variances are measured against the effective-mode vacuum level
    ``vac_var = gamma_c / kappa``.  The minus quadrature equals the
    vacuum level identically (the same float is returned for both), the
    plus quadrature is reduced by the squeezing term.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    vac = gc / k
    var_plus = vac - 16.0 * gc * gc * eps * eps / (d * d)
    return var_plus, vac, vac


def uncertainty_bound(params: SystemParams) -> float:
    """Lower bound ``f_a = gamma_c**2 / D`` on the uncertainty product."""
    return params.gamma_c * params.gamma_c / params.denominator


def uncertainty_product(params: SystemParams) -> float:
    """Uncertainty product ``f_b`` of the two quadrature spreads.

    Closed form ``sqrt(gamma_c**2/kappa**2 - 16 gamma_c**3 eps**2 /
    (kappa D**2))``.  The radicand is a product of the two variances and
    can never be negative for valid parameters; a negative value would
    mean an internal inconsistency, not bad input.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    radicand = gc * gc / (k * k) - 16.0 * gc ** 3 * eps * eps / (k * d * d)
    if np.any(radicand < 0.0):
        raise AssertionError(
            f"uncertainty product radicand is negative ({radicand}); "
            "this indicates a defect, not invalid parameters"
        )
    return np.sqrt(radicand)


def squeezing(params: SystemParams) -> float:
    """Fractional noise reduction ``S = 16 gamma_c kappa eps**2 / D**2``.

    Equals ``1 - var_plus / vac_var``; ranges over [0, 1/2], reaching the
    maximum 1/2 at ``eps = sqrt(kappa gamma_c / 8)``.  Rounding can put the
    quotient one ulp above 1/2 near the optimum, so it is capped there.
    Where the numerator underflows, ``S = 4 sigma**2 = (8 g eps / D)**2``
    is evaluated instead, which stays normal wherever ``sigma**2`` does.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    numerator = 16.0 * gc * k * eps * eps
    two_sigma = 8.0 * params.g * eps / d
    s = np.where(numerator < sys.float_info.min, two_sigma * two_sigma, numerator / (d * d))
    return np.minimum(s, 0.5)


def single_mode_stats(params: SystemParams) -> SingleModeStats:
    """Bundle every closed-form steady-state quantity for one parameter set."""
    n_bar, n_emitted, n_absorbed, n_drive = mean_photons(params)
    var_plus, var_minus, vac_var = quadrature_variances(params)
    return SingleModeStats(
        n_bar=n_bar,
        n_emitted=n_emitted,
        n_absorbed=n_absorbed,
        n_drive=n_drive,
        var_plus=var_plus,
        var_minus=var_minus,
        vac_var=vac_var,
        f_a=uncertainty_bound(params),
        f_b=uncertainty_product(params),
        squeezing=squeezing(params),
    )
