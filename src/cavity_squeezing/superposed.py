"""Steady-state statistics of the superposed mode of two identical systems.

Two independent, identically driven atom-cavity systems can be combined
on a beam splitter into the superposed mode ``c = a + i b``.  Because the
two inputs are uncorrelated, second moments add, and the factor ``i``
rotates the second system's contribution so both quadratures of ``c``
end up squeezed by the same amount: half of the single-mode squeezing
each, summing back to the single-mode value.

All quantities below are closed forms in ``gamma_c``, ``kappa`` and
``epsilon`` of the (shared) single-system parameters, with
``D = 8 eps**2 + kappa * gamma_c`` as in :mod:`.single_mode`, and like
those they accept a 1-D ``epsilon`` array in ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .single_mode import mean_photons, squeezing

__all__ = [
    "SuperposedStats",
    "superposed_mean_photons",
    "superposed_variances",
    "superposed_bounds",
    "superposed_squeezing",
    "superposed_first_moments",
    "superposed_stats",
]


@dataclass(frozen=True)
class SuperposedStats:
    """Closed-form steady-state summary for the superposed mode.

    ``f_c`` and ``f_d`` bound the uncertainty product of the superposed
    quadratures; ``s_plus`` and ``s_minus`` are the (equal) fractional
    noise reductions of the two quadratures.  ``c_mean`` and ``c_sq`` are
    the first moments ``<c>`` and ``<c**2>``; ``c_mean`` lies on the ray
    ``t * (1 + i)`` with ``t >= 0`` and ``c_sq`` is purely imaginary.
    """

    n_bar_sup: float
    var_plus: float
    var_minus: float
    vac_var: float
    f_c: float
    f_d: float
    s_plus: float
    s_minus: float
    c_mean: complex
    c_sq: complex


def superposed_mean_photons(params: SystemParams) -> float:
    """Mean photon number of the superposed mode: twice the single-mode value."""
    return 2.0 * mean_photons(params)[0]


def superposed_variances(params: SystemParams) -> tuple[float, float, float]:
    """Variances ``(var_plus, var_minus, vac_var)`` of the superposed quadratures.

    The vacuum level doubles to ``2 gamma_c / kappa`` and both quadratures
    carry the same reduced variance (the identical float is returned for
    both), which is the point of the ``i``-rotated superposition.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    vac = 2.0 * (gc / k)
    var = vac - 16.0 * gc * gc * eps * eps / (d * d)
    return var, var, vac


def superposed_bounds(params: SystemParams) -> tuple[float, float]:
    """Uncertainty lower bound and product ``(f_c, f_d)`` for the superposed mode.

    ``f_c = 2 gamma_c**2 / D``; ``f_d`` is the square root of a
    three-term quartic polynomial in ``epsilon`` and coincides with the
    common quadrature variance, because the two spreads are equal.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    f_c = 2.0 * gc * gc / d
    radicand = (
        4.0 * gc * gc / (k * k)
        - 64.0 * gc ** 3 * eps * eps / (k * d * d)
        + 256.0 * gc ** 4 * params.epsilon4 / np.float_power(d, 4)
    )
    if np.any(radicand < 0.0):
        raise AssertionError(
            f"superposed uncertainty radicand is negative ({radicand}); "
            "this indicates a defect, not invalid parameters"
        )
    return f_c, np.sqrt(radicand)


def superposed_squeezing(params: SystemParams) -> tuple[float, float, float]:
    """Noise reductions ``(s_plus, s_minus, total)`` of the superposed mode.

    Each quadrature captures exactly half the single-mode squeezing, and
    the total is the single-mode value ``S`` itself.  ``s_plus + s_minus
    == total`` holds bit for bit except where ``S/2`` is subnormal and the
    halving drops a bit.
    """
    s = squeezing(params)
    s_half = 0.5 * s
    return s_half, s_half, s


def superposed_first_moments(params: SystemParams) -> tuple[complex, complex]:
    """First moments ``(<c>, <c**2>)`` of the superposed mode.

    ``<c> = (2 eps/kappa - 2 gamma_c eps / D) (1 + i)`` lies on the
    diagonal ray of the first quadrant; ``<c**2> = i (8 eps**2/kappa**2 -
    16 gamma_c eps**2 / (kappa D))`` is purely imaginary, with the sign
    of its imaginary part flipping from negative to positive as the
    drive crosses the optimal amplitude ``sqrt(kappa*gamma_c/8)``.
    """
    gc, k, eps = params.gamma_c, params.kappa, params.epsilon
    d = params.denominator
    t = 2.0 * eps / k - 2.0 * gc * eps / d
    c_mean = t * (1 + 1j)
    # ``+ 0.0`` turns the -0.0 real part that ``1j * x`` gives for x < 0 into 0.0
    c_sq = 1j * (8.0 * eps * eps / (k * k) - 16.0 * gc * eps * eps / (k * d)) + 0.0
    return c_mean, c_sq


def superposed_stats(params: SystemParams) -> SuperposedStats:
    """Bundle every closed-form superposed-mode quantity for one parameter set."""
    var_plus, var_minus, vac_var = superposed_variances(params)
    f_c, f_d = superposed_bounds(params)
    s_plus, s_minus, _ = superposed_squeezing(params)
    c_mean, c_sq = superposed_first_moments(params)
    return SuperposedStats(
        n_bar_sup=superposed_mean_photons(params),
        var_plus=var_plus,
        var_minus=var_minus,
        vac_var=vac_var,
        f_c=f_c,
        f_d=f_d,
        s_plus=s_plus,
        s_minus=s_minus,
        c_mean=c_mean,
        c_sq=c_sq,
    )
