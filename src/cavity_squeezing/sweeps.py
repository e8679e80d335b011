"""Parameter sweeps over the driving amplitude, and derived datasets.

The quantities of interest are smooth closed forms in ``epsilon``, so a
sweep is just an evaluation over a uniform grid.  This module produces

* the full sweep table used by the dataset writers,
* a numerical maximisation of the squeezing (an independent check of the
  closed-form optimum),
* a residual report for the two exact quartic identities that tie the
  uncertainty products to their lower bounds, and
* the standard set of dataset files (``fig2.csv``, ``fig3.csv``,
  ``fig4.csv``, ``identities.csv``).

All CSV output uses 12-digit scientific notation with LF endings, so
repeated runs with equal inputs are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import single_mode, superposed
from .params import SystemParams

__all__ = [
    "SWEEP_COLUMNS",
    "SweepSpec",
    "SweepTable",
    "IdentityReport",
    "run_sweep",
    "find_max_squeezing",
    "identity_report",
    "write_figure_files",
]

SWEEP_COLUMNS = (
    "epsilon",
    "f_a",
    "f_b",
    "S",
    "f_c",
    "f_d",
    "s_plus",
    "n_bar",
    "n_bar_sup",
    "var_plus",
    "var_c_plus",
)

_IDENTITY_COLUMNS = (
    "epsilon",
    "fb2_minus_fa2",
    "fb2_minus_fa2_pred",
    "residual_single",
    "fd_minus_fc",
    "fd_minus_fc_pred",
    "residual_superposed",
)


@dataclass(frozen=True)
class SweepSpec:
    """A uniform grid in the driving amplitude at fixed rates.

    ``eps_min`` must be strictly below ``eps_max`` so the rows of the
    resulting table are strictly ascending.  The rates and both ends of
    the grid are validated by :class:`SystemParams`.
    """

    eps_min: float
    eps_max: float
    n_points: int
    gamma_c: float
    kappa: float

    def __post_init__(self) -> None:
        SystemParams.from_gamma_c(self.gamma_c, self.kappa, [self.eps_min, self.eps_max])
        if not self.eps_min < self.eps_max:
            raise ValueError(
                f"need eps_min < eps_max, got [{self.eps_min}, {self.eps_max}]"
            )
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))

    def grid(self) -> np.ndarray:
        return np.linspace(self.eps_min, self.eps_max, self.n_points)


def _write_csv(path_or_file, header: tuple[str, ...], data: np.ndarray) -> None:
    def write(fh) -> None:
        fh.write(",".join(header) + "\n")
        fmt = ",".join(["%.12e"] * data.shape[1]) + "\n"
        for row in data:
            fh.write(fmt % tuple(row))

    if hasattr(path_or_file, "write"):
        write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            write(fh)


@dataclass(frozen=True)
class SweepTable:
    """Sweep results: one row per grid point, columns ``SWEEP_COLUMNS``."""

    spec: SweepSpec
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.data[:, SWEEP_COLUMNS.index(name)]

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, SWEEP_COLUMNS, self.data)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every closed-form quantity on the grid."""
    eps = spec.grid()
    params = SystemParams.from_gamma_c(spec.gamma_c, spec.kappa, eps)
    f_c, f_d = superposed.superposed_bounds(params)
    columns = (
        eps,
        single_mode.uncertainty_bound(params),
        single_mode.uncertainty_product(params),
        single_mode.squeezing(params),
        f_c,
        f_d,
        superposed.superposed_squeezing(params)[0],
        single_mode.mean_photons(params)[0],
        superposed.superposed_mean_photons(params),
        single_mode.quadrature_variances(params)[0],
        superposed.superposed_variances(params)[0],
    )
    return SweepTable(spec=spec, data=np.column_stack(columns))


def find_max_squeezing(gamma_c: float, kappa: float) -> tuple[float, float]:
    """Numerically maximise the squeezing over the driving amplitude.

    Coarse 1000-point scan over [0, 5 * sqrt(kappa*gamma_c/8)] followed
    by a ternary search narrowed to 1e-10; independent of the closed-form
    optimum it should reproduce.
    """
    SystemParams.from_gamma_c(gamma_c, kappa, 0.0)  # validates the rates

    def s_of(eps: float) -> float:
        return single_mode.squeezing(
            SystemParams.from_gamma_c(gamma_c, kappa, eps)
        )

    scale = math.sqrt(kappa * gamma_c / 8.0)
    grid = np.linspace(0.0, 5.0 * scale, 1000)
    values = single_mode.squeezing(SystemParams.from_gamma_c(gamma_c, kappa, grid))
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    while hi - lo > 1e-10:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if s_of(m1) < s_of(m2):
            lo = m1
        else:
            hi = m2
    eps_star = 0.5 * (lo + hi)
    return eps_star, s_of(eps_star)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the two exact uncertainty-gap identities on a grid.

    Single mode: ``f_b**2 - f_a**2 = 64 gamma_c**2 eps**4 / (kappa**2 D**2)``.
    Superposed:  ``f_d - f_c = 128 gamma_c eps**4 / (kappa D**2)``.

    Both sides of each identity are O(eps**4) while the operands are
    O(1), so residuals are normalised by the operand scale (``f_b**2``
    and ``f_d`` respectively): near zero drive the difference of two
    O(1) numbers cannot be resolved beyond that scale in floating point.
    Columns: ``_IDENTITY_COLUMNS``.
    """

    spec: SweepSpec
    data: np.ndarray
    max_residual_single: float
    max_residual_superposed: float

    def to_csv(self, path_or_file) -> None:
        _write_csv(path_or_file, _IDENTITY_COLUMNS, self.data)


def identity_report(spec: SweepSpec) -> IdentityReport:
    """Evaluate both identities and their normalised residuals on the grid."""
    eps = spec.grid()
    params = SystemParams.from_gamma_c(spec.gamma_c, spec.kappa, eps)
    gc, k, d = params.gamma_c, params.kappa, params.denominator
    eps4 = single_mode.power(eps, 4)

    f_a = single_mode.uncertainty_bound(params)
    f_b = single_mode.uncertainty_product(params)
    gap_single = f_b * f_b - f_a * f_a
    pred_single = 64.0 * gc * gc * eps4 / (k * k * d * d)
    scale_single = np.maximum(np.maximum(abs(gap_single), abs(pred_single)), f_b * f_b)
    resid_single = abs(gap_single - pred_single) / scale_single

    f_c, f_d = superposed.superposed_bounds(params)
    gap_sup = f_d - f_c
    pred_sup = 128.0 * gc * eps4 / (k * d * d)
    scale_sup = np.maximum(np.maximum(abs(gap_sup), abs(pred_sup)), f_d)
    resid_sup = abs(gap_sup - pred_sup) / scale_sup

    return IdentityReport(
        spec=spec,
        data=np.column_stack((eps, gap_single, pred_single, resid_single,
                              gap_sup, pred_sup, resid_sup)),
        max_residual_single=float(resid_single.max()),
        max_residual_superposed=float(resid_sup.max()),
    )


def write_figure_files(spec: SweepSpec, out_dir) -> dict:
    """Write the standard dataset files into ``out_dir``.

    ``fig2.csv`` holds the uncertainty bound and product, ``fig3.csv``
    the squeezing curve, ``fig4.csv`` the superposed-mode bounds and
    ``identities.csv`` the identity residuals, all on the same grid.
    Returns a summary dict (grid, optimum, residual maxima, file names).
    """
    table = run_sweep(spec)
    identities = identity_report(spec)
    eps = table.column("epsilon")

    files = {
        "fig2.csv": (("epsilon", "f_a", "f_b"),
                     np.column_stack([eps, table.column("f_a"), table.column("f_b")])),
        "fig3.csv": (("epsilon", "S"),
                     np.column_stack([eps, table.column("S")])),
        "fig4.csv": (("epsilon", "f_c", "f_d"),
                     np.column_stack([eps, table.column("f_c"), table.column("f_d")])),
    }
    for name, (header, data) in files.items():
        _write_csv(os.path.join(out_dir, name), header, data)
    identities.to_csv(os.path.join(out_dir, "identities.csv"))

    eps_star, s_max = find_max_squeezing(spec.gamma_c, spec.kappa)
    return {
        "gamma_c": spec.gamma_c,
        "kappa": spec.kappa,
        "eps_min": spec.eps_min,
        "eps_max": spec.eps_max,
        "n_points": spec.n_points,
        "eps_star": eps_star,
        "s_max": s_max,
        "max_residual_single": identities.max_residual_single,
        "max_residual_superposed": identities.max_residual_superposed,
        "files": sorted(list(files) + ["identities.csv"]),
    }
