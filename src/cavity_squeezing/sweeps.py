"""Parameter sweeps over the driving amplitude, and derived datasets.

The quantities of interest are smooth closed forms in ``epsilon``, so a
sweep is just an evaluation over a uniform grid.  This module produces

* the full sweep table of all eleven ``SWEEP_COLUMNS``,
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

import contextlib
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from . import single_mode, superposed
from .params import _MAX_DENOMINATOR, SystemParams, _denominator, _require_count

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
        object.__setattr__(self, "n_points", _require_count("n_points", self.n_points, 2))

    def grid(self) -> np.ndarray:
        return np.linspace(self.eps_min, self.eps_max, self.n_points)


# The CSV writer formats a block of entries at a time in numpy and matches
# ``"%.12e" % x`` byte for byte, as ASCII bytes.  Each entry becomes a 24-byte
# record of six uint32 words: (NUL, sign or NUL, lead digit, '.'), three
# 4-digit groups, and as one uint64 ('e', exponent sign, 2 or 3 exponent
# digits, ',' or, in the last column, '\n', then NULs); a ``%`` text is
# right-aligned to end at byte 20.  Every record of a block is exactly bytes 2
# to 20 when no entry has its sign bit set, every exactly rounded entry has a
# two-digit exponent and every ``%`` text is 18 bytes long; such a block is cut
# out as one slice, and any other block has its padding deleted.
#
# Exactness.  With e = floor(log10|x|), the mantissa is rint(y) for
# y = |x| * 10**(12 - e), taken from a table of correctly rounded powers, so
# the computed y carries two roundings: |y' - y| <= 2**-52 * y < 2.221e-3 for
# y' < 1e13.  An entry goes to ``%`` when y' lies within _GUARD of a
# half-integer, where rint could round the wrong way or meet a tie.  Any
# other entry has |y - rint(y')| <= 0.5 - _GUARD + 2.221e-3 < 0.5, so y is no
# tie and rounds to the same integer.  Non-finite values, subnormals and
# values outside [1e-270, 1e270) go to ``%`` too, which keeps the power table
# finite.  Renormalised, y' may still lie just across 1e12 or 1e13 from y,
# within 2.3e-3 of it; both then round to 1e12, or both to 1e13, which prints
# as 1e12 at the next exponent.  The digit groups of the integer m < 2e13 (a
# set sign bit adds 1e13) are split four digits at a time in float64:
# (m + 0.5) * 1e-4 is at least 5e-5 from an integer and off by less than
# 5e-7, so its floor is exact.
_POWERS = np.array([float(f"1e{k}") for k in range(-300, 301)])  # index k + 300
_GUARD = 0.003
_BLOCK_ENTRIES = 8192  # the temporaries of a block peak at about 1.2 MB
# Word 0 by sign * 10 + lead digit, a group word by its value, the exponent
# and separator word by e + 300 (',') or e + 901 ('\n').
_HEAD = np.frombuffer(b"".join(b"\0" + sign + b"%d." % d
                               for sign in (b"\0", b"-") for d in range(10)), np.uint32)
_GROUP = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TAIL = b"".join((b"e%c%02d," % (b"-+"[e >= 0], abs(e))).ljust(8, b"\0")
                 for e in range(-300, 301))
_TAIL = np.frombuffer(_TAIL + _TAIL.replace(b",", b"\n"), np.uint64)


def _format_block(block: np.ndarray) -> bytes:
    """The rows of ``block`` as ASCII CSV lines, each entry exactly ``"%.12e" % x``."""
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    outside = np.flatnonzero(~((a >= 1e-270) & (a < 1e270)))  # 0, nan and inf too
    a[outside] = 1.0  # no entry below can overflow or warn
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.intp)
    y = _POWERS.take(312 - e)
    y *= a
    if not (y.min() >= 1e12 and y.max() < 1e13):
        # log10 may be one off next to a power of ten: renormalise those entries.
        moved = np.flatnonzero((y < 1e12) | (y >= 1e13))
        e[moved] += (y[moved] >= 1e13).astype(np.intp) - (y[moved] < 1e12)
        y[moved] = a[moved] * _POWERS.take(312 - e[moved])
    m = np.rint(y)
    y -= m
    np.abs(y, out=y)
    y[outside] = 1.0
    inexact = np.flatnonzero(y > 0.5 - _GUARD)
    m[inexact] = 0.0  # zeros print from m = e = 0
    e[inexact] = 0
    slow = inexact[x.take(inexact) != 0.0]
    if m.max() == 1e13:  # rounded up to the next power of ten
        top = np.flatnonzero(m == 1e13)
        m[top] = 1e12
        e[top] += 1

    sign = np.signbit(x)
    fixed = not sign.any() and e.min() >= -99 and e.max() <= 99
    if slow.size:
        text = np.frombuffer((b"%20.12e" * slow.size) % tuple(x.take(slow).tolist()),
                             np.uint8).reshape(-1, 20)
        fixed = fixed and (text[:, 1] == 32).all() and (text[:, 2] != 32).all()
    if not fixed:
        np.add(m, 1e13, out=m, where=sign)
    out = np.empty((rows * cols, 6), np.uint32)
    for word in (3, 2, 1):
        q = m + 0.5
        q *= 1e-4
        np.floor(q, out=q)
        m -= q * 1e4
        out[:, word] = _GROUP.take(m.astype(np.intp))
        m = q
    out[:, 0] = _HEAD.take(m.astype(np.intp))
    e = e.reshape(rows, cols)
    e += 300
    e[:, -1] += 601
    out.view(np.uint64)[:, 2] = _TAIL.take(e.ravel())
    records = out.view(np.uint8)
    if slow.size:
        records[slow, :20] = text
    if fixed:
        return records[:, 2:21].view("V19").tobytes()
    return records.tobytes().translate(None, b"\0 ")  # a % text is padded with spaces


def _write_csv(path_or_file, header: tuple[str, ...], *columns) -> None:
    """Write ``header`` and the rows of ``columns`` in ``%.12e``, LF endings.

    ``columns`` are 1-D columns, 2-D groups of columns or both, side by side.
    A path is written in binary; a text stream is given ``str``.
    """
    _write_blocks(path_or_file, header, [columns])


def _write_blocks(path_or_file, header: tuple[str, ...], blocks) -> None:
    """Write ``header`` and the rows of each item of ``blocks`` as ``_write_csv`` does.

    Each item is a tuple of columns as ``_write_csv`` takes them, and is written
    before the next is drawn.  Rows are stacked, formatted and written
    ``_BLOCK_ENTRIES`` values at a time, so neither a table nor its text is
    ever held in memory whole.  A path is opened in binary and given each
    block's ASCII bytes; a text stream (``sys.stdout``, ``io.StringIO``) is
    given each block decoded to ``str``.  If writing to a path fails, ``blocks``
    raising included, the partial table is not left there: a file this call
    created is removed, a regular file that was already there is emptied, and a
    link or a device keeps what was written, as a stream does.
    """
    step = max(1, _BLOCK_ENTRIES // len(header))

    def write(put) -> None:
        put((",".join(header) + "\n").encode("ascii"))
        for columns in blocks:
            for start in range(0, len(columns[0]), step):
                block = np.column_stack([c[start:start + step] for c in columns])
                put(_format_block(block.astype(np.float64, copy=False)))
            del columns  # before the next item is drawn

    if hasattr(path_or_file, "write"):
        write(lambda data: path_or_file.write(data.decode("ascii")))
        return
    created = not os.path.lexists(path_or_file)
    fh = open(path_or_file, "wb")
    try:
        with fh:
            write(fh.write)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error propagates
            if stat.S_ISREG(os.lstat(path_or_file).st_mode):
                if created:
                    os.remove(path_or_file)
                else:
                    os.truncate(path_or_file, 0)
        raise


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
    params, columns = _columns(spec)
    rest = (superposed.superposed_squeezing(params)[0], single_mode.mean_photons(params)[0],
            superposed.superposed_mean_photons(params),
            single_mode.quadrature_variances(params)[0],
            superposed.superposed_variances(params)[0])
    return SweepTable(spec=spec, data=np.column_stack([*columns.values(), *rest]))


def _columns(spec: SweepSpec) -> tuple[SystemParams, dict]:
    """The grid's parameters and the first six ``SWEEP_COLUMNS`` by name on it,
    which the dataset files and the identities read."""
    params = SystemParams.from_gamma_c(spec.gamma_c, spec.kappa, spec.grid())
    f_c, f_d = superposed.superposed_bounds(params)
    values = [params.epsilon, single_mode.uncertainty_bound(params),
              single_mode.uncertainty_product(params), single_mode.squeezing(params), f_c, f_d]
    return params, dict(zip(SWEEP_COLUMNS, values))


def find_max_squeezing(gamma_c: float, kappa: float) -> tuple[float, float]:
    """Numerically maximise the squeezing over the driving amplitude.

    Coarse 1000-point scan over [0, 5 * sqrt(kappa*gamma_c/8)] followed
    by a ternary search narrowed to 5e-10 times that scale; independent
    of the closed-form optimum it should reproduce.  The scan stops where
    ``8 eps**2`` reaches half the drive bound (``kappa*gamma_c <= 1e76``).
    The rates are validated once, on entry; the scan and each probe, a drive
    inside that bound, evaluate the closed form of ``squeezing`` on them.
    """
    params = SystemParams.from_gamma_c(gamma_c, kappa, 0.0)  # validates the rates
    g, gc, k = params.g, params.gamma_c, params.kappa
    k_gc = k * gc

    def s_of(eps):
        return single_mode._squeezing(g, gc, k, eps, _denominator(eps, k_gc))

    scale = math.sqrt(kappa * gamma_c / 8.0)
    grid = np.linspace(0.0, min(5.0 * scale, math.sqrt(_MAX_DENOMINATOR / 16.0)), 1000)
    best = int(np.argmax(s_of(grid)))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])
    while hi - lo > 5e-10 * scale:
        third = (hi - lo) / 3.0
        if s_of(lo + third) < s_of(hi - third):
            lo += third
        else:
            hi -= third
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
    identity = _identity_columns(*_columns(spec))
    return IdentityReport(spec=spec, data=np.column_stack(list(identity.values())),
                          **_maxima(identity))


def _identity_columns(params: SystemParams, columns: dict) -> dict:
    """The ``_IDENTITY_COLUMNS`` by name, read off the bounds in ``columns`` (see
    ``_columns``); :func:`identity_report` stacks them, and the dataset files write them."""
    gc, k, d, eps4 = params.gamma_c, params.kappa, params.denominator, params.epsilon4

    f_a, f_b = columns["f_a"], columns["f_b"]
    gap_single = f_b * f_b - f_a * f_a
    pred_single = 64.0 * gc * gc * eps4 / (k * k * d * d)
    scale_single = np.maximum(np.maximum(abs(gap_single), abs(pred_single)), f_b * f_b)
    resid_single = abs(gap_single - pred_single) / scale_single

    f_c, f_d = columns["f_c"], columns["f_d"]
    gap_sup = f_d - f_c
    pred_sup = 128.0 * gc * eps4 / (k * d * d)
    scale_sup = np.maximum(np.maximum(abs(gap_sup), abs(pred_sup)), f_d)
    resid_sup = abs(gap_sup - pred_sup) / scale_sup

    return dict(zip(_IDENTITY_COLUMNS, (params.epsilon, gap_single, pred_single, resid_single,
                                        gap_sup, pred_sup, resid_sup)))


def _maxima(identity: dict) -> dict:
    """The residual maxima of :class:`IdentityReport` from the identity columns."""
    return {"max_residual_single": float(identity["residual_single"].max()),
            "max_residual_superposed": float(identity["residual_superposed"].max())}


def write_figure_files(spec: SweepSpec, out_dir) -> dict:
    """Write the standard dataset files into ``out_dir``.

    ``fig2.csv`` holds the uncertainty bound and product, ``fig3.csv``
    the squeezing curve, ``fig4.csv`` the superposed-mode bounds and
    ``identities.csv`` the identity residuals, all on the same grid.
    Returns a summary dict (grid, optimum, residual maxima, file names).
    """
    params, columns = _columns(spec)
    identity = _identity_columns(params, columns)

    files = {
        "fig2.csv": ("epsilon", "f_a", "f_b"),
        "fig3.csv": ("epsilon", "S"),
        "fig4.csv": ("epsilon", "f_c", "f_d"),
    }
    for name, header in files.items():
        _write_csv(os.path.join(out_dir, name), header, *(columns[c] for c in header))
    _write_csv(os.path.join(out_dir, "identities.csv"), _IDENTITY_COLUMNS, *identity.values())

    eps_star, s_max = find_max_squeezing(spec.gamma_c, spec.kappa)
    return {
        "gamma_c": spec.gamma_c,
        "kappa": spec.kappa,
        "eps_min": spec.eps_min,
        "eps_max": spec.eps_max,
        "n_points": spec.n_points,
        "eps_star": eps_star,
        "s_max": s_max,
        **_maxima(identity),
        "files": sorted(list(files) + ["identities.csv"]),
    }
