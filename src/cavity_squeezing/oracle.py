"""Independent master-equation oracle on a truncated Hilbert space.

Everything else in this package rests on closed forms.  This module
cross-checks them from first principles: it builds the atom-cavity
Hamiltonian and the cavity-decay Lindblad generator on the product space
(two atomic levels times a truncated Fock ladder), solves the stationary
equation as a sparse linear system, and reports moments of the resulting
density matrix next to the closed-form predictions.

The coupled solve uses the displaced (Mollow) frame ``a = alpha + b``,
``alpha = 2 eps/kappa`` (B. R. Mollow, Phys. Rev. A 12, 1919 (1975)): the
cavity drive cancels, leaving ``i g (sigma^dag b - b^dag sigma) +
i g alpha (sigma^dag - sigma)`` and ``kappa D[b]``, so the Fock cutoff
truncates the small fluctuation field ``b``.  All generators, states and
moments are real (``float64``); :meth:`DensityMatrix.field_moments` maps
moments back to ``a``.  The ``g = 0`` limit, solved in the lab frame on the
cavity's ``n_cut + 1`` states with the atom in its lower level, still
checks ``alpha`` independently.

Conventions, fixed once and used everywhere:

* basis order is row-major with the atom index slow and the Fock index
  fast, atomic basis ``[upper, lower]``;
* density matrices are vectorised by column stacking, so a left factor
  ``A`` becomes ``I (x) A``, a right factor ``B`` becomes ``B^T (x) I``,
  and for a real ``A`` the sandwich ``A rho A^T`` becomes ``A (x) A``;
* the stationary state is solved for on the real-symmetric subspace, its
  ``d(d+1)/2`` entries ``i <= j``: half the unknowns, and no rounding in the
  antisymmetric part, a nearly null direction of the generator at strong
  drive; the folded system is the generator's own entries re-indexed onto
  those unknowns, with the trace row in place of the redundant ``(0, 0)`` one;
* the unknowns and their rows are numbered once, in the reverse Cuthill-McKee order of
  the folded pattern taken in ``triu`` order, and LAPACK's banded LU factors every system
  in that numbering (``_Band``, half-bandwidths 34/34 at rung 16), with one step of
  iterative refinement;
* every solve runs in units of ``kappa``: the rates reach the generator, whose jump terms
  are those of ``kappa = 1``, as ``g/kappa`` and ``eps/kappa``, so multiplying every rate by
  ``2**k`` leaves the state's bits unchanged, and the residual gate bounds ``drho/dt`` in
  units of ``kappa``; the reported residual is multiplied back by ``kappa``;
* every cutoff has one acceptance rule (``_settled``): rung n = 16, 32, ... is solved
  directly and certified from its own top Fock shell.  No generator term moves a Fock
  number by more than 1, so on rung n's state padded with zeros every larger cutoff has
  two kinds of rows: rung n's own, which carry its rounding and which the residual gate
  already bounds, and a ring at Fock number n + 1, which sees one entry of ``K``, the one
  that raises Fock number n, times the top shell: the truncation.  Rung n passes when the
  ring is at most a normwise backward error of 1e-15 of rung n's folded generator rows
  (J. L. Rigal and J. Gaches, J. ACM 14, 543 (1967)); no rung n + 1 is built.  A state
  stays on the space it was solved on, which its :class:`HilbertConfig` names;
* what the rates leave unchanged is built once, in read-only arrays, per cutoff and
  atomic levels (``_frame``: 2, the product space, or 1, the ``g = 0`` cavity) in one object:
  the dissipator's keys and values, the Hamiltonian's unit parts on their slots, per pattern
  of ``K = -i H`` the generator's plan and the folded system's, built together, and the
  moments' gathers, which a state reads on the frame that solved it.  A rung evaluates its
  rates on the slots as ``k``; ``K`` has a zero diagonal and meets no other Kronecker term in
  a slot, so each generator entry is one entry of ``[k, -k, rate-free values]``, and each
  folded entry one of them or the sum of two.  The rung gathers both systems from that
  array, solves and gathers the moments.

The oracle's quadrature variances use the standard commutator, whose
vacuum level is 1 for both quadratures; the closed forms use the
effective-mode normalisation.  The two disagree by design, so the report
carries both values without judging the difference.

Only the stationary solve loads scipy, when it runs: ``import scipy`` alone, and LAPACK's
banded LU from the file of scipy's extension module (``_lapack``); no run imports
``scipy.sparse`` or ``scipy.linalg``.  The module, its frames, their Hamiltonians and the
sparse matrices, which the index plans build as CSR on numpy arrays (``_Matrix``), cost
numpy alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from . import single_mode, superposed
from .params import (_DIM_CAP, DimensionCap, SingularSystem, SystemParams,
                     _require_bounded_drive, _require_count, _require_drive,
                     _require_one_drive, _require_rate)

__all__ = [
    "DimensionCap",
    "SingularSystem",
    "HilbertConfig",
    "DensityMatrix",
    "OracleReport",
    "steady_density",
    "standard_quadrature_variances",
    "compare_with_closed_form",
    "cutoff_converged",
    "decoupled_benchmark",
]

_FRAMEWORK_NOTE = (
    "oracle variances use the standard commutator (vacuum level 1); "
    "closed-form variances use the effective-mode normalisation "
    "(vacuum level gamma_c/kappa), so their difference is expected "
    "and carries no pass/fail meaning"
)


# The cutoff ladder's first rung, and the largest stationary residual, in units of kappa,
# that the unfolded generator may leave on an accepted state.  At the canonical gamma_c and
# kappa the residuals of the powers of 10 of eps up to 1e35 stay at or below 3.9e-10, and
# the bound refuses the rounding of three (1e18, 1e19 and 1e22: 2.5e-1, 7.2 and 2.2e-7).
_LADDER_START = 16
_RESIDUAL_TOL = 1e-8
# A rung passes when its top shell's ring is at most this backward error of its folded
# generator rows (_settled).  At 36 good-cavity points (gamma_c 1, kappa/gamma_c 0.05 to 0.2,
# x = 8 eps**2/(kappa gamma_c) 1e2 to 1e4) the ring fell from 1e-8 to 5e-4 at rung 16 to
# 4.4e-25 or less at 64, and the rungs' own rows stayed at or below 2.6e-16 by that measure.
_BACKWARD_TOL = 1e-15


@dataclass(frozen=True)
class HilbertConfig:
    """A truncated space: ``levels`` atomic levels (2, or 1 for the ``g = 0`` cavity with the
    atom in its lower level) times the Fock states 0..n_cut, dimension ``levels*(n_cut+1)``.

    ``n_cut`` must be at least 2 (quadrature variances need two rungs of the ladder); a
    ``dim`` above ``dim_cap`` raises :class:`DimensionCap` at construction, so no oversized
    operator is built: a run builds each rung's config with its own cap.
    """

    n_cut: int
    dim_cap: int = _DIM_CAP
    levels: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cut", _require_count("n_cut", self.n_cut, 2))
        object.__setattr__(self, "dim_cap", _require_count("dim_cap", self.dim_cap, 6))
        object.__setattr__(self, "levels", _require_count("levels", self.levels, 1, 2))
        if self.dim > self.dim_cap:
            size = f"{self.n_cut}+1" if self.levels == 1 else f"2*({self.n_cut}+1)"
            raise DimensionCap(f"dimension {size}={self.dim} exceeds cap {self.dim_cap}")

    @property
    def dim(self) -> int:
        return self.levels * (self.n_cut + 1)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _lowering(m: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, m)), 1)  # Fock states 0..m-1


def _product_operators(n_cut: int) -> dict:
    """The product space's dense operators at ``n_cut``, read-only."""
    m = n_cut + 1
    return {"a": _frozen(np.kron(np.eye(2), _lowering(m))),
            "sigma": _frozen(np.eye(2 * m, k=-m)),  # |b><a|: upper block to lower block
            "eta_a": _frozen(np.diag(np.repeat([1.0, 0.0], m))),
            "eta_b": _frozen(np.diag(np.repeat([0.0, 1.0], m)))}


class _Frame:
    """A truncated space's rate-independent parts, in read-only arrays.  What the jump
    operator ``a`` fixes in a generator: the dimension ``d``, the nonzeros and values of ``a``
    (``jump``), the diagonal ``n`` of ``a^T a``, which must be diagonal, and the
    :attr:`dissipator` they give.  The Hamiltonian's unit parts, for the solves ``J = sigma^dag
    a - a^dag sigma``, ``S = sigma^dag - sigma`` and ``E = a^dag - a``, on ``slots``, the union
    of their nonzeros (flat, row-major).  ``plans``, by ``K``'s nonzero mask over ``slots``:
    the generator's plan and what :func:`_fold_plan` makes of it, ``(plan, pos, fold plan)``,
    built on the pattern's first solve.  And ``gathers``, one per dense operator of ``reads``:
    the :func:`_gather` of ``tr(op rho)``.

    The units' nonzeros are at least 1 in magnitude and no two units share a slot, so on
    a unit's slots ``K`` is one rate, ``g``, ``g shift`` or ``eps``, times the unit, and a
    nonzero rate times such an entry does not underflow to 0: ``K`` is 0 on all of a
    unit's slots or on none.  A pattern is a union of whole units: at most 8 plans.
    """

    def __init__(self, a: np.ndarray, units: list, reads=()):
        n_op = a.T @ a
        self.d, self.n = len(a), _frozen(np.diag(n_op).copy())
        if np.count_nonzero(n_op) != np.count_nonzero(self.n):
            raise ValueError("n = a^T a is not diagonal")
        rows, cols = np.nonzero(a)
        self.jump = (_frozen(rows), _frozen(cols)), _frozen(a[rows, cols])
        self.slots = _frozen(np.flatnonzero(np.any(units, axis=0)))
        self.units = _frozen(np.array([unit.ravel()[self.slots] for unit in units]))
        self.plans = {}
        self.gathers = tuple(tuple(map(_frozen, _gather(op))) for op in reads)

    @cached_property
    def dissipator(self) -> tuple[np.ndarray, np.ndarray]:
        """``D = a (x) a - (I (x) n + n (x) I)/2``, built on the frame's first solve: the
        row-major keys of its nonzeros, ``a (x) a``'s, then the diagonal's, and ``rate_free``,
        their values, each diagonal entry's two halves summed once, followed by the 1 of the
        folded system's trace row."""
        d, n, ((rows, cols), values) = self.d, self.n, self.jump
        t = np.uint32 if d <= 256 else np.int64  # for the keys row * d**2 + col
        diagonal = np.flatnonzero(np.logical_or.outer(n != 0, n != 0))  # row i d + j
        jumps = (rows * d**3 + cols * d).astype(t)[:, None] + (rows * d * d + cols).astype(t)
        keys = np.r_[jumps.ravel(), (diagonal * (d * d + 1)).astype(t)]
        half = -0.5 * n
        rate_free = np.r_[np.multiply.outer(values, values).ravel(),
                          np.add.outer(half, half).ravel()[diagonal], 1.0]
        return _frozen(keys), _frozen(rate_free)

    def at(self, g: float, epsilon: float, shift: float):
        """``K = -i H`` on the slots, entry by entry, for the model's Hamiltonian ``H = i g
        (sigma^dag a - a^dag sigma) + i eps (a^dag - a)`` in the frame ``a -> shift + a``.
        The shift adds the atomic pump ``i g shift (sigma^dag - sigma)`` and leaves the
        cavity drive ``eps - kappa shift / 2``, which the displaced solve sets to 0."""
        j, s, e = self.units
        return g * (j + shift * s) + epsilon * e


# oracle_ladder runs use 3: product space 16; g = 0 16 and 32
@lru_cache(maxsize=12)
def _frame(n_cut: int, levels: int) -> _Frame:
    """The frame of the space of ``levels`` at ``n_cut``: the product space's (2), with the
    gathers of ``b``, ``b^2``, ``b^dag b``, ``sigma``, ``eta_a`` and ``eta_b``, ``b = a``; or
    the cavity's own (1), where the atom stays in its lower level and only ``E`` is left,
    with the gathers of ``b``, ``b^2`` and ``b^dag b``."""
    if levels == 2:
        ops = _product_operators(n_cut)
        a, s = ops["a"], ops["sigma"]
        return _Frame(a, [s.T @ a - a.T @ s, s.T - s, a.T - a],
                      (a, a @ a, a.T @ a, s, ops["eta_a"], ops["eta_b"]))
    a = _lowering(n_cut + 1)
    return _Frame(a, [np.zeros_like(a), np.zeros_like(a), a.T - a], (a, a @ a, a.T @ a))


def _generator(frame: _Frame, k):
    """The generator of ``K`` valued ``k`` on ``frame.slots`` and of the frame's jump operator
    at ``kappa = 1``, ``pos`` and the folded system, in ``pos``'s numbering, that sums ``(r, s)``
    with ``(s, r)``: both gathered from ``[k, -k, rate_free]`` (:attr:`_Frame.dissipator`) by
    the plans of ``K``'s pattern, which its first solve builds.  ``K``'s zeros drop out of its
    pattern, and a non-finite ``K`` raises ``ValueError``."""
    if not np.all(np.isfinite(k)):
        raise ValueError("K = -i H has a non-finite entry")
    nonzero = k != 0
    plans = frame.plans.get(key := nonzero.tobytes())
    if plans is None:
        plan = _generator_plan(frame, frame.slots[nonzero])
        plans = frame.plans[key] = (plan, *_fold_plan(frame, plan))
    plan, pos, fold = plans
    ext = np.concatenate((k, -k, frame.dissipator[1]))
    return plan(ext), pos, fold(ext)


def _generator_plan(frame: _Frame, k_slots):
    """The index plan of the Kronecker sum ``I (x) K - K^T (x) I + D`` for ``K``'s nonzeros at
    the flat ``k_slots``, ``D`` the frame's dissipator, on ``[k, -k, rate_free]`` for
    ``K`` valued ``k`` on ``frame.slots``.  Each term holds a slot at most once, so ``K^T``'s
    entries may come in ``K``'s order, and as ``K`` and ``a`` have zero diagonals no two terms
    meet in a slot: each stored entry is one of ``k``, ``-k`` or ``rate_free``."""
    d, s, (dissipator, _) = frame.d, frame.slots.size, frame.dissipator
    at = np.searchsorted(frame.slots, k_slots).astype(np.int32)  # their places in k
    k_rows, k_cols = np.divmod(k_slots, d)
    eye, t = np.arange(d), dissipator.dtype
    left = (eye * (d**3 + d)).astype(t)[:, None] + (k_rows * d * d + k_cols).astype(t)
    right = (k_cols * d**3 + k_rows * d).astype(t)[:, None] + (eye * (d * d + 1)).astype(t)
    plan = _IndexPlan(np.concatenate([left, right, dissipator], axis=None), d * d, np.concatenate(
        [np.broadcast_to(at, left.shape), np.broadcast_to(s + at[:, None], right.shape),
         np.arange(2 * s, 2 * s + dissipator.size, dtype=np.int32)], axis=None))
    if plan.pairs.size:
        raise ValueError("the generator's terms meet in a slot: K or a has a nonzero diagonal")
    return plan


class _IndexPlan:
    """``plan(ext)``: the ``n x n`` CSR :class:`_Matrix` whose stored entries sum ``ext`` at
    ``sources``, one per key ``row * n + col``.  The keys come in any order, which it sorts
    stably, and at most two to a slot, else ``ValueError``: entry ``i`` is ``ext[first[i]]``,
    and the entries ``pairs`` add ``ext[second]``.  Every matrix it builds shares its read-only
    ``indices`` and ``indptr``, and carries the plan as its ``plan``."""

    def __init__(self, keys, n: int, sources):
        order = keys.argsort(kind="stable")
        keys, sources = keys[order], sources.astype(np.int32, copy=False)[order]
        first = np.diff(keys, prepend=~keys[:1]) != 0  # each slot's first key
        more = np.flatnonzero(~first)  # the second ones, at slots more - 1, more - 2, ...
        pairs = more - np.arange(1, more.size + 1)
        if np.any(pairs[1:] == pairs[:-1]):
            raise ValueError("more than two keys meet in a slot")
        row, col = np.divmod(keys[first], n)
        del keys, order  # so that the arrays kept below can take their place
        self.n = n
        self.first, self.pairs, self.second, self.indices, self.indptr = map(_frozen, (
            sources[first], pairs.astype(np.int32), sources[more], col.astype(np.int32),
            np.bincount(row + 1, minlength=n + 1).cumsum(dtype=np.int32)))

    def __call__(self, ext) -> _Matrix:
        data = ext.take(self.first)
        if self.pairs.size:
            data[self.pairs] += ext.take(self.second)
        return _Matrix(self, data)

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column of each stored entry, in storage order."""
        rows = _frozen(np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr)))
        return rows, self.indices

    @cached_property
    def band(self) -> _Band:
        """The :class:`_Band` of the pattern, built on its first solve."""
        return _Band(self)


class _Matrix:
    """The ``n x n`` CSR matrix that ``plan`` builds from ``data`` on the plan's read-only
    ``indices`` and ``indptr``.  ``matrix @ x`` sums each row from +0.0 over its stored
    entries in storage order, ascending columns, the order of scipy's ``csr_matvec``, so it
    gives scipy's bits, and as there an overflow is silent."""

    def __init__(self, plan: _IndexPlan, data: np.ndarray):
        self.plan, self.data, self.indices, self.indptr = plan, data, plan.indices, plan.indptr
        self.shape, self.nnz = (plan.n, plan.n), data.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        rows, cols = self.plan.entries
        with np.errstate(over="ignore", invalid="ignore"):
            products = self.data * x.take(cols)
        return np.bincount(rows, products, self.shape[0])


@dataclass(frozen=True)
class DensityMatrix:
    """A stationary density matrix, the residual of the equation it solves, and its space.

    ``matrix`` is real and exactly symmetric: every solve reads it through a symmetric
    index.  ``residual`` is the max-entrywise ``drho/dt`` under the original (unmodified)
    generator, in rate units; ``ops`` is the truncated Hilbert space, ``ops.dim`` square, that
    ``matrix`` was solved on: the product space, or the ``g = 0`` cavity's (``levels`` 1).
    ``shift`` is the frame: the state's ladder operator ``b`` is the lab field minus ``shift``.
    """

    matrix: np.ndarray
    residual: float
    ops: HilbertConfig = field(repr=False)
    shift: float = 0.0

    def trace_error(self) -> float:
        return float(abs(np.trace(self.matrix) - 1.0))

    def hermiticity_error(self) -> float:
        return float(np.abs(self.matrix - self.matrix.T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def expect(self, op: np.ndarray) -> float:
        return self._read(_gather(op))

    def _read(self, gather) -> float:
        values, rows, cols = gather
        return float(values @ self.matrix[rows, cols])

    @cached_property
    def moments(self) -> tuple[float, ...]:
        """``<b>``, ``<b^2>``, ``<b^dag b>`` and, on the product space, ``<sigma>``,
        ``<sigma^dag sigma>`` and ``<sigma sigma^dag>``: every gather of the frame that
        solved the state, ``b`` its ladder operator, read once per state."""
        return tuple(map(self._read, _frame(self.ops.n_cut, self.ops.levels).gathers))

    def field_moments(self) -> tuple[float, float, float]:
        """Lab-frame ``<a>``, ``<a^2>``, ``<a^dag a>`` from ``a = shift + b``; the one
        place the frame is undone.  Variances do not change under it and are read
        in the solved frame: from these, terms of size ``4 shift**2`` would cancel."""
        s, (mean_b, mean_b2, n_b) = self.shift, self.moments[:3]
        return s + mean_b, s * s + 2.0 * s * mean_b + mean_b2, s * s + 2.0 * s * mean_b + n_b


def _gather(op: np.ndarray):
    """``tr(op rho)`` as a gather over the nonzeros of the dense ``op``: their values, cast
    safely to ``float64`` (else ``TypeError``), and the rows and columns of ``rho`` they meet."""
    rows, cols = np.nonzero(op)
    return op[rows, cols].astype(float, casting="safe"), cols, rows


def spsolve(system, rhs) -> np.ndarray:
    """The solution of the folded CSR ``system``, which a fold plan built (:func:`_fold_plan`),
    by the band of the system's plan (:class:`_Band`).  :func:`_stationary` calls it by this
    name, and an exactly singular factor raises ``RuntimeError``."""
    return system.plan.band.solve(system, rhs)


@lru_cache(maxsize=1)
def _lapack():
    """LAPACK's ``dgbtrf`` and ``dgbtrs``, as ``scipy.linalg.lapack`` exports them, from the
    extension module ``scipy.linalg._flapack`` loaded from its file after ``import scipy``
    alone: 2.2 ms and 2.7 MB, against 106-119 ms and 27 MB for ``import scipy.linalg.lapack``,
    whose package imports most of scipy (scipy 1.17, one core of a 2-core host).  CPython
    lists an extension module of its kind in ``sys.modules`` as it loads it; the entry is
    taken out again, so that a later ``import scipy.linalg`` loads its own copy, with the
    same functions, as it would have."""
    import scipy
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
        path = next(base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.exists(base + suffix))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        del sys.modules[name]
    return module.dgbtrf, module.dgbtrs


class _Band:
    """LAPACK's banded LU with partial pivoting (``dgbtrf``, ``dgbtrs``) of the systems of
    one pattern, in the plan's own numbering, which :func:`_fold_plan` has made the order to
    factor in: ``kl``/``ku`` are the half-bandwidths of the plan's entries (34/34 at rung
    16).  ``at`` sends each stored entry, in storage order, to its place in the
    Fortran-ordered band of ``shape``, whose first ``kl`` rows take the pivots' fill.
    """

    def __init__(self, plan: _IndexPlan):
        rows, cols = (x.astype(np.int64) for x in plan.entries)
        self.kl, self.ku = int((rows - cols).max()), int((cols - rows).max())
        self.shape = (2 * self.kl + self.ku + 1, plan.n)
        self.at = _frozen(cols * self.shape[0] + self.kl + self.ku + rows - cols)

    def solve(self, system, rhs) -> np.ndarray:
        """``system``'s solution after one step of iterative refinement on its own residual,
        unless the step leaves a larger residual in the rows whose right-hand side is 0, the
        generator's.  The step recovers what pivoting loses (at the canonical point the
        residual in units of kappa falls from 5.9e-17 to 2.3e-17).  Where the entries are
        large, the step's own residual carries their rounding (eps 1e9 at gamma_c 0.4, kappa
        0.8: 3.0e-8 on the residual gate, against 4.5e-11 before it), and the step is dropped."""
        dgbtrf, dgbtrs = _lapack()
        band = np.zeros(self.shape, order="F")
        band.reshape(-1, order="F")[self.at] = system.data
        lu, pivots, info = dgbtrf(band, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular: U({info}, {info}) is 0")

        x = dgbtrs(lu, self.kl, self.ku, rhs, pivots)[0]
        residual = rhs - system @ x
        refined = x + dgbtrs(lu, self.kl, self.ku, residual, pivots)[0]
        generator = rhs == 0
        kept = np.abs(rhs - system @ refined)[generator].max() <= np.abs(residual)[generator].max()
        return refined if kept else x


def _cuthill_mckee(ptr, adj) -> np.ndarray:
    """The Cuthill-McKee order of the symmetric graph whose CSR pattern is ``ptr`` and
    ``adj`` (E. Cuthill and J. McKee, Proc. 24th ACM Nat. Conf. (1969)).  Each
    component is searched breadth first from an unnumbered node of least degree; each
    node's unnumbered neighbours follow it by degree, then index, in the order of the nodes
    that reach them first.  It is built a level at a time rather than node by node, and
    without loading ``scipy.sparse.csgraph`` (1.1 MB and 3-7 ms), whose
    ``reverse_cuthill_mckee`` breaks ties otherwise: on the folded patterns in ``triu``
    numbering its order is wider (46/46 at rung 16)."""
    degree = np.diff(ptr)
    seen, parts = np.zeros(degree.size, bool), []
    while not seen.all():
        unseen = np.flatnonzero(~seen)
        frontier = unseen[degree[unseen].argmin(keepdims=True)]
        seen[frontier] = True
        while frontier.size:
            parts.append(frontier)
            counts = degree[frontier]
            near = adj[np.repeat(ptr[frontier] - np.cumsum(counts) + counts, counts)
                       + np.arange(counts.sum())]
            new = ~seen[near]
            near, by = near[new], np.repeat(np.arange(frontier.size), counts)[new]
            near = near[np.lexsort((near, degree[near], by))]
            frontier = near[np.sort(np.unique(near, return_index=True)[1])]
            seen[frontier] = True
    return np.concatenate(parts)


def _stationary(frame: _Frame, k) -> tuple[np.ndarray, float, float]:
    """The real symmetric stationary state of the generator ``L`` of :func:`_generator`.

    ``L`` maps symmetric matrices to symmetric ones, so the rows of ``(i, j)`` and
    ``(j, i)`` coincide: keep ``i <= j``, send the row and column of each entry ``(r, s)``
    to unknown ``pos[r, s]``, and put the trace row in place of ``(0, 0)``'s.  Returns the
    state, its residual ``max |L vec(rho)|`` on the unfolded ``L``, at most ``_RESIDUAL_TOL``,
    and the folded system's norm: the largest absolute row sum of the generator's rows.
    """
    lv, pos, system = _generator(frame, k)
    try:
        x = spsolve(system, np.eye(1, system.shape[0], pos[0, 0])[0])  # the trace row's 1
    except RuntimeError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("stationary solve produced non-finite entries")
    rho = x[pos]
    residual = float(np.abs(lv @ rho.ravel("F")).max())
    if not math.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e}")
    rows = np.bincount(system.plan.entries[0], np.abs(system.data), x.size)
    return rho, residual, float(np.delete(rows, pos[0, 0]).max())


def _fold_plan(frame: _Frame, plan: _IndexPlan):
    """``pos`` and the folded system's plan for the generator that ``plan`` builds on
    ``frame``: the trace row's ``d`` entries, each the 1 that ends ``ext``, then the generator's
    entries kept, each the entry of ``ext`` that ``plan`` gathers, at row-major keys.

    The unknowns ``(r, s)``, ``r <= s``, and their rows are numbered in ``triu`` order, the
    trace row in place of ``(0, 0)``'s, and then once more, for good, in the reverse of
    :func:`_cuthill_mckee`'s order of that pattern's symmetrised graph, its edges both ways,
    each once: ``pos[r, s]`` is the final number, and the folded system comes symmetrically
    permuted into the order that :class:`_Band` factors in.  The order is read off the
    pattern alone, on every build.
    """
    d, indptr, indices = frame.d, plan.indptr, plan.indices
    i, j = np.triu_indices(d)
    n, t = i.size, np.uint32 if d <= 361 else np.int64  # for the keys row * n + col
    pos = np.empty((d, d), dtype=np.int64)
    pos[i, j] = pos[j, i] = np.arange(n)
    rows = (i + d * j)[1:]  # by number, but the trace row, number 0
    counts = np.diff(indptr)[rows]
    kept = np.repeat(indptr[rows] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    row = np.r_[np.zeros(d, np.int64), np.repeat(np.arange(1, n), counts)]
    col = np.r_[np.diag(pos), pos.ravel("F")[indices[kept]]]
    edges = np.sort(np.r_[row * n + col, col * n + row])
    edges = edges[np.r_[True, edges[1:] != edges[:-1]]]
    order = _cuthill_mckee(np.bincount(edges // n + 1, minlength=n + 1).cumsum(), edges % n)
    number = np.empty(n, np.int64)
    number[order[::-1]] = np.arange(n)
    keys = (number[row] * n + number[col]).astype(t)
    trace = 2 * frame.slots.size + frame.dissipator[1].size - 1  # the 1 that ends ext
    sources = np.r_[np.full(d, trace, np.int32), plan.first[kept]]
    return _frozen(number[pos].astype(np.int32)), _IndexPlan(keys, n, sources)


def steady_density(params: SystemParams, config: HilbertConfig) -> DensityMatrix:
    """Stationary density matrix of the full master equation, in the displaced frame, at
    ``config``'s cutoff.

    ``config.n_cut`` truncates the fluctuation field ``b = a - 2 eps/kappa``.  A smaller
    rung that settles it (see :func:`_settled`) gives its own state, on its own space
    (``ops``), with its residual on every cutoff above it, ``config``'s included, and
    ``config``'s frame is not built: padded with zeros, index by index (atom slow, Fock
    fast), that state is ``config``'s.  Otherwise ``config.n_cut`` is solved directly.
    Raises :class:`SingularSystem` when the linear solve fails or the
    recovered state does not actually annihilate the generator to
    ``_RESIDUAL_TOL`` in units of ``kappa`` (a degenerate stationary manifold looks like this).
    """
    if config.levels != 2:
        raise ValueError(f"steady_density solves on 2 atomic levels, got {config.levels}")
    return _settled(_displaced(params), params.kappa, config, fixed=True)


def _displaced(params: SystemParams) -> tuple[float, float, float]:
    """:meth:`_Frame.at`'s rates of the displaced frame, which cancels the cavity drive, in
    units of ``kappa``."""
    return params.g / params.kappa, 0.0, 2.0 * _require_one_drive(params.epsilon) / params.kappa


def _settled(rates, kappa: float, config: HilbertConfig, fixed: bool = False) -> DensityMatrix:
    """The stationary state on ``config``'s space, ``K`` valued ``_Frame.at(*rates)`` for
    ``rates`` in units of ``kappa``, solved at ``kappa = 1``, at the cutoff that the one
    acceptance rule picks: rung ``n`` = ``_LADDER_START``, ``2 n``, ... is solved directly and
    passes on its top Fock shell.  The state returned is always a solve's own, on the space it
    was solved on, which its ``ops`` names with ``config``'s levels and cap, and its residual,
    gated in units of ``kappa``, is multiplied back by ``kappa``.

    On rung n's state padded with zeros, the ring of rows at Fock number ``n + 1`` reads the
    one entry of ``K`` that raises Fock number n (``g sqrt(n + 1)`` from the upper level in
    the displaced frame, ``eps sqrt(n + 1)`` at ``g = 0``) times row n of ``rho``.  Rung n
    passes when the ring is at most ``_BACKWARD_TOL`` times its folded norm times ``max
    |rho|``, and at most ``_RESIDUAL_TOL``, which its own rows already meet.

    Unless ``fixed``, this is the ladder from ``config.n_cut`` up: the first passing rung's
    state and residual; a rung's failed solve, or :class:`DimensionCap` from the first rung's
    config, raises.  With ``fixed``, the rungs below ``config``'s cutoff N are tried, a failed
    solve is a miss, and a hit is rung n's state with the residual ``max(its own, the ring)``,
    that of its padding on every cutoff above n, N's included, and N's frame is not built;
    once no rung passes, N is solved directly.
    """
    n_cut = _LADDER_START if fixed else config.n_cut
    while not fixed or n_cut < config.n_cut:
        rung = replace(config, n_cut=n_cut)
        try:
            rho, residual, norm = _stationary(frame := _frame(n_cut, config.levels),
                                              frame.at(*rates))
        except SingularSystem:
            if not fixed:
                raise
        else:
            raising = abs(rates[0] if config.levels == 2 else rates[1]) * math.sqrt(n_cut + 1)
            ring = float(raising * np.abs(rho[n_cut]).max())
            if ring <= min(_BACKWARD_TOL * norm * np.abs(rho).max(), _RESIDUAL_TOL):
                if fixed:
                    residual = max(residual, ring)
                break
        n_cut *= 2
    else:
        rung, frame = config, _frame(config.n_cut, config.levels)
        rho, residual, _ = _stationary(frame, frame.at(*rates))
    return DensityMatrix(matrix=rho, residual=residual * kappa, ops=rung, shift=rates[2])


def standard_quadrature_variances(rho: DensityMatrix) -> tuple[float, float]:
    """Quadrature variances with the standard commutator (vacuum is (1, 1)).

    Plus quadrature is ``a + a^dag``, minus is ``-i (a - a^dag)``; both
    give exactly 1 in the vacuum and in any coherent state.  They do not
    depend on the frame, so they are read from :attr:`DensityMatrix.moments`.
    """
    mean, mean_sq, n_b = rho.moments[:3]
    sym = 2.0 * n_b + 1.0  # <b b^dag + b^dag b> via the commutator
    var_plus = sym + 2.0 * mean_sq - 2.0 * (mean * mean) - 2.0 * abs(mean) ** 2
    var_minus = sym - 2.0 * mean_sq + 2.0 * (mean * mean) - 2.0 * abs(mean) ** 2
    return var_plus, var_minus


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side comparison of oracle moments and closed forms.

    ``comparisons`` maps quantity names to dicts with keys ``oracle``,
    ``closed_form`` and ``delta``.  Every Hamiltonian of the model is ``i`` times a
    real matrix and the jump operator is real, so the state and every oracle moment
    are real (``float64``): ``max_imag_part`` is 0.0 by construction.
    """

    g: float
    kappa: float
    epsilon: float
    gamma_c: float
    n_cut: int
    residual: float
    trace_error: float
    hermiticity_error: float
    min_eigenvalue: float
    max_imag_part: float
    comparisons: dict = field(repr=False)
    framework_note: str = _FRAMEWORK_NOTE

    def to_dict(self) -> dict:
        """The fields by name; ``comparisons`` and its entries are copies."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["comparisons"] = {name: dict(entry) for name, entry in self.comparisons.items()}
        return out


def _build_report(rho: DensityMatrix, params: SystemParams, n_cut: int) -> OracleReport:
    mean_a, mean_a2, mean_n = rho.field_moments()
    *_, sigma, eta_a, eta_b = rho.moments
    var_plus, var_minus = standard_quadrature_variances(rho)
    moments = {
        "mean_photon_number": mean_n,
        "mean_field": mean_a,
        "mean_field_squared": mean_a2,
        "eta_a": eta_a,
        "eta_b": eta_b,
        "sigma": sigma,
        "var_plus": var_plus,
        "var_minus": var_minus,
    }

    atom = single_mode.steady_atom(params)
    cf_var_plus, cf_var_minus, _ = single_mode.quadrature_variances(params)
    n_bar, _, n_absorbed, n_drive = single_mode.mean_photons(params)
    # The superposed mode has <c> = <a> (1 + i); <a^2> = n_drive - n_absorbed.
    c_mean, _ = superposed.superposed_first_moments(params)
    closed = {
        "mean_photon_number": n_bar,
        "mean_field": c_mean.real,
        "mean_field_squared": n_drive - n_absorbed,
        "eta_a": atom.eta_a,
        "eta_b": atom.eta_b,
        "sigma": atom.sigma,
        "var_plus": cf_var_plus,
        "var_minus": cf_var_minus,
    }

    comparisons = {
        name: {"oracle": value, "closed_form": closed[name], "delta": value - closed[name]}
        for name, value in moments.items()
    }
    least = rho.min_eigenvalue()  # padding rho onto a larger n_cut adds zeros to the spectrum
    return OracleReport(
        g=params.g,
        kappa=params.kappa,
        epsilon=params.epsilon,
        gamma_c=params.gamma_c,
        n_cut=n_cut,
        residual=rho.residual,
        trace_error=rho.trace_error(),
        hermiticity_error=rho.hermiticity_error(),
        min_eigenvalue=least if n_cut == rho.ops.n_cut else min(least, 0.0),
        max_imag_part=0.0,
        comparisons=comparisons,
    )


def compare_with_closed_form(
    params: SystemParams, config: HilbertConfig
) -> OracleReport:
    """Solve the stationary problem at one cutoff and tabulate comparisons.

    A cutoff that a smaller rung settles (see :func:`steady_density`) is reported from that
    rung's own state, with the cutoff's ``n_cut`` and the state's residual on it, so neither
    the cutoff's frame nor an eigensolve of the padded state is needed."""
    return _build_report(steady_density(params, config), params, config.n_cut)


def cutoff_converged(
    params: SystemParams,
    dim_cap: int = _DIM_CAP,
) -> tuple[int, OracleReport]:
    """Double the Fock cutoff until a rung's state passes on the next (see ``_settled``).

    Returns the accepted cutoff of the shared doubling ladder together
    with the report at that cutoff.
    """
    rho = _settled(_displaced(params), params.kappa, HilbertConfig(_LADDER_START, dim_cap))
    return rho.ops.n_cut, _build_report(rho, params, rho.ops.n_cut)


def _cavity(epsilon: float, kappa: float) -> tuple[tuple[float, float, float], float]:
    """:meth:`_Frame.at`'s rates of the ``g = 0`` cavity block in units of ``kappa``, and
    ``kappa``, both checked: a drive as :class:`SystemParams` checks one with ``gamma_c = 0``,
    to ``8 eps**2 <= 1e77``."""
    epsilon, kappa = _require_drive(_require_one_drive(epsilon)), _require_rate("kappa", kappa)
    _require_bounded_drive(epsilon)
    return (0.0, epsilon / kappa, 0.0), kappa


def decoupled_benchmark(
    epsilon: float,
    kappa: float,
    dim_cap: int = _DIM_CAP,
) -> dict:
    """Convergence benchmark of the ``g = 0`` limit against coherent-state values.

    At ``g = 0`` the full generator's stationary manifold is degenerate (the atom never
    relaxes), but the cavity alone, solved on its own states with the atom in its lower
    level, settles into a coherent state, so the exact answers
    are ``<a> = 2 eps/kappa``, ``<a^dag a> = (2 eps/kappa)**2`` and both
    standard-commutator variances equal to 1.
    """
    rho = _settled(*_cavity(epsilon, kappa), HilbertConfig(_LADDER_START, dim_cap, 1))
    mean_a, _, mean_n = rho.field_moments()
    alpha = 2.0 * epsilon / kappa
    var_plus, var_minus = standard_quadrature_variances(rho)
    values = {
        "mean_photon_number": (mean_n, alpha * alpha),
        "mean_field": (mean_a, alpha),
        "var_plus": (var_plus, 1.0),
        "var_minus": (var_minus, 1.0),
    }
    return {
        "epsilon": epsilon,
        "kappa": kappa,
        "g": 0.0,
        "n_cut": rho.ops.n_cut,
        "residual": rho.residual,
        "trace_error": rho.trace_error(),
        "comparisons": {
            name: {"oracle": o, "analytic": e, "delta": o - e}
            for name, (o, e) in values.items()
        },
    }
