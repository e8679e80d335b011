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
* the unknowns and their rows are numbered in a nested-dissection order of the
  photon-number lattice, read off the pattern, and SuperLU factors in that order a
  system of more than ``_BAND_MAX`` unknowns; a smaller one, every ladder rung up to 32
  and the ``g = 0`` rungs up to 64, LAPACK's banded LU factors in the reverse
  Cuthill-McKee order of its pattern (``_Band``, half-bandwidths 36/36 at rung 16), with
  one step of iterative refinement;
* every cutoff has one acceptance rule (``_settled``): rung n = 16, 32, ... is solved
  directly and certified from its own top Fock shell.  No generator term moves a Fock
  number by more than 1, so on rung n's state padded with zeros every larger cutoff has
  two kinds of rows: rung n's own, which carry its rounding and which the residual gate
  already bounds, and a ring at Fock number n + 1, which sees one entry of ``K``, the one
  that raises Fock number n, times the top shell: the truncation.  Rung n passes when the
  ring is at most a normwise backward error of 1e-15 of rung n's folded generator rows
  (J. L. Rigal and J. Gaches, J. ACM 14, 543 (1967)); no rung n + 1 is built.  A state
  stays on the space it was solved on;
* what the rates leave unchanged is built once, in read-only arrays, per cutoff and
  frame (``_frame``, the product space or the ``g = 0`` cavity block) in one object:
  the Kronecker factors, the Hamiltonian's unit parts on their slots, per pattern of
  ``K = -i H`` the generator's plan and the folded system's, and the moments' gathers,
  which a state reads on the frame that solved it.  A rung evaluates its rates on the
  slots, sums the values on the plans, solves and gathers.

The oracle's quadrature variances use the standard commutator, whose
vacuum level is 1 for both quadratures; the closed forms use the
effective-mode normalisation.  The two disagree by design, so the report
carries both values without judging the difference.

Only the sparse steps import scipy, each in its own body: the sparse
assembly (``_IndexPlan``), the band's order (``_Band``) and the stationary solve.
The module, its frames and their Hamiltonians cost numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


# The cutoff ladder's first rung, and the largest stationary residual the unfolded
# generator may leave on an accepted state.  The bound is absolute, whatever the
# generator's scale: at the canonical rates the residuals stay below 1e-10 up to
# eps = 1e6, where the entries are about 7e5, and the bound refuses at eps = 1e19
# (1.2e-3 at rung 16).
_LADDER_START = 16
_RESIDUAL_TOL = 1e-8
# A rung passes when its top shell's ring is at most this backward error of its folded
# generator rows (_settled).  At 36 good-cavity points (gamma_c 1, kappa/gamma_c 0.05 to 0.2,
# x = 8 eps**2/(kappa gamma_c) 1e2 to 1e4) the ring fell from 1e-8 to 5e-4 at rung 16 to
# 4.4e-25 or less at 64, and the rungs' own rows stayed at or below 2.6e-16 by that measure.
_BACKWARD_TOL = 1e-15
# Folded systems of at most this many unknowns are factored by :class:`_Band`, larger ones
# by SuperLU (:func:`spsolve`).  At the canonical rates, one core, the band took 0.25-0.33
# of SuperLU's time at rung 16 (595 unknowns), 0.58 at rung 32 (2,211), 0.59-0.68 at fixed
# cutoffs 40 and 48, 0.70-0.80 at 56 and 60 (7,503), and 1.03-1.06 at rung 64 (8,515).
_BAND_MAX = 8000


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation settings: Fock states 0..n_cut, total dimension 2*(n_cut+1).

    ``n_cut`` must be at least 2 (quadrature variances need two rungs of
    the ladder); exceeding ``dim_cap`` raises :class:`DimensionCap` at
    construction so no oversized operator is ever built.
    """

    n_cut: int
    dim_cap: int = _DIM_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cut", _require_count("n_cut", self.n_cut, 2))
        object.__setattr__(self, "dim_cap", _require_count("dim_cap", self.dim_cap, 6))
        if self.dim > self.dim_cap:
            raise DimensionCap(
                f"dimension 2*({self.n_cut}+1)={self.dim} exceeds cap {self.dim_cap}"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.n_cut + 1)


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
    operator ``a`` fixes in a generator: the dimension ``d``, the basis states' Fock
    numbers (``a``'s column ``j`` is ``sqrt(n_j)``), and the nonzeros and values of the
    Kronecker factors ``a``, ``n = a^T a`` and ``n^T``.  The Hamiltonian's unit parts, for
    the solves ``J = sigma^dag a - a^dag sigma``, ``S = sigma^dag - sigma`` and ``E = a^dag
    - a``, on ``slots``, the union of their nonzeros (flat, row-major).  ``plans``, by
    ``K``'s nonzero mask over ``slots``: ``[generator plan, fold plan]``, the second built
    on the first solve.  And ``gathers``, one per dense operator of ``reads``: the
    :func:`_gather` of ``tr(op rho)``.

    The units' nonzeros are at least 1 in magnitude and no two units share a slot, so on
    a unit's slots ``K`` is one rate, ``g``, ``g shift`` or ``eps``, times the unit, and a
    nonzero rate times such an entry does not underflow to 0: ``K`` is 0 on all of a
    unit's slots or on none.  A pattern is a union of whole units: at most 8 plans.
    """

    def __init__(self, a: np.ndarray, units: list, reads=()):
        n_op = a.T @ a
        self.d = len(a)
        self.fock = _frozen(np.rint(np.einsum("ij,ij->j", a, a)).astype(np.int64))
        self.factors = []
        for x in (a, n_op, n_op.T):
            rows, cols = np.nonzero(x)
            self.factors.append(((_frozen(rows), _frozen(cols)), _frozen(x[rows, cols])))
        self.slots = _frozen(np.flatnonzero(np.any(units, axis=0)))
        self.units = _frozen(np.array([unit.ravel()[self.slots] for unit in units]))
        self.plans = {}
        self.gathers = tuple(tuple(map(_frozen, _gather(op))) for op in reads)

    def at(self, g: float, epsilon: float, shift: float):
        """``K = -i H`` on the slots, entry by entry, for the model's Hamiltonian ``H = i g
        (sigma^dag a - a^dag sigma) + i eps (a^dag - a)`` in the frame ``a -> shift + a``.
        The shift adds the atomic pump ``i g shift (sigma^dag - sigma)`` and leaves the
        cavity drive ``eps - kappa shift / 2``, which the displaced solve sets to 0."""
        j, s, e = self.units
        return g * (j + shift * s) + epsilon * e


# oracle_ladder runs use 3: coupled 16; g = 0 16 and 32
@lru_cache(maxsize=12)
def _frame(n_cut: int, coupled: bool) -> _Frame:
    """The product space's frame at ``n_cut``, with the gathers of ``b``, ``b^2``,
    ``b^dag b``, ``sigma``, ``eta_a`` and ``eta_b``, ``b = a``; or the cavity's own on its
    ``n_cut + 1`` states, where the atom stays in its lower level and only ``E`` is left,
    with the gathers of ``b``, ``b^2`` and ``b^dag b``."""
    if coupled:
        ops = _product_operators(n_cut)
        a, s = ops["a"], ops["sigma"]
        return _Frame(a, [s.T @ a - a.T @ s, s.T - s, a.T - a],
                      (a, a @ a, a.T @ a, s, ops["eta_a"], ops["eta_b"]))
    a = _lowering(n_cut + 1)
    return _Frame(a, [np.zeros_like(a), np.zeros_like(a), a.T - a], (a, a @ a, a.T @ a))


def _generator(frame: _Frame, k, kappa: float):
    """The generator of ``K`` valued ``k`` on ``frame.slots`` and of the frame's jump
    operator, and the frame's ``[generator plan, fold plan or None]`` of ``K``'s pattern.
    ``K``'s zeros drop out of its pattern, and a non-finite ``K`` raises ``ValueError``."""
    if not np.all(np.isfinite(k)):
        raise ValueError("K = -i H has a non-finite entry")
    nonzero = k != 0
    plans = frame.plans.get(key := nonzero.tobytes())
    if plans is None:
        plans = frame.plans[key] = [_generator_plan(frame, frame.slots[nonzero]), None]
    plan, k = plans[0], k[nonzero]
    one = np.ones(frame.d)  # the identity's nonzeros
    (_, a), (_, n_op), (_, n_op_t) = frame.factors
    terms = ((1.0, one, k), (-1.0, k, one), (kappa, a, a),
             (-0.5 * kappa, one, n_op), (-0.5 * kappa, n_op_t, one))
    values, start = np.empty(plan.size), 0  # each term's outer product, row-major
    for c, x, y in terms:
        stop = start + x.size * y.size
        np.multiply(c * x[:, None], y, out=values[start:stop].reshape(x.size, y.size))
        start = stop
    return plan(values), plans


def _generator_plan(frame: _Frame, k_slots):
    """The index plan of the Kronecker sum ``I (x) K - K^T (x) I + kappa a (x) a -
    kappa/2 (I (x) n + n^T (x) I)`` for ``K``'s nonzeros at the flat ``k_slots``.  Each
    term holds a slot at most once, so ``K^T``'s entries may come in ``K``'s order."""
    d = frame.d
    k_rows, k_cols = np.divmod(k_slots, d)
    eye = (np.arange(d),) * 2
    (a, _), (n_op, _), (n_op_t, _) = frame.factors
    nonzeros = ((eye, (k_rows, k_cols)), ((k_cols, k_rows), eye), (a, a), (eye, n_op),
                (n_op_t, eye))
    t = np.uint32 if d <= 256 else np.int64  # for the keys row * d**2 + col
    keys = np.concatenate([(xr * d**3 + xc * d).astype(t)[:, None] + (yr * d * d + yc).astype(t)
                           for (xr, xc), (yr, yc) in nonzeros], axis=None)
    return _IndexPlan(keys, d * d, keys.argsort(kind="stable"))


class _IndexPlan:
    """``plan(values)``: the ``n x n`` CSR matrix of the flat ``values`` summed at ``keys =
    row * n + col`` (``keys[order]`` sorted, runs in any order), or its transpose as a CSC
    matrix if ``transpose``; every matrix it builds shares its read-only ``indices``
    and ``indptr``, and carries the plan as its ``plan``."""

    def __init__(self, keys, n: int, order, transpose: bool = False):
        keys, order = keys[order], order.astype(np.int32)  # any sort: a slot sums at most 2 values
        first = np.diff(keys, prepend=~keys[:1]) != 0  # each slot's first entry
        more = np.flatnonzero(~first)  # the others, at slots more - 1, more - 2, ...
        firsts, slots, rest = order[first], more - np.arange(1, more.size + 1), order[more]
        row, col = np.divmod(keys[first], n)
        col, ptr = col.astype(np.int32), np.bincount(row + 1, minlength=n + 1).cumsum(dtype=np.int32)
        del keys, order, first, more, row  # so that the copies kept below can take their place
        self.n, self.size, self.transpose = n, firsts.size + rest.size, transpose
        self.firsts, self.slots, self.rest, self.indices, self.indptr = (
            _frozen(np.array(v)) for v in (firsts, slots, rest, col, ptr))

    def __call__(self, values):
        from scipy.sparse import csc_matrix, csr_matrix
        data = values.take(self.firsts)  # a lone -0.0 stays -0.0
        np.add.at(data, self.slots, values.take(self.rest))
        matrix = csc_matrix if self.transpose else csr_matrix
        matrix = matrix((data, self.indices, self.indptr), shape=(self.n, self.n))
        matrix.plan = self
        return matrix

    @cached_property
    def band(self) -> _Band:
        """The :class:`_Band` of the pattern, built on its first banded solve."""
        return _Band(self)


@dataclass(frozen=True)
class DensityMatrix:
    """A stationary density matrix, the residual of the equation it solves, and its space.

    ``matrix`` is real and exactly symmetric: every solve reads it through a symmetric
    index.  ``residual`` is the max-entrywise ``drho/dt`` under the original (unmodified)
    generator; ``ops`` is the truncated Hilbert space that ``matrix`` was solved on, its
    product space, or at ``g = 0`` the cavity's own ``ops.n_cut + 1`` states.  ``shift``
    is the frame: the state's ladder operator ``b`` is the lab field minus ``shift``.
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
        frame = _frame(self.ops.n_cut, len(self.matrix) == self.ops.dim)
        return tuple(map(self._read, frame.gathers))

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
    """The solution of the folded CSC ``system``, which a fold plan built (:func:`_fold_plan`).
    :func:`_stationary` calls it by this name, and an exactly singular factor raises
    ``RuntimeError``.  At most ``_BAND_MAX`` unknowns, the band of the system's plan solves
    it.  Above, SuperLU does, with no column ordering of its own: the plan has numbered the
    unknowns in the order to factor in.  A diagonal pivot is kept while it is at least half
    its column's largest entry (at ``n_cut`` 127, which only a good cavity's fixed cutoff
    factors whole: 5.27M entries in L and U at gamma_c 0.4, kappa 0.004, eps 0.2)."""
    if system.shape[0] <= _BAND_MAX:
        return system.plan.band.solve(system, rhs)
    from scipy.sparse.linalg import splu
    return splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.5).solve(rhs)


class _Band:
    """LAPACK's banded LU with partial pivoting (``dgbtrf``, ``dgbtrs``) of the systems of
    one CSC pattern, in the reverse of :func:`_cuthill_mckee`'s order of its symmetrised
    graph: ``order[k]`` is the unknown at band index ``k``, and ``kl``/``ku`` are the
    half-bandwidths there (36/36 at rung 16).  ``at`` sends each stored entry, in CSC
    order, to its place in the Fortran-ordered band of ``shape``, whose first ``kl`` rows
    take the pivots' fill.
    """

    def __init__(self, plan: _IndexPlan):
        from scipy.sparse import csc_matrix
        n, indptr, indices = plan.n, plan.indptr, plan.indices
        graph = csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        graph = (graph + graph.T).tocsr()
        self.order = _frozen(_cuthill_mckee(graph.indptr, graph.indices)[::-1])
        number = np.empty(n, np.intp)
        number[self.order] = np.arange(n)
        rows, cols = number[indices], number[np.repeat(np.arange(n), np.diff(indptr))]
        self.kl, self.ku = int((rows - cols).max()), int((cols - rows).max())
        self.shape = (2 * self.kl + self.ku + 1, n)
        self.at = _frozen(cols * self.shape[0] + self.kl + self.ku + rows - cols)

    def solve(self, system, rhs) -> np.ndarray:
        """``system``'s solution after one step of iterative refinement on its own residual,
        unless the step leaves a larger residual in the rows whose right-hand side is 0, the
        generator's.  Partial pivoting may take the trace row's 1s as pivots over generator
        entries many decades smaller, and the step recovers what that loses (gamma_c = kappa
        = 1e-38, eps = 1e-140: ``eta_a`` 4.0e-204, not -1.3e-204).  Where the entries are
        large, the step's own residual carries their rounding (eps 1e9 at gamma_c 0.4, kappa
        0.8: 6.0e-8 on the residual gate, against 3.1e-11 before it), and the step is dropped."""
        from scipy.linalg.lapack import dgbtrf, dgbtrs
        band = np.zeros(self.shape, order="F")
        band.reshape(-1, order="F")[self.at] = system.data
        lu, pivots, info = dgbtrf(band, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular: U({info}, {info}) is 0")

        def solved(b):
            x = np.empty(b.size)
            x[self.order] = dgbtrs(lu, self.kl, self.ku, b[self.order], pivots)[0]
            return x

        x = solved(rhs)
        residual = rhs - system @ x
        refined = x + solved(residual)
        generator = rhs == 0
        kept = np.abs(rhs - system @ refined)[generator].max() <= np.abs(residual)[generator].max()
        return refined if kept else x


def _cuthill_mckee(ptr, adj) -> np.ndarray:
    """The Cuthill-McKee order of the symmetric graph whose CSR pattern is ``ptr`` and
    ``adj`` (E. Cuthill and J. McKee, Proc. 24th ACM Nat. Conf. (1969)).  Each
    component is searched breadth first from an unnumbered node of least degree; each
    node's unnumbered neighbours follow it by degree, then index, in the order of the nodes
    that reach them first.  On a connected graph this is the reverse of the order of
    ``scipy.sparse.csgraph.reverse_cuthill_mckee``, built a level at a time rather than node
    by node, and without loading that module (1.1 MB and 3-7 ms)."""
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


def _stationary(frame: _Frame, k, kappa: float) -> tuple[np.ndarray, float, float]:
    """The real symmetric stationary state of the generator ``L`` of :func:`_generator`.

    ``L`` maps symmetric matrices to symmetric ones, so the rows of ``(i, j)`` and
    ``(j, i)`` coincide: keep ``i <= j``, send the row and column of each entry ``(r, s)``
    to unknown ``pos[r, s]``, and put the trace row in place of ``(0, 0)``'s.  Returns the
    state, its residual ``max |L vec(rho)|`` on the unfolded ``L``, at most ``_RESIDUAL_TOL``,
    and the folded system's norm: the largest absolute row sum of the generator's rows.
    """
    lv, pos, system = _folded(frame, k, kappa)
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
    rows = np.bincount(system.indices, np.abs(system.data), x.size)  # CSC: indices are rows
    return rho, residual, float(np.delete(rows, pos[0, 0]).max())


def _folded(frame: _Frame, k, kappa: float):
    """The generator of :func:`_generator`, ``pos`` and the folded system, in ``pos``'s
    numbering, that sums ``(r, s)`` with ``(s, r)``."""
    lv, plans = _generator(frame, k, kappa)
    if plans[1] is None:
        plans[1] = _fold_plan(frame, plans[0])
    pos, kept, system = plans[1]
    values = np.ones(frame.d + kept.size)  # the trace row's 1s, then the entries kept
    lv.data.take(kept, out=values[frame.d:])
    return lv, pos, system(values)


def _fold_plan(frame: _Frame, plan: _IndexPlan):
    """``pos``, the entries kept and the folded system's plan, which builds it as CSC, for the
    generator that ``plan`` builds on ``frame``.

    Unknown ``(r, s)`` sits on the lattice site ``(min, max)`` of its two Fock numbers,
    and the unknowns are numbered in the sites' nested-dissection order
    (:func:`_dissection`), one group's in ``triu`` order.  The row of ``(r, s)`` takes
    the number ``pos[r, s]`` too, and the trace row ``pos[0, 0]``: the folded system
    comes symmetrically permuted into the order SuperLU factors in.  The order is read
    off the pattern alone, on every build.
    """
    d, fock, indptr, indices = frame.d, frame.fock, plan.indptr, plan.indices
    i, j = np.triu_indices(d)
    span = int(fock.max()) + 1
    site = np.minimum(fock[i], fock[j]) * span + np.maximum(fock[i], fock[j])  # by unknown
    sites, group = np.flatnonzero(np.bincount(site)), np.zeros(span * span, np.intp)
    group[sites] = _dissection(*np.divmod(sites, span))  # sites in natural order
    n, small, t = i.size, np.min_scalar_type(i.size - 1), np.uint32 if d <= 361 else np.int64
    order = group[site].astype(small).argsort(kind="stable")  # the unknown numbered k
    pos = np.empty((d, d), dtype=np.int32)
    pos[i[order], j[order]] = pos[j[order], i[order]] = np.arange(n)
    rows = (i + d * j)[np.delete(order, trace := pos[0, 0])]  # by number, but the trace row
    counts = np.diff(indptr)[rows]
    kept = np.repeat(indptr[rows] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    major = np.r_[np.diag(pos), pos.ravel("F")[indices[kept]]].astype(t)  # trace row first
    minor = np.r_[np.full(d, trace, t), np.repeat(np.delete(np.arange(n, dtype=t), trace), counts)]
    split = d + counts[:trace].sum()  # the trace row goes after the rows numbered below it
    by_row = np.concatenate((np.arange(d, split), np.arange(d), np.arange(split, major.size)))
    radix = by_row[major[by_row].astype(small).argsort(kind="stable")]  # to d = 361
    return _frozen(pos), _frozen(kept), _IndexPlan(major * n + minor, n, radix, transpose=True)


def _dissection(u, v) -> np.ndarray:
    """Nested-dissection group numbers of the lattice sites ``(u, v)``, given in
    natural (lexicographic) order (A. George, SIAM J. Numer. Anal. 10, 345 (1973)).

    No generator term moves a Fock number by more than 1, so a line ``u = c`` or
    ``v = c`` separates the sites on its two sides.  Each set of more than 4 sites is
    cut at the median of its longer extent (``v`` on a tie); the sites below come
    first, then those above, then the line, each set numbered so in turn.  A set of
    at most 4 sites, or a line, is one group and keeps the natural order.  Sets are
    split a level at a time, every set of a level at once: a site's path is its key,
    2 bits a level.
    """
    n = u.size
    key, node = np.zeros(n, np.int64), np.zeros(n, np.intp)
    by_u, by_v = np.arange(n), np.argsort(v, kind="stable")  # the live sites, by set
    while by_u.size:
        key <<= 2
        count = np.bincount(sets := node[by_u])
        first = np.cumsum(count) - count
        mid, last = first + count // 2, first + count - 1
        su, sv = u[by_u], v[by_v]
        along_v = sv[last] - sv[first] >= su[last] - su[first]
        side = np.where(along_v[sets], v[by_u], su) - np.where(along_v, sv[mid], su[mid])[sets]
        split = count[sets] > 4
        key[by_u[split]] += np.where(side[split] == 0, 2, side[split] > 0)
        live = np.zeros(n, bool)
        live[by_u[split & (side != 0)]] = True
        node[by_u] = 2 * sets + (side > 0)
        by_u, by_v = (s[live[s]] for s in (by_u, by_v))
        by_u, by_v = (s[node[s].astype(np.min_scalar_type(2 * n)).argsort(kind="stable")]
                      for s in (by_u, by_v))
    return np.unique(key, return_inverse=True)[1]


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
    ``_RESIDUAL_TOL`` (a degenerate stationary manifold looks like this).
    """
    return _settled(True, _displaced(params), params.kappa, config)


def _displaced(params: SystemParams) -> tuple[float, float, float]:
    """:meth:`_Frame.at`'s rates of the displaced frame, which cancels the cavity drive."""
    return params.g, 0.0, 2.0 * _require_one_drive(params.epsilon) / params.kappa


def _settled(coupled: bool, rates, kappa: float, config: HilbertConfig | None = None,
             dim_cap: int = _DIM_CAP) -> DensityMatrix:
    """The stationary state on ``_frame(n_cut, coupled)``, ``K`` valued ``_Frame.at(*rates)``,
    at the cutoff that the one acceptance rule picks: rung ``n`` = ``_LADDER_START``, ``2 n``,
    ... is solved directly and passes on its top Fock shell.  The state returned is always a
    solve's own, on the space it was solved on.

    On rung n's state padded with zeros, the ring of rows at Fock number ``n + 1`` reads the
    one entry of ``K`` that raises Fock number n (``g sqrt(n + 1)`` from the upper level in
    the displaced frame, ``eps sqrt(n + 1)`` at ``g = 0``) times row n of ``rho``.  Rung n
    passes when the ring is at most ``_BACKWARD_TOL`` times its folded norm times ``max
    |rho|``, and at most ``_RESIDUAL_TOL``, which its own rows already meet.

    Without ``config`` this is the ladder: the first passing rung's state and residual; a
    rung's failed solve, or :class:`DimensionCap` from the first rung above ``dim_cap``,
    raises.  With ``config``, the rungs below its cutoff N are tried, a failed solve is a
    miss, and a hit is rung n's state with the residual ``max(its own, the ring)``, that of
    its padding on every cutoff above n, N's included, and N's frame is not built; once no
    rung passes, N is solved directly.
    """
    n_cut = _LADDER_START
    while config is None or n_cut < config.n_cut:
        rung = HilbertConfig(n_cut, dim_cap if config is None else config.dim_cap)
        try:
            rho, residual, norm = _stationary(frame := _frame(n_cut, coupled),
                                              frame.at(*rates), kappa)
        except SingularSystem:
            if config is None:
                raise
        else:
            raising = abs(rates[0] if coupled else rates[1]) * math.sqrt(n_cut + 1)  # |K|
            ring = float(raising * np.abs(rho[n_cut]).max())
            if ring <= min(_BACKWARD_TOL * norm * np.abs(rho).max(), _RESIDUAL_TOL):
                if config is not None:
                    residual = max(residual, ring)
                break
        n_cut *= 2
    else:
        rung, frame = config, _frame(config.n_cut, coupled)
        rho, residual, _ = _stationary(frame, frame.at(*rates), kappa)
    return DensityMatrix(matrix=rho, residual=residual, ops=rung, shift=rates[2])


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
    rho = _settled(True, _displaced(params), params.kappa, dim_cap=dim_cap)
    return rho.ops.n_cut, _build_report(rho, params, rho.ops.n_cut)


def _cavity(epsilon: float, kappa: float) -> tuple[tuple[float, float, float], float]:
    """:meth:`_Frame.at`'s rates of the ``g = 0`` cavity block, and ``kappa``, both checked: a
    drive as :class:`SystemParams` checks one with ``gamma_c = 0``, to ``8 eps**2 <= 1e77``."""
    epsilon, kappa = _require_drive(_require_one_drive(epsilon)), _require_rate("kappa", kappa)
    _require_bounded_drive(epsilon)
    return (0.0, epsilon, 0.0), kappa


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
    rho = _settled(False, *_cavity(epsilon, kappa), dim_cap=dim_cap)
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
