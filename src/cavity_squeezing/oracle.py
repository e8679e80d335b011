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
truncates the small fluctuation field ``b``.  All generators and states
are real (``float64``); :meth:`DensityMatrix.field_moments` maps moments
back to ``a``.  The ``g = 0`` limit and :func:`evolve_density` stay in
the lab frame and build the same drive term, :func:`hamiltonian_matrix`
at ``shift = 0``, so ``g = 0``, solved on the cavity's ``n_cut + 1`` states
with the atom in its lower level, still checks ``alpha`` independently.

Conventions, fixed once and used everywhere:

* basis order is row-major with the atom index slow and the Fock index
  fast, atomic basis ``[upper, lower]``;
* density matrices are vectorised by column stacking, so a left factor
  ``A`` becomes ``I (x) A``, a right factor ``B`` becomes ``B^T (x) I``,
  and the sandwich ``A rho A^dag`` becomes ``conj(A) (x) A``;
* the stationary state is solved for on the real-symmetric subspace, its
  ``d(d+1)/2`` entries ``i <= j``: half the unknowns, and no rounding in the
  antisymmetric part, a nearly null direction of the generator at strong
  drive; the folded system is the generator's own entries re-indexed onto
  those unknowns, with the trace row in place of the redundant ``(0, 0)`` one;
* the unknowns and their rows are numbered in a nested-dissection order of the
  photon-number lattice, read off the pattern, and SuperLU factors in that order;
* both are summed on index plans cached per sparsity pattern (``_index_plan``).

The oracle's quadrature variances use the standard commutator, whose
vacuum level is 1 for both quadratures; the closed forms use the
effective-mode normalisation.  The two disagree by design, so the report
carries both values without judging the difference.

Only the sparse steps import scipy, each in its own body: the generator,
the stationary solve and :func:`evolve_density`.  The module, its dense
operators and its Hamiltonians cost numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import single_mode, superposed
from .params import (SystemParams, _require_count, _require_drive, _require_positive,
                     _require_rate)

__all__ = [
    "DimensionCap",
    "SingularSystem",
    "HilbertConfig",
    "DensityMatrix",
    "OracleReport",
    "hamiltonian_matrix",
    "liouvillian_matrix",
    "steady_density",
    "standard_quadrature_variances",
    "compare_with_closed_form",
    "cutoff_converged",
    "decoupled_cavity_steady",
    "decoupled_benchmark",
    "evolve_density",
]

_FRAMEWORK_NOTE = (
    "oracle variances use the standard commutator (vacuum level 1); "
    "closed-form variances use the effective-mode normalisation "
    "(vacuum level gamma_c/kappa), so their difference is expected "
    "and carries no pass/fail meaning"
)


# The cutoff ladder's default moment tolerance and largest Hilbert-space
# dimension (the CLI's defaults), its first rung, and the largest stationary
# residual the unfolded generator may leave on an accepted state.  The
# bound is absolute, whatever the generator's scale: at the canonical rates
# the residuals stay below 1e-10 up to eps = 1e6, where the entries are about
# 7e5, and the bound refuses from about eps = 1e9.
_LADDER_TOL = 1e-8
_DIM_CAP = 256
_LADDER_START = 8
_RESIDUAL_TOL = 1e-8


class DimensionCap(RuntimeError):
    """Raised when the requested Hilbert space exceeds the dimension cap."""


class SingularSystem(RuntimeError):
    """Raised when the stationary linear system cannot be solved reliably."""


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation settings: Fock states 0..n_cut, total dimension 2*(n_cut+1).

    ``n_cut`` must be at least 2 (quadrature variances need two rungs of
    the ladder); exceeding ``dim_cap`` raises :class:`DimensionCap` at
    construction so no oversized operator is ever built.  The space's real
    dense operators (atom slow, Fock fast) are built on first use, once per
    config.  ``a`` lowers the Fock ladder: it is the cavity field in the lab
    frame and the fluctuation field ``b`` in the displaced frame.
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

    @cached_property
    def a(self) -> np.ndarray:
        return np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, self.n_cut + 1)), 1))

    @cached_property
    def sigma(self) -> np.ndarray:
        return np.eye(self.dim, k=-(self.n_cut + 1))  # |b><a|: upper block to lower block

    @cached_property
    def eta_a(self) -> np.ndarray:
        return np.diag(np.repeat([1.0, 0.0], self.n_cut + 1))

    @cached_property
    def eta_b(self) -> np.ndarray:
        return np.diag(np.repeat([0.0, 1.0], self.n_cut + 1))


def hamiltonian_matrix(g: float, epsilon: float, ops: HilbertConfig, shift: float = 0.0):
    """Resonant Hamiltonian ``i g (sigma^dag a - a^dag sigma) + i eps (a^dag - a)``.

    A dense complex array.  Takes raw rates so the decoupled ``g = 0`` limit
    can be built too.  A frame shift ``a -> shift + a`` adds the atomic pump
    ``i g shift (sigma^dag - sigma)``; the cavity drive left in that frame
    is ``eps - kappa shift / 2``, which the displaced solve sets to 0.
    """
    a, s = ops.a, ops.sigma
    return 1j * (g * (s.T @ a - a.T @ s + shift * (s.T - s)) + epsilon * (a.T - a))


def liouvillian_matrix(hamiltonian, a, kappa: float):
    """Real sparse generator of the master equation in column-stacked form.

    Takes the dense Hamiltonian and jump operator and returns a float64 CSR
    matrix ``L`` with ``L @ vec(rho) = vec(drho/dt)`` where ``vec`` stacks
    columns (``reshape(-1, order='F')``).  The model's Hamiltonians are
    ``i K`` with ``K`` real and its jump operator ``a`` is real, so
    ``-i [H, rho] = [K, rho]`` and ``L`` is real; any other input raises
    ``ValueError``.  Its index arrays are read-only and shared: ``.copy()`` it to edit them.
    """
    k, a = -1j * np.asarray(hamiltonian), np.asarray(a)
    if np.any(k.imag) or np.any(a.imag):
        raise ValueError("the generator is real only for H = i K and a with K, a real")
    k, a = k.real, a.real
    eye, n_op = np.eye(len(k)), a.T @ a
    terms = ((1.0, eye, k), (-1.0, k.T, eye), (kappa, a, a),
             (-0.5 * kappa, eye, n_op), (-0.5 * kappa, n_op.T, eye))
    nz, matrix = _kron_plan(len(k), np.packbits([x != 0 for t in terms for x in t[1:]]).tobytes())
    return matrix([c * x[xs][:, None] * y[ys] for (c, x, y), (xs, ys) in zip(terms, nz)])


@lru_cache(maxsize=16)  # ladder runs use 6: d = 18, 34, 256 coupled and 9, 17, 33 at g = 0
def _kron_plan(d: int, masks: bytes):
    """Nonzeros (NaN counts) of five factor pairs' packed masks; their Kronecker sum's plan."""
    x = np.unpackbits(np.frombuffer(masks, np.uint8), count=10 * d * d).reshape(10, d, d) != 0
    nonzeros = [(np.nonzero(x[i]), np.nonzero(x[i + 1])) for i in range(0, 10, 2)]
    t = np.uint32 if d <= 256 else np.int64  # for the keys row * d**2 + col
    keys = np.concatenate([(xr * d**3 + xc * d).astype(t)[:, None] + (yr * d * d + yc).astype(t)
                           for (xr, xc), (yr, yc) in nonzeros], axis=None)
    return nonzeros, _index_plan(keys, d * d, keys.argsort(kind="stable"))  # sorted runs


def _index_plan(keys, n: int, order):
    """``matrix(values)``, the ``n x n`` CSR matrix of values at ``keys = row * n + col``."""
    from scipy.sparse import csr_matrix
    keys, order = keys[order], order.astype(np.int32)  # any sort: a slot sums at most 2 values
    first = np.diff(keys, prepend=~keys[:1]) != 0  # each slot's first entry
    more = np.flatnonzero(~first)  # the others, at slots more - 1, more - 2, ...
    firsts, slots, rest = order[first], more - np.arange(1, more.size + 1), order[more]
    row, col = np.divmod(keys[first], n)
    col, ptr = col.astype(np.int32), np.bincount(row + 1, minlength=n + 1).cumsum(dtype=np.int32)
    del keys, order, first, more, row  # so that the copies kept below can take their place
    firsts, slots, rest, col, ptr = (np.array(v) for v in (firsts, slots, rest, col, ptr))
    col.flags.writeable = ptr.flags.writeable = False  # shared by every matrix built here
    def matrix(values):
        values = np.concatenate(values, axis=None)
        data = values[firsts]  # a lone -0.0 stays -0.0
        np.add.at(data, slots, values[rest])
        return csr_matrix((data, col, ptr), shape=(n, n))
    return matrix


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix, the residual of the equation it solves, and its space.

    ``residual`` is the max-entrywise value of ``drho/dt`` evaluated with
    the original (unmodified) generator; ``ops`` is the truncated Hilbert
    space that ``matrix`` lives on, with its operators.  ``shift`` is the
    frame: the state's ladder operator ``ops.a`` is the lab field minus ``shift``.
    """

    matrix: np.ndarray
    residual: float
    ops: HilbertConfig = field(repr=False)
    shift: float = 0.0

    def trace_error(self) -> float:
        return float(abs(np.trace(self.matrix) - 1.0))

    def hermiticity_error(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def expect(self, op: np.ndarray) -> complex:
        rows, cols = np.nonzero(op)  # tr(op rho) gathered over the nonzeros of op
        return complex(op[rows, cols] @ self.matrix[cols, rows])

    @cached_property
    def moments(self) -> tuple[complex, ...]:
        """``<b>``, ``<b^2>``, ``<b^dag b>``, ``<sigma>``, ``<sigma^dag sigma>`` of the
        solved frame, ``b = ops.a``: the one place they are read, once per state."""
        b, ops = self.ops.a, self.ops
        return tuple(self.expect(op) for op in (b, b @ b, b.T @ b, ops.sigma, ops.eta_a))

    def field_moments(self) -> tuple[complex, complex, complex]:
        """Lab-frame ``<a>``, ``<a^2>``, ``<a^dag a>`` from ``a = shift + b``; the one
        place the frame is undone.  Variances do not change under it and are read
        in the solved frame: from these, terms of size ``4 shift**2`` would cancel."""
        s, (mean_b, mean_b2, n_b) = self.shift, self.moments[:3]
        return (s + mean_b,
                s * s + 2.0 * s * mean_b + mean_b2,
                s * s + 2.0 * s * mean_b.real + n_b)


def spsolve(system, rhs) -> np.ndarray:
    """SuperLU's solve of the CSC ``system`` with no column ordering of its own:
    :func:`_fold_plan` has numbered the unknowns in the order to factor in.
    :func:`_stationary` calls it by this name, and an exactly singular factor raises
    ``RuntimeError``.  A diagonal pivot is kept while it is at least half its column's
    largest entry (canonical ``n_cut`` 127: 4.84M entries in L and U, 4.90M at 1)."""
    from scipy.sparse.linalg import splu
    return splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.5).solve(rhs)


def _stationary(hamiltonian, a, kappa: float) -> tuple[np.ndarray, float]:
    """The real symmetric stationary state of ``liouvillian_matrix(hamiltonian, a, kappa)``.

    ``L`` maps symmetric matrices to symmetric ones, so the rows of ``(i, j)`` and
    ``(j, i)`` coincide: keep ``i <= j``, send the row and column of each entry ``(r, s)``
    to unknown ``pos[r, s]``, and put the trace row in place of ``(0, 0)``'s.  Returns the
    state and its residual ``max |L vec(rho)|`` on the unfolded ``L``, at most ``_RESIDUAL_TOL``.
    """
    lv, d = liouvillian_matrix(hamiltonian, a, kappa), len(hamiltonian)
    fock = np.rint(np.einsum("ij,ij->j", a, a)).astype(np.int64)  # a's column j: sqrt(n_j)
    pos, kept, system = _fold_plan(d, lv.indptr.tobytes(), lv.indices.tobytes(),
                                   fock.tobytes())
    system = system([np.ones(d), lv.data[kept]]).T  # sums (r, s) with (s, r)
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
    return rho, residual


@lru_cache(maxsize=16)
def _fold_plan(d: int, indptr: bytes, indices: bytes, fock: bytes):
    """``pos``, the entries kept and the transposed folded system's plan, from int32 CSR
    and the basis states' int64 Fock numbers.

    Unknown ``(r, s)`` sits on the lattice site ``(min, max)`` of its two Fock numbers,
    and the unknowns are numbered in the sites' nested-dissection order
    (:func:`_dissection`), one group's in ``triu`` order.  The row of ``(r, s)`` takes
    the number ``pos[r, s]`` too, and the trace row ``pos[0, 0]``: the folded system
    comes symmetrically permuted into the order SuperLU factors in.  The order is read
    off the pattern alone, on every build.
    """
    indptr, indices = np.frombuffer(indptr, np.int32), np.frombuffer(indices, np.int32)
    fock, (i, j) = np.frombuffer(fock, np.int64), np.triu_indices(d)
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
    return pos, kept, _index_plan(major * n + minor, n, radix)


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
    """Stationary density matrix of the full master equation, in the displaced frame.

    ``config.n_cut`` truncates the fluctuation field ``b = a - 2 eps/kappa``.
    Raises :class:`SingularSystem` when the linear solve fails or the
    recovered state does not actually annihilate the generator to
    ``_RESIDUAL_TOL`` (a degenerate stationary manifold looks like this).
    """
    alpha = 2.0 * params.epsilon / params.kappa
    h = hamiltonian_matrix(params.g, 0.0, config, shift=alpha)
    rho, residual = _stationary(h, config.a, params.kappa)
    return DensityMatrix(matrix=rho, residual=residual, ops=config, shift=alpha)


def standard_quadrature_variances(rho: DensityMatrix) -> tuple[float, float]:
    """Quadrature variances with the standard commutator (vacuum is (1, 1)).

    Plus quadrature is ``a + a^dag``, minus is ``-i (a - a^dag)``; both
    give exactly 1 in the vacuum and in any coherent state.  They do not
    depend on the frame, so they are read from :attr:`DensityMatrix.moments`.
    """
    mean, mean_sq, n_b = rho.moments[:3]
    sym = 2.0 * n_b + 1.0  # <b b^dag + b^dag b> via the commutator
    var_plus = sym + 2.0 * mean_sq.real - 2.0 * (mean * mean).real - 2.0 * abs(mean) ** 2
    var_minus = sym - 2.0 * mean_sq.real + 2.0 * (mean * mean).real - 2.0 * abs(mean) ** 2
    return float(var_plus.real), float(var_minus.real)


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side comparison of oracle moments and closed forms.

    ``comparisons`` maps quantity names to dicts with keys ``oracle``,
    ``closed_form`` and ``delta``; complex oracle moments enter through
    their real parts, with the largest imaginary magnitude recorded in
    ``max_imag_part`` (0 by construction: state and operators are real).
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
        return asdict(self)


def _build_report(rho: DensityMatrix, params: SystemParams) -> OracleReport:
    mean_a, mean_a2, mean_n = rho.field_moments()
    *_, sigma, eta_a = rho.moments
    var_plus, var_minus = standard_quadrature_variances(rho)
    moments = {
        "mean_photon_number": mean_n,
        "mean_field": mean_a,
        "mean_field_squared": mean_a2,
        "eta_a": eta_a,
        "eta_b": rho.expect(rho.ops.eta_b),
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
        name: {"oracle": value.real, "closed_form": closed[name],
               "delta": value.real - closed[name]}
        for name, value in moments.items()
    }
    return OracleReport(
        g=params.g,
        kappa=params.kappa,
        epsilon=params.epsilon,
        gamma_c=params.gamma_c,
        n_cut=rho.ops.n_cut,
        residual=rho.residual,
        trace_error=rho.trace_error(),
        hermiticity_error=rho.hermiticity_error(),
        min_eigenvalue=rho.min_eigenvalue(),
        max_imag_part=max(abs(value.imag) for value in moments.values()),
        comparisons=comparisons,
    )


def compare_with_closed_form(
    params: SystemParams, config: HilbertConfig
) -> OracleReport:
    """Solve the stationary problem at one cutoff and tabulate comparisons."""
    return _build_report(steady_density(params, config), params)


def _ladder(solve, tol: float, dim_cap: int):
    """Double the Fock cutoff from ``_LADDER_START`` until the moments settle.

    ``solve(config)`` gives the stationary :class:`DensityMatrix` at one
    cutoff.  Returns it at the first cutoff whose solved-frame moments,
    :attr:`DensityMatrix.moments`, all agree with the previous (half-sized)
    one within ``tol``.  The lab-frame photon number is not compared: it adds
    ``2 alpha <b>``, which scales the rounding in ``<b>`` by the drive.
    Raises :class:`DimensionCap` when doubling would exceed ``dim_cap``
    before convergence.
    """
    _require_positive("tol", tol)
    previous = None
    n_cut = _LADDER_START
    while True:
        rho = solve(HilbertConfig(n_cut=n_cut, dim_cap=dim_cap))
        moments = np.array(rho.moments)
        if previous is not None and np.abs(moments - previous).max() < tol:
            return rho
        previous = moments
        n_cut *= 2


def cutoff_converged(
    params: SystemParams,
    tol: float = _LADDER_TOL,
    dim_cap: int = _DIM_CAP,
) -> tuple[int, OracleReport]:
    """Double the Fock cutoff until the state's moments settle (see ``_ladder``).

    Returns the converged cutoff of the shared doubling ladder together
    with the report at that cutoff.
    """
    rho = _ladder(lambda c: steady_density(params, c), tol, dim_cap)
    return rho.ops.n_cut, _build_report(rho, params)


def decoupled_cavity_steady(
    epsilon: float, kappa: float, config: HilbertConfig
) -> DensityMatrix:
    """Stationary state for a decoupled atom (``g = 0``), solved reliably.

    At ``g = 0`` the full generator has a degenerate stationary manifold
    (the atom never relaxes), so the full-space solve is singular.  The
    cavity factor alone still has a unique stationary state — a coherent
    state of amplitude ``2 eps / kappa`` — so the lab-frame Hamiltonian and jump
    operator are solved on their ``m = n_cut + 1`` states with the atom in the
    lower level, and the solution is tensored with that level.  No term of the
    generator changes an atomic index and ``rho`` is 0 off that block, so the
    full-space ``L vec(rho)`` is the block's on it and 0 elsewhere: the residual is the same.
    """
    epsilon, kappa = _require_drive(float(epsilon)), _require_rate("kappa", kappa)
    m = config.n_cut + 1
    rho, residual = _stationary(hamiltonian_matrix(0.0, epsilon, config)[m:, m:],
                                config.a[m:, m:], kappa)
    return DensityMatrix(matrix=np.kron(np.diag([0.0, 1.0]), rho), residual=residual, ops=config)


def decoupled_benchmark(
    epsilon: float,
    kappa: float,
    tol: float = _LADDER_TOL,
    dim_cap: int = _DIM_CAP,
) -> dict:
    """Convergence benchmark of the ``g = 0`` limit against coherent-state values.

    The cavity alone settles into a coherent state, so the exact answers
    are ``<a> = 2 eps/kappa``, ``<a^dag a> = (2 eps/kappa)**2`` and both
    standard-commutator variances equal to 1.
    """
    rho = _ladder(lambda c: decoupled_cavity_steady(epsilon, kappa, c), tol, dim_cap)
    mean_a, _, mean_n = rho.field_moments()
    alpha = 2.0 * epsilon / kappa
    var_plus, var_minus = standard_quadrature_variances(rho)
    values = {
        "mean_photon_number": (mean_n.real, alpha * alpha),
        "mean_field": (mean_a.real, alpha),
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


def evolve_density(
    params: SystemParams,
    config: HilbertConfig,
    t_final: float,
) -> DensityMatrix:
    """Evolve a lab-frame density matrix by the exact propagator ``exp(t_final L)``.

    Independent route to the stationary state: for ``t_final`` long
    against the slowest relaxation rate the result approaches the
    lab-frame stationary state.  The action of the matrix exponential on the
    vectorised state is computed by ``scipy.sparse.linalg.expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011), which chooses its
    own steps.  The initial state is the absolute ground state (lower
    level, empty cavity).  The returned residual is the max-entrywise time
    derivative at the final state.
    """
    from scipy.sparse.linalg import expm_multiply
    _require_positive("t_final", t_final)
    h = hamiltonian_matrix(params.g, params.epsilon, config)
    lv = liouvillian_matrix(h, config.a, params.kappa)
    d = config.dim
    initial = np.zeros((d, d))
    initial[config.n_cut + 1, config.n_cut + 1] = 1.0  # atom lower level, zero photons
    rho = expm_multiply(t_final * lv, initial.ravel("F")).reshape((d, d), order="F")
    return DensityMatrix(matrix=rho, residual=float(np.abs(lv @ rho.ravel("F")).max()),
                         ops=config)
