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
at ``shift = 0``, so ``g = 0`` still checks ``alpha`` independently.

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
  those unknowns, with the trace row in place of the redundant ``(0, 0)`` one.

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
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

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
# residual the full-space generator may leave on an accepted state.  The
# bound is absolute, whatever the generator's scale: at the canonical rates
# the residuals stay below 1e-10 up to eps = 1e6, where the entries are about
# 7e5, and the bound refuses from about eps = 1e10.
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
    ``ValueError``.
    """
    from scipy.sparse import csr_matrix
    k, a = -1j * np.asarray(hamiltonian), np.asarray(a)
    if np.any(k.imag) or np.any(a.imag):
        raise ValueError("the generator is real only for H = i K and a with K, a real")
    k, a = k.real, a.real
    d = k.shape[0]
    eye, n_op = np.eye(d), a.T @ a
    terms = ((1.0, eye, k), (-1.0, k.T, eye), (kappa, a, a),
             (-0.5 * kappa, eye, n_op), (-0.5 * kappa, n_op.T, eye))
    rows, cols, data = map(np.concatenate, zip(*(_kron_triplets(*t) for t in terms)))
    return csr_matrix((data, (rows, cols)), shape=(d * d, d * d))  # sums duplicates


def _kron_triplets(c: float, x: np.ndarray, y: np.ndarray):
    """COO triplets of the nonzeros of ``c * kron(x, y)``."""
    (xr, xc), (yr, yc), step = np.nonzero(x), np.nonzero(y), y.shape[0]
    return (np.ravel(xr[:, None] * step + yr), np.ravel(xc[:, None] * step + yc),
            np.ravel(c * x[xr, xc][:, None] * y[yr, yc]))


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


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def spsolve(system, rhs) -> np.ndarray:
    """scipy's sparse direct solve; :func:`_solve_stationary` calls it by this name."""
    from scipy.sparse.linalg import spsolve
    return spsolve(system, rhs)


def _solve_stationary(lv, d: int) -> np.ndarray:
    """Solve for the real symmetric stationary state on its ``d(d+1)/2`` unknowns.

    ``lv`` maps symmetric matrices to symmetric ones, so the rows of ``(i, j)``
    and ``(j, i)`` coincide: keep ``i <= j``, send the row and column of each
    entry ``(r, s)`` to unknown ``pos[r, s]``, and put the trace row in place of ``(0, 0)``.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import MatrixRankWarning
    i, j = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.int64)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    coo, at = lv.tocoo(), _vec(pos)  # at[r + d * s] is pos[r, s]
    keep = _vec(np.triu(pos))[coo.row] > 0  # the rows i <= j but (0, 0), where pos is 0
    system = csc_matrix((np.r_[np.ones(d), coo.data[keep]],  # sums (r, s) with (s, r)
                         (np.r_[np.zeros(d, np.int64), at[coo.row[keep]]],  # trace row 0
                          np.r_[np.diag(pos), at[coo.col[keep]]])), shape=(i.size, i.size))
    rhs = np.zeros(i.size)
    rhs[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            x = spsolve(system, rhs)
        except (MatrixRankWarning, RuntimeError) as exc:
            raise SingularSystem(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("stationary solve produced non-finite entries")
    return x[pos]


def _checked(rho: np.ndarray, lv, ops: HilbertConfig, shift: float = 0.0) -> DensityMatrix:
    """``rho`` with its residual under the full generator, at most ``_RESIDUAL_TOL``."""
    residual = float(np.abs(lv @ _vec(rho)).max())
    if not math.isfinite(residual) or residual > _RESIDUAL_TOL:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds {_RESIDUAL_TOL:.3e}")
    return DensityMatrix(matrix=rho, residual=residual, ops=ops, shift=shift)


def steady_density(params: SystemParams, config: HilbertConfig) -> DensityMatrix:
    """Stationary density matrix of the full master equation, in the displaced frame.

    ``config.n_cut`` truncates the fluctuation field ``b = a - 2 eps/kappa``.
    Raises :class:`SingularSystem` when the linear solve fails or the
    recovered state does not actually annihilate the generator to
    ``_RESIDUAL_TOL`` (a degenerate stationary manifold looks like this).
    """
    alpha = 2.0 * params.epsilon / params.kappa
    h = hamiltonian_matrix(params.g, 0.0, config, shift=alpha)
    lv = liouvillian_matrix(h, config.a, params.kappa)
    return _checked(_solve_stationary(lv, config.dim), lv, config, shift=alpha)


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
    state of amplitude ``2 eps / kappa`` — so the lab-frame generator is
    solved on its block with the atom in the lower level, rows and columns
    ``r + d s`` with ``m <= r, s < d``, and the solution is tensored with
    that level.  The residual is evaluated with the same full-space generator.
    """
    epsilon, kappa = _require_drive(float(epsilon)), _require_rate("kappa", kappa)
    m, d = config.n_cut + 1, config.dim
    lv = liouvillian_matrix(hamiltonian_matrix(0.0, epsilon, config), config.a, kappa)
    lower = _vec(np.add.outer(np.arange(m, d), d * np.arange(m, d)))
    rho = np.kron(np.diag([0.0, 1.0]), _solve_stationary(lv[lower][:, lower], m))
    return _checked(rho, lv, config)


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
    rho = expm_multiply(t_final * lv, _vec(initial)).reshape((d, d), order="F")
    return DensityMatrix(matrix=rho, residual=float(np.abs(lv @ _vec(rho)).max()),
                         ops=config)
