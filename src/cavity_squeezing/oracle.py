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
the lab frame, so ``g = 0`` still checks ``alpha`` independently.

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

import numpy as np

from . import single_mode, superposed
from .params import SystemParams, _require_rate

__all__ = [
    "DimensionCap",
    "SingularSystem",
    "HilbertConfig",
    "CavityAtomOperators",
    "DensityMatrix",
    "OracleReport",
    "build_operators",
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
    construction so no oversized operator is ever built.
    """

    n_cut: int
    dim_cap: int = _DIM_CAP

    def __post_init__(self) -> None:
        if int(self.n_cut) != self.n_cut or self.n_cut < 2:
            raise ValueError(f"n_cut must be an integer >= 2, got {self.n_cut}")
        object.__setattr__(self, "n_cut", int(self.n_cut))
        if int(self.dim_cap) != self.dim_cap or self.dim_cap < 6:
            raise ValueError(f"dim_cap must be an integer >= 6, got {self.dim_cap}")
        object.__setattr__(self, "dim_cap", int(self.dim_cap))
        if self.dim > self.dim_cap:
            raise DimensionCap(
                f"dimension 2*({self.n_cut}+1)={self.dim} exceeds cap {self.dim_cap}"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.n_cut + 1)


@dataclass(frozen=True)
class CavityAtomOperators:
    """Real dense operators on the product space (atom slow, Fock fast).

    ``a`` lowers the Fock ladder: it is the cavity field in the lab frame
    and the fluctuation field ``b`` in the displaced frame.
    """

    a: np.ndarray
    sigma: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray
    n_cut: int

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def build_operators(config: HilbertConfig) -> CavityAtomOperators:
    """Annihilation, lowering and projector operators on the product space, as float64 arrays."""
    m = config.n_cut + 1
    upper = np.repeat([1.0, 0.0], m)
    return CavityAtomOperators(
        a=np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, m)), 1)),
        sigma=np.eye(2 * m, k=-m),  # |b><a|: upper block to lower block
        eta_a=np.diag(upper),
        eta_b=np.diag(1.0 - upper),
        n_cut=config.n_cut,
    )


def hamiltonian_matrix(g: float, epsilon: float, ops: CavityAtomOperators,
                       shift: float = 0.0):
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
    """A density matrix, the residual of the equation it solves, and its operators.

    ``residual`` is the max-entrywise value of ``drho/dt`` evaluated with
    the original (unmodified) generator; ``ops`` are the operators of the
    Hilbert space that ``matrix`` lives on.  ``shift`` is the frame: the
    state's ladder operator ``ops.a`` is the lab field minus ``shift``.
    """

    matrix: np.ndarray
    residual: float
    ops: CavityAtomOperators = field(repr=False)
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

    def field_moments(self) -> tuple[complex, complex, complex]:
        """Lab-frame ``<a>``, ``<a^2>``, ``<a^dag a>`` from ``a = shift + b``; the
        one place the frame is undone (variances do not change under it)."""
        b, s = self.ops.a, self.shift
        mean_b = self.expect(b)
        return (s + mean_b,
                s * s + 2.0 * s * mean_b + self.expect(b @ b),
                s * s + 2.0 * s * mean_b.real + self.expect(b.T @ b))


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


def _checked(rho: np.ndarray, lv, ops: CavityAtomOperators,
             shift: float = 0.0) -> DensityMatrix:
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
    ops = build_operators(config)
    alpha = 2.0 * params.epsilon / params.kappa
    h = hamiltonian_matrix(params.g, 0.0, ops, shift=alpha)
    lv = liouvillian_matrix(h, ops.a, params.kappa)
    return _checked(_solve_stationary(lv, ops.dim), lv, ops, shift=alpha)


def standard_quadrature_variances(rho: DensityMatrix) -> tuple[float, float]:
    """Quadrature variances with the standard commutator (vacuum is (1, 1)).

    Plus quadrature is ``a + a^dag``, minus is ``-i (a - a^dag)``; both
    give exactly 1 in the vacuum and in any coherent state.
    """
    return _variances(*rho.field_moments())


def _variances(mean_a: complex, mean_a2: complex, mean_n: complex) -> tuple[float, float]:
    sym = 2.0 * mean_n + 1.0  # <a a^dag + a^dag a> via the commutator
    var_plus = sym + 2.0 * mean_a2.real - 2.0 * (mean_a * mean_a).real - 2.0 * abs(mean_a) ** 2
    var_minus = sym - 2.0 * mean_a2.real + 2.0 * (mean_a * mean_a).real - 2.0 * abs(mean_a) ** 2
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
    ops = rho.ops
    mean_a, mean_a2, mean_n = rho.field_moments()
    var_plus, var_minus = _variances(mean_a, mean_a2, mean_n)
    moments = {
        "mean_photon_number": mean_n,
        "mean_field": mean_a,
        "mean_field_squared": mean_a2,
        "eta_a": rho.expect(ops.eta_a),
        "eta_b": rho.expect(ops.eta_b),
        "sigma": rho.expect(ops.sigma),
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
        n_cut=ops.n_cut,
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
    cutoff.  Returns it at the first cutoff whose moments in the solved
    frame, ``<b>``, ``<b^2>``, ``<b^dag b>``, ``<sigma>`` and
    ``<sigma^dag sigma>``, all agree with the previous (half-sized) one
    within ``tol``.  The lab-frame photon number is not compared: it adds
    ``2 alpha <b>``, which scales the rounding in ``<b>`` by the drive.
    Raises :class:`DimensionCap` when doubling would exceed ``dim_cap``
    before convergence.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    previous = None
    n_cut = _LADDER_START
    while True:
        rho = solve(HilbertConfig(n_cut=n_cut, dim_cap=dim_cap))
        b = rho.ops.a
        moments = np.array([rho.expect(op)
                            for op in (b, b @ b, b.T @ b, rho.ops.sigma, rho.ops.eta_a)])
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
    state of amplitude ``2 eps / kappa`` — so the cavity problem is
    solved on its own, in the lab frame, and tensored with the atomic
    lower level.  The residual is still evaluated with the full-space
    generator.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    kappa = _require_rate("kappa", kappa)
    ops = build_operators(config)
    m = config.n_cut + 1
    a_fock = ops.a[:m, :m]  # the Fock block of ``I (x) a``
    lv = liouvillian_matrix(1j * epsilon * (a_fock.T - a_fock), a_fock, kappa)
    rho = np.kron(np.diag([0.0, 1.0]), _solve_stationary(lv, m))
    lv_full = liouvillian_matrix(hamiltonian_matrix(0.0, epsilon, ops), ops.a, kappa)
    return _checked(rho, lv_full, ops)


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
    mean_a, mean_a2, mean_n = rho.field_moments()
    alpha = 2.0 * epsilon / kappa
    var_plus, var_minus = _variances(mean_a, mean_a2, mean_n)
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
    initial: np.ndarray | None = None,
) -> DensityMatrix:
    """Evolve a lab-frame density matrix by the exact propagator ``exp(t_final L)``.

    Independent route to the stationary state: for ``t_final`` long
    against the slowest relaxation rate the result approaches the
    lab-frame stationary state.  The action of the matrix exponential on the
    vectorised state is computed by ``scipy.sparse.linalg.expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011), which chooses its
    own steps.  The default initial state is the absolute ground state
    (lower level, empty cavity).  The returned residual is the
    max-entrywise time derivative at the final state.
    """
    from scipy.sparse.linalg import expm_multiply
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be > 0, got {t_final}")
    ops = build_operators(config)
    h = hamiltonian_matrix(params.g, params.epsilon, ops)
    lv = liouvillian_matrix(h, ops.a, params.kappa)
    d = ops.dim
    if initial is None:
        initial = np.zeros((d, d))
        ground = config.n_cut + 1  # atom lower level, zero photons
        initial[ground, ground] = 1.0
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.shape != (d, d):
            raise ValueError(f"initial must have shape {(d, d)}")
    rho = expm_multiply(t_final * lv, _vec(initial)).reshape((d, d), order="F")
    return DensityMatrix(matrix=rho, residual=float(np.abs(lv @ _vec(rho)).max()), ops=ops)
