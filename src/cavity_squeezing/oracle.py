"""Independent master-equation oracle on a truncated Hilbert space.

Everything else in this package rests on closed forms.  This module
cross-checks them from first principles: it builds the atom-cavity
Hamiltonian and the cavity-decay Lindblad generator on the product space
(two atomic levels times a truncated Fock ladder), solves the stationary
equation as a sparse linear system, and reports moments of the resulting
density matrix next to the closed-form predictions.

Conventions, fixed once and used everywhere:

* basis order is row-major with the atom index slow and the Fock index
  fast, atomic basis ``[upper, lower]``;
* density matrices are vectorised by column stacking, so a left factor
  ``A`` becomes ``I (x) A``, a right factor ``B`` becomes ``B^T (x) I``,
  and the sandwich ``A rho A^dag`` becomes ``conj(A) (x) A``;
* the stationary solve replaces one redundant row of the generator with
  the trace constraint (the row holding the largest entry of the
  vectorised identity, first maximum on ties) and puts 1 on the
  right-hand side.

The oracle's quadrature variances use the standard commutator, whose
vacuum level is 1 for both quadratures; the closed forms use the
effective-mode normalisation.  The two disagree by design, so the report
carries both values without judging the difference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, expm_multiply, spsolve

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
    "lindblad_action",
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
    dim_cap: int = 256

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
    """Dense operators on the product space (atom slow, Fock fast)."""

    a: np.ndarray
    sigma: np.ndarray
    eta_a: np.ndarray
    eta_b: np.ndarray
    n_cut: int

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def build_operators(config: HilbertConfig) -> CavityAtomOperators:
    """Annihilation, lowering and projector operators on the product space."""
    m = config.n_cut + 1
    eye2 = np.eye(2, dtype=complex)
    eye_m = np.eye(m, dtype=complex)
    sigma_atom = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |b><a|
    return CavityAtomOperators(
        a=np.kron(eye2, np.diag(np.sqrt(np.arange(1.0, m)), 1).astype(complex)),
        sigma=np.kron(sigma_atom, eye_m),
        eta_a=np.kron(np.diag([1.0, 0.0]).astype(complex), eye_m),
        eta_b=np.kron(np.diag([0.0, 1.0]).astype(complex), eye_m),
        n_cut=config.n_cut,
    )


def hamiltonian_matrix(g: float, epsilon: float, ops: CavityAtomOperators) -> np.ndarray:
    """Resonant Hamiltonian ``i g (sigma^dag a - a^dag sigma) + i eps (a^dag - a)``.

    Takes raw rates so the decoupled ``g = 0`` limit can be built too.
    """
    a, s = ops.a, ops.sigma
    ad, sd = a.conj().T, s.conj().T
    return 1j * g * (sd @ a - ad @ s) + 1j * epsilon * (ad - a)


def liouvillian_matrix(hamiltonian: np.ndarray, a: np.ndarray, kappa: float):
    """Sparse generator of the master equation in column-stacked form.

    Returns a CSR matrix ``L`` with ``L @ vec(rho) = vec(drho/dt)`` where
    ``vec`` stacks columns (``reshape(-1, order='F')``).
    """
    d = hamiltonian.shape[0]
    eye = sp.identity(d, format="csr", dtype=complex)
    h = sp.csr_matrix(hamiltonian)
    a_s = sp.csr_matrix(a)
    n_op = (a_s.conj().T @ a_s).tocsr()
    lv = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    lv = lv + kappa * (
        sp.kron(a_s.conj(), a_s)
        - 0.5 * sp.kron(eye, n_op)
        - 0.5 * sp.kron(n_op.T, eye)
    )
    return lv.tocsr()


def lindblad_action(
    rho: np.ndarray, hamiltonian: np.ndarray, a: np.ndarray, kappa: float
) -> np.ndarray:
    """Dense evaluation of ``drho/dt``; used for residual checks."""
    ad = a.conj().T
    n_op = ad @ a
    return (
        -1j * (hamiltonian @ rho - rho @ hamiltonian)
        + kappa * (a @ rho @ ad - 0.5 * (n_op @ rho + rho @ n_op))
    )


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix, the residual of the equation it solves, and its operators.

    ``residual`` is the max-entrywise value of ``drho/dt`` evaluated with
    the original (unmodified) generator; ``ops`` are the operators of the
    Hilbert space that ``matrix`` lives on.
    """

    matrix: np.ndarray
    residual: float
    ops: CavityAtomOperators = field(repr=False)

    def trace_error(self) -> float:
        return float(abs(np.trace(self.matrix) - 1.0))

    def hermiticity_error(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self) -> float:
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

    def expect(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.matrix @ op))


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def _solve_stationary(lv, d: int) -> np.ndarray:
    """Replace the redundant generator row with the trace row and solve."""
    trace_vec = _vec(np.eye(d, dtype=complex))
    k = int(np.argmax(np.abs(trace_vec)))  # first maximum on ties
    coo = lv.tocoo()
    keep = coo.row != k
    diag_cols = np.arange(d) * (d + 1)
    rows = np.concatenate([coo.row[keep], np.full(d, k)])
    cols = np.concatenate([coo.col[keep], diag_cols])
    vals = np.concatenate([coo.data[keep], np.ones(d, dtype=complex)])
    system = sp.csc_matrix((vals, (rows, cols)), shape=lv.shape)
    rhs = np.zeros(d * d, dtype=complex)
    rhs[k] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            x = spsolve(system, rhs)
        except (MatrixRankWarning, RuntimeError) as exc:
            raise SingularSystem(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(x.view(float))):
        raise SingularSystem("stationary solve produced non-finite entries")
    return _unvec(x, d)


def _checked(rho: np.ndarray, h: np.ndarray, ops: CavityAtomOperators, kappa: float,
             tol: float) -> DensityMatrix:
    """``rho`` with its residual under the full generator, which must be <= ``tol``."""
    residual = float(np.abs(lindblad_action(rho, h, ops.a, kappa)).max())
    if not math.isfinite(residual) or residual > tol:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    return DensityMatrix(matrix=rho, residual=residual, ops=ops)


def steady_density(
    params: SystemParams,
    config: HilbertConfig,
    residual_tol: float = 1e-8,
) -> DensityMatrix:
    """Stationary density matrix of the full master equation.

    Raises :class:`SingularSystem` when the linear solve fails or the
    recovered state does not actually annihilate the generator to
    ``residual_tol`` (a degenerate stationary manifold looks like this).
    """
    ops = build_operators(config)
    h = hamiltonian_matrix(params.g, params.epsilon, ops)
    lv = liouvillian_matrix(h, ops.a, params.kappa)
    rho = _solve_stationary(lv, ops.dim)
    return _checked(rho, h, ops, params.kappa, residual_tol)


def standard_quadrature_variances(rho: DensityMatrix) -> tuple[float, float]:
    """Quadrature variances with the standard commutator (vacuum is (1, 1)).

    Plus quadrature is ``a + a^dag``, minus is ``-i (a - a^dag)``; both
    give exactly 1 in the vacuum and in any coherent state.
    """
    a = rho.ops.a
    mean_a = rho.expect(a)
    mean_a2 = rho.expect(a @ a)
    mean_n = rho.expect(a.conj().T @ a)
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
    ``max_imag_part`` (it is at numerical-noise level for a real drive).
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
    a = ops.a
    var_plus, var_minus = standard_quadrature_variances(rho)
    moments = {
        "mean_photon_number": rho.expect(a.conj().T @ a),
        "mean_field": rho.expect(a),
        "mean_field_squared": rho.expect(a @ a),
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


def _ladder(solve, tol: float, start: int, dim_cap: int):
    """Double the Fock cutoff from ``start`` until the mean photon number settles.

    ``solve(config)`` gives the stationary :class:`DensityMatrix` at one
    cutoff.  Returns it at the first cutoff whose mean photon number
    agrees with the previous (half-sized) one within ``tol``.
    Raises :class:`DimensionCap` when doubling would exceed ``dim_cap``
    before convergence.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    previous = None
    n_cut = start
    while True:
        rho = solve(HilbertConfig(n_cut=n_cut, dim_cap=dim_cap))
        mean_n = rho.expect(rho.ops.a.conj().T @ rho.ops.a).real
        if previous is not None and abs(mean_n - previous) < tol:
            return rho
        previous = mean_n
        n_cut *= 2


def cutoff_converged(
    params: SystemParams,
    tol: float = 1e-8,
    start: int = 8,
    dim_cap: int = 256,
) -> tuple[int, OracleReport]:
    """Double the Fock cutoff until the mean photon number settles.

    Returns the converged cutoff of the shared doubling ladder together
    with the report at that cutoff.
    """
    rho = _ladder(lambda c: steady_density(params, c), tol, start, dim_cap)
    return rho.ops.n_cut, _build_report(rho, params)


def decoupled_cavity_steady(
    epsilon: float, kappa: float, config: HilbertConfig
) -> DensityMatrix:
    """Stationary state for a decoupled atom (``g = 0``), solved reliably.

    At ``g = 0`` the full generator has a degenerate stationary manifold
    (the atom never relaxes), so the full-space solve is singular.  The
    cavity factor alone still has a unique stationary state — a coherent
    state of amplitude ``2 eps / kappa`` — so the cavity problem is
    solved on its own and tensored with the atomic lower level.  The
    residual is still evaluated with the full-space generator.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    kappa = _require_rate("kappa", kappa)
    ops = build_operators(config)
    m = config.n_cut + 1
    a_fock = ops.a[:m, :m]  # the Fock block of ``I (x) a``
    h_cavity = 1j * epsilon * (a_fock.conj().T - a_fock)
    lv = liouvillian_matrix(h_cavity, a_fock, kappa)
    rho_cavity = _solve_stationary(lv, m)

    lower = np.diag([0.0, 1.0]).astype(complex)
    rho = np.kron(lower, rho_cavity)
    h_full = hamiltonian_matrix(0.0, epsilon, ops)
    return _checked(rho, h_full, ops, kappa, 1e-8)


def decoupled_benchmark(
    epsilon: float,
    kappa: float,
    tol: float = 1e-8,
    start: int = 8,
    dim_cap: int = 256,
) -> dict:
    """Convergence benchmark of the ``g = 0`` limit against coherent-state values.

    The cavity alone settles into a coherent state, so the exact answers
    are ``<a> = 2 eps/kappa``, ``<a^dag a> = (2 eps/kappa)**2`` and both
    standard-commutator variances equal to 1.
    """
    rho = _ladder(
        lambda c: decoupled_cavity_steady(epsilon, kappa, c), tol, start, dim_cap
    )
    a = rho.ops.a
    mean_n = rho.expect(a.conj().T @ a).real
    alpha = 2.0 * epsilon / kappa
    var_plus, var_minus = standard_quadrature_variances(rho)
    values = {
        "mean_photon_number": (mean_n, alpha * alpha),
        "mean_field": (rho.expect(a).real, alpha),
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
    """Evolve a density matrix by the exact propagator ``exp(t_final L)``.

    Independent route to the stationary state: for ``t_final`` long
    against the slowest relaxation rate the result approaches
    :func:`steady_density`.  The action of the matrix exponential on the
    vectorised state is computed by ``scipy.sparse.linalg.expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011), which chooses its
    own steps.  The default initial state is the absolute ground state
    (lower level, empty cavity).  The returned residual is the
    max-entrywise time derivative at the final state.
    """
    if not (math.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be > 0, got {t_final}")
    ops = build_operators(config)
    h = hamiltonian_matrix(params.g, params.epsilon, ops)
    lv = liouvillian_matrix(h, ops.a, params.kappa)
    d = ops.dim
    if initial is None:
        initial = np.zeros((d, d), dtype=complex)
        ground = config.n_cut + 1  # atom lower level, zero photons
        initial[ground, ground] = 1.0
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.shape != (d, d):
            raise ValueError(f"initial must have shape {(d, d)}")
    rho = _unvec(expm_multiply(t_final * lv, _vec(initial)), d)
    residual = float(np.abs(lindblad_action(rho, h, ops.a, params.kappa)).max())
    return DensityMatrix(matrix=rho, residual=residual, ops=ops)
