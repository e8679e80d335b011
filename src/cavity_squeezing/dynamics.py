"""Transient dynamics of the atomic moments.

After adiabatic elimination of the cavity the atom's expectation values
close on themselves: the coherence ``sigma`` and the level populations
``eta_a`` (upper) and ``eta_b`` (lower) obey a linear system with decay
constant ``gamma_c`` and pump rate ``q = 2 g eps / kappa``,

    d sigma  / dt = -(gamma_c / 2) sigma + q (eta_b - eta_a)
    d eta_a  / dt = -gamma_c eta_a + 2 q Re(sigma)
    d eta_b  / dt = -(d eta_a / dt)

The lower-level equation is taken as the exact negative of the
upper-level one: total population must be conserved, and integrating an
independently specified pair would let ``eta_a + eta_b`` drift away from
one.  With this choice the fixed point of the integrator is exactly the
closed-form steady state of :func:`cavity_squeezing.single_mode.steady_atom`.

Integration is classical fixed-step RK4; the system is affine with all
eigenvalues at ``-gamma_c/2`` and ``-gamma_c``-like scales, so any step
small against ``1/max(gamma_c, kappa)`` is deep inside the stability
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .single_mode import AtomSteady
from .sweeps import _write_csv

__all__ = [
    "AtomMomentState",
    "IntegratorConfig",
    "TimeSeries",
    "NonConvergence",
    "StepTooLarge",
    "GROUND_STATE",
    "EXCITED_STATE",
    "moment_derivative",
    "default_integrator_config",
    "integrate",
    "steady_by_integration",
]

# Populations may stray this far outside [0, 1] before the run is declared
# numerically broken.
_POPULATION_SLACK = 1e-6


class NonConvergence(RuntimeError):
    """Raised when ``t_max`` is reached with the derivative above tolerance."""


class StepTooLarge(RuntimeError):
    """Raised when a population leaves [0, 1] by more than the allowed slack."""


@dataclass(frozen=True)
class AtomMomentState:
    """Atomic moments at one instant: complex coherence and two populations."""

    sigma_re: float
    sigma_im: float
    eta_a: float
    eta_b: float


GROUND_STATE = AtomMomentState(0.0, 0.0, 0.0, 1.0)
EXCITED_STATE = AtomMomentState(0.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    ``steady_tol`` is the Euclidean norm of the moment derivative below
    which the trajectory is declared converged.
    """

    dt: float
    t_max: float
    steady_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ValueError(f"t_max must be >= dt, got {self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError(f"t_max / dt must be finite, got {self.t_max} / {self.dt}")
        if not (math.isfinite(self.steady_tol) and self.steady_tol > 0.0):
            raise ValueError(f"steady_tol must be > 0, got {self.steady_tol}")


def default_integrator_config(params: SystemParams) -> IntegratorConfig:
    """Step well below the fastest rate, horizon well past the slowest."""
    dt = 0.01 / max(params.gamma_c, params.kappa)
    return IntegratorConfig(dt=dt, t_max=1e4 / params.gamma_c, steady_tol=1e-12)


@dataclass(frozen=True)
class TimeSeries:
    """A recorded moment trajectory.

    ``t`` has shape (n,), ``states`` has shape (n, 4) with columns
    ``sigma_re, sigma_im, eta_a, eta_b``; ``converged`` reports whether
    the final row met the steady-state tolerance.
    """

    t: np.ndarray
    states: np.ndarray
    converged: bool

    def final_state(self) -> AtomMomentState:
        row = self.states[-1]
        return AtomMomentState(*(float(x) for x in row))

    def to_csv(self, path_or_file) -> None:
        """Write the trajectory as CSV (12-digit scientific, LF endings)."""
        _write_csv(path_or_file, ("t", "sigma_re", "sigma_im", "eta_a", "eta_b"),
                   np.column_stack([self.t, self.states]))


def moment_derivative(state: AtomMomentState, params: SystemParams) -> AtomMomentState:
    """Time derivative of the atomic moments (returned in the same container)."""
    gc = params.gamma_c
    q = 2.0 * params.g * params.epsilon / params.kappa
    d_eta_a = -gc * state.eta_a + 2.0 * q * state.sigma_re
    return AtomMomentState(
        sigma_re=-0.5 * gc * state.sigma_re + q * (state.eta_b - state.eta_a),
        sigma_im=-0.5 * gc * state.sigma_im,
        eta_a=d_eta_a,
        eta_b=-d_eta_a,
    )


def _check_initial(state: AtomMomentState) -> None:
    for name in ("sigma_re", "sigma_im", "eta_a", "eta_b"):
        if not math.isfinite(getattr(state, name)):
            raise ValueError(f"initial state has non-finite {name}")
    lo, hi = -_POPULATION_SLACK, 1.0 + _POPULATION_SLACK
    if not (lo <= state.eta_a <= hi and lo <= state.eta_b <= hi):
        raise ValueError(
            f"initial populations ({state.eta_a}, {state.eta_b}) outside [0, 1]"
        )


def integrate(
    initial: AtomMomentState,
    params: SystemParams,
    config: IntegratorConfig,
) -> TimeSeries:
    """Integrate the moment equations until steady or ``t_max``.

    The returned series includes the initial state and every accepted
    step up to and including the first point whose derivative norm falls
    below ``config.steady_tol``.

    Raises
    ------
    NonConvergence
        ``t_max`` was reached while the derivative norm was still above
        tolerance.
    StepTooLarge
        A population left [0, 1] by more than 1e-6, which for this
        contracting linear system only happens when ``dt`` is too large
        for stability.
    """
    _check_initial(initial)
    gc = params.gamma_c
    q = 2.0 * params.g * params.epsilon / params.kappa
    dt = config.dt
    tol_sq = config.steady_tol * config.steady_tol
    lo, hi = -_POPULATION_SLACK, 1.0 + _POPULATION_SLACK

    # Inner loop on plain floats: cheap enough to take millions of steps.
    sr, si, ea, eb = initial.sigma_re, initial.sigma_im, initial.eta_a, initial.eta_b
    rows = [(sr, si, ea, eb)]
    n_max = math.ceil(config.t_max / dt - 1e-12)

    half = 0.5 * dt
    sixth = dt / 6.0
    converged = False
    for i in range(n_max + 1):
        dsr = -0.5 * gc * sr + q * (eb - ea)
        dsi = -0.5 * gc * si
        dea = -gc * ea + 2.0 * q * sr
        if dsr * dsr + dsi * dsi + 2.0 * (dea * dea) <= tol_sq:
            converged = True
            break
        if i == n_max:
            break
        # RK4 stages; eta_b's rate is the exact negative of eta_a's.
        k1sr, k1si, k1ea = dsr, dsi, dea
        sr2 = sr + half * k1sr
        si2 = si + half * k1si
        ea2 = ea + half * k1ea
        eb2 = eb + half * -k1ea
        k2sr = -0.5 * gc * sr2 + q * (eb2 - ea2)
        k2si = -0.5 * gc * si2
        k2ea = -gc * ea2 + 2.0 * q * sr2
        sr3 = sr + half * k2sr
        si3 = si + half * k2si
        ea3 = ea + half * k2ea
        eb3 = eb + half * -k2ea
        k3sr = -0.5 * gc * sr3 + q * (eb3 - ea3)
        k3si = -0.5 * gc * si3
        k3ea = -gc * ea3 + 2.0 * q * sr3
        sr4 = sr + dt * k3sr
        si4 = si + dt * k3si
        ea4 = ea + dt * k3ea
        eb4 = eb + dt * -k3ea
        k4sr = -0.5 * gc * sr4 + q * (eb4 - ea4)
        k4si = -0.5 * gc * si4
        k4ea = -gc * ea4 + 2.0 * q * sr4
        sr += sixth * (k1sr + 2.0 * (k2sr + k3sr) + k4sr)
        si += sixth * (k1si + 2.0 * (k2si + k3si) + k4si)
        inc_ea = sixth * (k1ea + 2.0 * (k2ea + k3ea) + k4ea)
        ea += inc_ea
        eb += -inc_ea
        if not (lo <= ea <= hi and lo <= eb <= hi):
            raise StepTooLarge(
                f"populations ({ea}, {eb}) left [0, 1] at t={(i + 1) * dt}; "
                "reduce dt"
            )
        rows.append((sr, si, ea, eb))

    if not converged:
        norm = math.sqrt(dsr * dsr + dsi * dsi + 2.0 * (dea * dea))
        raise NonConvergence(
            f"derivative norm {norm:.3e} above {config.steady_tol:.3e} "
            f"at t_max={config.t_max}"
        )
    return TimeSeries(
        t=np.arange(len(rows)) * dt,
        states=np.array(rows, dtype=float),
        converged=converged,
    )


def steady_by_integration(
    params: SystemParams,
    config: IntegratorConfig | None = None,
) -> AtomSteady:
    """Steady atomic moments found by integrating from the ground state.

    Independent route to the same numbers as
    :func:`cavity_squeezing.single_mode.steady_atom`; the imaginary part
    of the coherence stays zero for a real drive and is dropped.
    """
    if config is None:
        config = default_integrator_config(params)
    final = integrate(GROUND_STATE, params, config).final_state()
    return AtomSteady(eta_a=final.eta_a, eta_b=final.eta_b, sigma=final.sigma_re)
