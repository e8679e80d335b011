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

Integration is classical fixed-step RK4 on an affine system.  ``sigma_im``
decays at ``-gamma_c/2``; with ``eta_a + eta_b`` fixed, the pair
``(sigma_re, eta_a)`` has eigenvalues ``-3 gamma_c/4 +- sqrt(gamma_c**2/16
- 4 q**2)``, whose imaginary parts are about ``+-2 q`` under strong drive.
RK4 is stable only while ``2 q dt`` stays below about ``2 sqrt(2)``, so
there the pump rate ``q``, not the decay rates, bounds the step.  At
``gamma_c = 0.4``, ``kappa = 0.8`` and the default step, ``epsilon = 200``
leaves the region and raises :class:`StepTooLarge` after one step; just
inside it, ``epsilon = 150`` "converges" in 72 steps with a per-step
amplification of about 0.63, so the integrator, not the physics, damps the
Rabi transient.

The number of steps grows with ``kappa / gamma_c``, so the one RK4 loop
hands its trajectory on in blocks of ``_BLOCK_ROWS`` rows.
:func:`stream_trajectory` writes each block as CSV as it fills, or keeps only
its last row, so its memory does not grow with the step count;
:func:`integrate` joins the blocks into one :class:`TimeSeries`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, _require_positive
from .single_mode import AtomSteady
from .sweeps import _write_blocks, _write_csv

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
    "stream_trajectory",
    "steady_by_integration",
]

# Populations may stray this far outside [0, 1] before the run is declared
# numerically broken.
_POPULATION_SLACK = 1e-6
# Rows per block of the trajectory (1 MB of state).  Freeing blocks this large
# raises glibc's mmap and trim thresholds, so the CSV formatter's temporaries
# are reused; below about 32k rows they are mapped and trimmed on every call.
_BLOCK_ROWS = 32768
_COLUMNS = ("t", "sigma_re", "sigma_im", "eta_a", "eta_b")


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
    which the trajectory is declared converged.  Its field default 1e-12 is
    absolute; :func:`default_integrator_config` scales it as ``2.5e-12 gamma_c``.
    """

    dt: float
    t_max: float
    steady_tol: float = 1e-12

    def __post_init__(self) -> None:
        _require_positive("dt", self.dt)
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ValueError(f"t_max must be >= dt, got {self.t_max}")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError(f"t_max / dt must be finite, got {self.t_max} / {self.dt}")
        _require_positive("steady_tol", self.steady_tol)


def default_integrator_config(params: SystemParams) -> IntegratorConfig:
    """Step well below the fastest decay, horizon well past the slowest.

    All three settings scale with the rates, since only their ratios matter
    (``steady_tol = 2.5e-12 gamma_c`` is 1e-12 at ``gamma_c = 0.4``).  The
    step ignores the drive: it is stable only while ``2 q dt`` stays below
    about ``2 sqrt(2)`` (module docstring), and accurate only well below
    that, so a strong drive needs a smaller ``dt``.
    """
    dt = 0.01 / max(params.gamma_c, params.kappa)
    return IntegratorConfig(dt=dt, t_max=1e4 / params.gamma_c,
                            steady_tol=2.5e-12 * params.gamma_c)


@dataclass(frozen=True)
class TimeSeries:
    """A recorded moment trajectory.

    ``t`` has shape (n,), ``states`` has shape (n, 4) with columns
    ``sigma_re, sigma_im, eta_a, eta_b``, four float64 (32 B) per step;
    the last row met the steady-state tolerance.  The whole trajectory is
    held in memory; :func:`stream_trajectory` writes the same CSV in
    bounded memory.
    """

    t: np.ndarray
    states: np.ndarray

    def final_state(self) -> AtomMomentState:
        return _state(self.states[-1])

    def to_csv(self, path_or_file) -> None:
        """Write the trajectory as CSV (12-digit scientific, LF endings)."""
        _write_csv(path_or_file, _COLUMNS, self.t, self.states)


def _state(row) -> AtomMomentState:
    return AtomMomentState(*(float(x) for x in row))


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
    buf = array("d")
    for block in _blocks(initial, params, config):
        buf.frombytes(memoryview(block).cast("B"))
    del block  # before the times are built
    states = np.frombuffer(buf).reshape(-1, 4)
    return TimeSeries(t=np.arange(len(states)) * config.dt, states=states)


def _blocks(initial: AtomMomentState, params: SystemParams, config: IntegratorConfig):
    """The rows of :func:`integrate`'s ``states``, yielded as (k, 4) arrays of
    ``_BLOCK_ROWS`` rows each as they fill; the last block may be shorter."""
    _check_initial(initial)
    q = 2.0 * params.g * params.epsilon / params.kappa
    # The rates' coefficients, named once: ``c * x`` rounds like ``-0.5 * gc * x``.
    c_sigma, c_eta, c_pump = -0.5 * params.gamma_c, -params.gamma_c, 2.0 * q
    dt = config.dt
    tol_sq = config.steady_tol * config.steady_tol
    lo, hi = -_POPULATION_SLACK, 1.0 + _POPULATION_SLACK

    # Plain-float loop, stages written out; eta_b's rate is minus eta_a's, so each
    # population step ``h`` is taken once.  Step i appends row i + 1 to a float64 buffer,
    # so the inner loop ends when a block holds _BLOCK_ROWS rows and checks nothing for it.
    sr, si, ea, eb = initial.sigma_re, initial.sigma_im, initial.eta_a, initial.eta_b
    rows = array("d", (sr, si, ea, eb))
    n_max = math.ceil(config.t_max / dt - 1e-12)
    half, sixth = 0.5 * dt, dt / 6.0
    start = 0
    for stop in range(_BLOCK_ROWS - 1, n_max + _BLOCK_ROWS + 1, _BLOCK_ROWS):
        for i in range(start, min(stop, n_max + 1)):
            k1sr, k1si, k1ea = (c_sigma * sr + q * (eb - ea), c_sigma * si,
                                c_eta * ea + c_pump * sr)
            norm_sq = k1sr * k1sr + k1si * k1si + 2.0 * (k1ea * k1ea)
            if norm_sq <= tol_sq:
                if rows:
                    yield np.frombuffer(rows).reshape(-1, 4)
                return
            if i == n_max:
                raise NonConvergence(f"derivative norm {math.sqrt(norm_sq):.3e} above "
                                     f"{config.steady_tol:.3e} at t_max={config.t_max}")
            s, a, b = sr + half * k1sr, ea + (h := half * k1ea), eb - h
            k2sr, k2si, k2ea = (c_sigma * s + q * (b - a), c_sigma * (si + half * k1si),
                                c_eta * a + c_pump * s)
            s, a, b = sr + half * k2sr, ea + (h := half * k2ea), eb - h
            k3sr, k3si, k3ea = (c_sigma * s + q * (b - a), c_sigma * (si + half * k2si),
                                c_eta * a + c_pump * s)
            s, a, b = sr + dt * k3sr, ea + (h := dt * k3ea), eb - h
            k4sr, k4si, k4ea = (c_sigma * s + q * (b - a), c_sigma * (si + dt * k3si),
                                c_eta * a + c_pump * s)
            sr += sixth * (k1sr + 2.0 * (k2sr + k3sr) + k4sr)
            si += sixth * (k1si + 2.0 * (k2si + k3si) + k4si)
            ea, eb = ea + (h := sixth * (k1ea + 2.0 * (k2ea + k3ea) + k4ea)), eb - h
            if not (lo <= ea <= hi and lo <= eb <= hi):
                raise StepTooLarge(f"populations ({ea}, {eb}) left [0, 1] at "
                                   f"t={(i + 1) * dt}; reduce dt")
            rows.fromlist([sr, si, ea, eb])
        yield np.frombuffer(rows).reshape(-1, 4)
        rows, start = array("d"), stop


def stream_trajectory(
    initial: AtomMomentState,
    params: SystemParams,
    config: IntegratorConfig,
    out=None,
) -> tuple[int, AtomMomentState]:
    """Integrate as :func:`integrate` does, holding one block of rows at a time.

    Given ``out`` (a path or a writable text file), every row goes to it as
    the CSV that ``TimeSeries.to_csv`` writes, a block at a time as it fills;
    if the run fails, a path keeps no partial rows unless it is a link or a
    device (see ``sweeps._write_blocks``).  Returns the number of steps and
    the final state.  Raises as :func:`integrate` does.
    """
    n_rows, final = 0, None

    def timed():
        nonlocal n_rows, final
        for states in _blocks(initial, params, config):
            if out is not None:
                yield (n_rows + np.arange(len(states))) * config.dt, states
            n_rows, final = n_rows + len(states), _state(states[-1])
            del states  # before _blocks fills the next block

    if out is None:
        for _ in timed():  # yields nothing
            pass
    else:
        _write_blocks(out, _COLUMNS, timed())
    return n_rows - 1, final


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
    _, final = stream_trajectory(GROUND_STATE, params, config)
    return AtomSteady(eta_a=final.eta_a, eta_b=final.eta_b, sigma=final.sigma_re)
