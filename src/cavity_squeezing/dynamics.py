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
leaves the region, and :class:`StepTooLarge` reports the first step, raised
when its block is handed on; just inside it, ``epsilon = 150`` "converges"
in 72 steps with a per-step amplification of about 0.63, so the integrator,
not the physics, damps the Rabi transient.

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
from itertools import repeat

import numpy as np

from .params import SystemParams, _require_one_drive, _require_positive
from .sweeps import _write_blocks, _write_csv

__all__ = [
    "AtomMomentState",
    "IntegratorConfig",
    "TimeSeries",
    "NonConvergence",
    "StepTooLarge",
    "GROUND_STATE",
    "EXCITED_STATE",
    "default_integrator_config",
    "integrate",
    "stream_trajectory",
]

# Populations may stray 1e-6 outside [0, 1] before the run is declared numerically broken.
_POP_LO, _POP_HI = -1e-6, 1.0 + 1e-6
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

    ``steady_tol`` is the Euclidean norm of the moment derivative below which the
    trajectory is declared converged.  It has no default, since the norm scales with
    the rates; :func:`default_integrator_config` sets it to ``2.5e-12 gamma_c``.
    """

    dt: float
    t_max: float
    steady_tol: float

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


def _check_initial(state: AtomMomentState) -> None:
    for name in ("sigma_re", "sigma_im", "eta_a", "eta_b"):
        if not math.isfinite(getattr(state, name)):
            raise ValueError(f"initial state has non-finite {name}")
    if not (_POP_LO <= state.eta_a <= _POP_HI and _POP_LO <= state.eta_b <= _POP_HI):
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
    t = np.arange(len(states), dtype=float)
    t *= config.dt  # in place, so the times cost 8 B a row at their peak
    return TimeSeries(t=t, states=states)


def _blocks(initial: AtomMomentState, params: SystemParams, config: IntegratorConfig):
    """The rows of :func:`integrate`'s ``states``, yielded as (k, 4) arrays of
    ``_BLOCK_ROWS`` rows each as they fill; the last block may be shorter.  ``initial``
    and the drive are checked here, before a caller draws or writes anything."""
    _check_initial(initial)
    q = 2.0 * params.g * _require_one_drive(params.epsilon) / params.kappa
    return _rk4_blocks(initial, params, config, q)


def _rk4_blocks(initial: AtomMomentState, params: SystemParams, config: IntegratorConfig,
                q: float):
    """:func:`_blocks`' generator, with the pump ``q = 2 g eps / kappa``."""
    # The rates' coefficients, named once: ``c * x`` rounds like ``-0.5 * gc * x``.
    c_sigma, c_eta, c_pump = -0.5 * params.gamma_c, -params.gamma_c, 2.0 * q
    dt = config.dt
    tol_sq = config.steady_tol * config.steady_tol

    # Plain-float loop, stages written out; eta_b's rate is minus eta_a's, so each population
    # step ``h`` is taken once.  sigma_im feeds only the stop test and steps on its own (a zero
    # stays or turns +0.0).  Step i appends row i + 1 to a float64 buffer; no step checks the
    # block's length (the outer loop ends it) or its populations (checked once per block).
    sr, si, ea, eb = initial.sigma_re, initial.sigma_im, initial.eta_a, initial.eta_b
    rows = array("d", (sr, si, ea, eb))
    n_max = math.ceil(config.t_max / dt - 1e-12)
    half, sixth = 0.5 * dt, dt / 6.0
    decay = repeat((0.0, 0.0)) if si == 0.0 else _sigma_im_steps(si, c_sigma, half, dt, sixth)
    start = first = 0  # the next step, and the index of the block's first row
    for stop in range(_BLOCK_ROWS - 1, n_max + _BLOCK_ROWS + 1, _BLOCK_ROWS):
        for i, (k1si_sq, si) in zip(range(start, min(stop, n_max + 1)), decay):
            k1sr, k1ea = c_sigma * sr + q * (eb - ea), c_eta * ea + c_pump * sr
            norm_sq = k1sr * k1sr + k1si_sq + 2.0 * (k1ea * k1ea)
            if norm_sq <= tol_sq:
                if rows:
                    yield _populations_checked(rows, first, dt)
                return
            if i == n_max:
                _populations_checked(rows, first, dt)
                raise NonConvergence(f"derivative norm {math.sqrt(norm_sq):.3e} above "
                                     f"{config.steady_tol:.3e} at t_max={config.t_max}")
            s, a, b = sr + half * k1sr, ea + (h := half * k1ea), eb - h
            k2sr, k2ea = c_sigma * s + q * (b - a), c_eta * a + c_pump * s
            s, a, b = sr + half * k2sr, ea + (h := half * k2ea), eb - h
            k3sr, k3ea = c_sigma * s + q * (b - a), c_eta * a + c_pump * s
            s, a, b = sr + dt * k3sr, ea + (h := dt * k3ea), eb - h
            k4sr, k4ea = c_sigma * s + q * (b - a), c_eta * a + c_pump * s
            sr += sixth * (k1sr + 2.0 * (k2sr + k3sr) + k4sr)
            ea, eb = ea + (h := sixth * (k1ea + 2.0 * (k2ea + k3ea) + k4ea)), eb - h
            rows.fromlist([sr, si, ea, eb])
        yield _populations_checked(rows, first, dt)
        rows, start, first = array("d"), stop, stop + 1


def _sigma_im_steps(si: float, c: float, half: float, dt: float, sixth: float):
    """Per RK4 step of ``sigma_im`` at rate ``c``: ``k1 * k1`` here, ``sigma_im`` next."""
    while True:
        k1 = c * si
        k2 = c * (si + half * k1)
        k3 = c * (si + half * k2)
        k4 = c * (si + dt * k3)
        si += sixth * (k1 + 2.0 * (k2 + k3) + k4)
        yield k1 * k1, si


def _populations_checked(rows: array, first: int, dt: float) -> np.ndarray:
    """``rows`` (from row ``first``) as (k, 4); StepTooLarge at the first bad or NaN row."""
    block = np.frombuffer(rows).reshape(-1, 4)
    ea, eb = block[:, 2], block[:, 3]
    bad = ~((_POP_LO <= ea) & (ea <= _POP_HI) & (_POP_LO <= eb) & (eb <= _POP_HI))
    if bad.any():
        k = int(bad.argmax())
        raise StepTooLarge(f"populations ({float(ea[k])}, {float(eb[k])}) left [0, 1] at "
                           f"t={(first + k) * dt}; reduce dt")
    return block


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
    n_rows, final, blocks = 0, None, _blocks(initial, params, config)

    def timed():
        nonlocal n_rows, final
        for states in blocks:
            if out is not None:
                t = np.arange(n_rows, n_rows + len(states), dtype=float)
                t *= config.dt
                yield t, states
            n_rows, final = n_rows + len(states), _state(states[-1])
            t = states = None  # released before _blocks fills the next block

    if out is None:
        for _ in timed():  # yields nothing
            pass
    else:
        _write_blocks(out, _COLUMNS, timed())
    return n_rows - 1, final

