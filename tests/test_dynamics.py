import io
import itertools
import math
import os
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_squeezing import (
    EXCITED_STATE,
    GROUND_STATE,
    AtomMomentState,
    IntegratorConfig,
    NonConvergence,
    StepTooLarge,
    SystemParams,
    TimeSeries,
    default_integrator_config,
    integrate,
    dynamics,
    steady_atom,
    stream_trajectory,
)


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


CFG = IntegratorConfig(dt=0.01, t_max=500.0, steady_tol=1e-12)


def _components(state):
    return (state.sigma_re, state.sigma_im, state.eta_a, state.eta_b)


# The moment equations of the dynamics module's docstring, written apart from its
# integrator as the independent reference of these tests.
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


def rk4_reference(initial, params, config):
    """Classical RK4 on ``moment_derivative``, stopped by ``integrate``'s rule.

    Returns the rows up to and including the first state whose derivative
    norm is at most ``config.steady_tol``.
    """
    dt = config.dt

    def shifted(state, h, rate):
        return AtomMomentState(*(x + h * k for x, k in
                                 zip(_components(state), _components(rate))))

    state, rows = initial, [_components(initial)]
    for _ in range(math.ceil(config.t_max / dt - 1e-12) + 1):
        k1 = moment_derivative(state, params)
        sr, si, ea, eb = _components(k1)
        # summed by pairs, since ea*ea + eb*eb is exactly integrate's 2*(ea*ea)
        if (sr * sr + si * si) + (ea * ea + eb * eb) <= config.steady_tol * config.steady_tol:
            return np.array(rows)
        k2 = moment_derivative(shifted(state, 0.5 * dt, k1), params)
        k3 = moment_derivative(shifted(state, 0.5 * dt, k2), params)
        k4 = moment_derivative(shifted(state, dt, k3), params)
        state = AtomMomentState(*(x + dt / 6.0 * (a + 2.0 * (b + c) + d) for x, a, b, c, d in
                                  zip(*map(_components, (state, k1, k2, k3, k4)))))
        rows.append(_components(state))
    raise AssertionError("the reference did not converge")


@st.composite
def stable_runs(draw):
    """Rates, a physical initial state and a stable step that converges in under 900 steps.

    With ``epsilon`` at most twice its optimum ``sqrt(kappa gamma_c / 8)`` the pump is
    ``q <= gamma_c / sqrt(2)``, so ``dt <= 0.5 / gamma_c`` keeps ``2 q dt`` below 0.71.
    """
    gamma_c = draw(st.floats(0.05, 5.0))
    kappa = gamma_c * draw(st.floats(1.0, 64.0))
    eps = draw(st.floats(0.0, 2.0)) * math.sqrt(kappa * gamma_c / 8.0)
    eta_a = draw(st.floats(0.0, 1.0))
    bound = math.sqrt(eta_a * (1.0 - eta_a))  # |sigma| <= sqrt(eta_a eta_b)
    sigma_re = draw(st.floats(-1.0, 1.0)) * bound / math.sqrt(2.0)
    sigma_im = draw(st.sampled_from([0.0, -0.0])
                    | st.floats(-1.0, 1.0).filter(bool).map(lambda x: x * bound / math.sqrt(2.0)))
    initial = AtomMomentState(sigma_re, sigma_im, eta_a, 1.0 - eta_a)
    config = IntegratorConfig(dt=draw(st.floats(0.05, 0.5)) / gamma_c, t_max=1e4 / gamma_c,
                              steady_tol=draw(st.floats(1e-9, 1e-5)) * gamma_c)
    return params_at(eps, gamma_c, kappa), initial, config, draw(st.sampled_from([1, 2, 3, 7, 64]))


class TestConfig:
    def test_defaults_follow_rates(self):
        p = params_at(0.2)
        cfg = default_integrator_config(p)
        assert cfg.dt == 0.01 / 0.8
        assert cfg.t_max == 1e4 / 0.4
        assert cfg.steady_tol == 1e-12

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
    def test_default_stop_rule_is_scale_free(self, scale):
        """Only rate ratios matter: scaling every rate keeps the steps and the state."""
        p = params_at(0.2 * scale, 0.4 * scale, 0.8 * scale)
        series = integrate(GROUND_STATE, p, default_integrator_config(p))
        canonical = params_at(0.2)
        reference = integrate(GROUND_STATE, canonical, default_integrator_config(canonical))
        assert len(series.t) == len(reference.t)
        final, exact = series.final_state(), steady_atom(p)
        assert abs(final.sigma_re - exact.sigma) <= 1e-8
        assert abs(final.eta_a - exact.eta_a) <= 1e-8
        assert abs(final.eta_b - exact.eta_b) <= 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_max=1.0, steady_tol=1e-12),
            dict(dt=-0.1, t_max=1.0, steady_tol=1e-12),
            dict(dt=0.1, t_max=0.05, steady_tol=1e-12),
            dict(dt=0.1, t_max=math.inf, steady_tol=1e-12),
            dict(dt=1e-300, t_max=1e300, steady_tol=1e-12),  # t_max / dt overflows
            dict(dt=0.1, t_max=1.0, steady_tol=0.0),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_stop_rule_has_no_default(self):
        # the derivative norm scales with the rates, so no absolute tolerance fits all
        with pytest.raises(TypeError, match="steady_tol"):
            IntegratorConfig(dt=0.1, t_max=1.0)


class TestDerivative:
    def test_undriven_ground_state_is_stationary(self):
        rates = moment_derivative(GROUND_STATE, params_at(0.0))
        assert rates == AtomMomentState(0.0, 0.0, 0.0, 0.0)

    def test_driven_ground_state_pumps_coherence_first(self):
        p = params_at(0.2)
        rates = moment_derivative(GROUND_STATE, p)
        q = 2.0 * p.g * p.epsilon / p.kappa
        assert rates.sigma_re == pytest.approx(q, rel=1e-15)
        assert rates.sigma_im == 0.0
        assert rates.eta_a == 0.0
        assert rates.eta_b == 0.0

    def test_excited_state_decays(self):
        p = params_at(0.0)
        rates = moment_derivative(EXCITED_STATE, p)
        assert rates.eta_a == -p.gamma_c
        assert rates.eta_b == p.gamma_c

    def test_population_rates_cancel_exactly(self):
        p = params_at(0.37, 0.9, 1.1)
        state = AtomMomentState(0.21, -0.04, 0.3, 0.7)
        rates = moment_derivative(state, p)
        assert rates.eta_b == -rates.eta_a

    def test_closed_form_steady_state_is_a_fixed_point(self):
        p = params_at(0.2)
        atom = steady_atom(p)
        state = AtomMomentState(atom.sigma, 0.0, atom.eta_a, atom.eta_b)
        rates = moment_derivative(state, p)
        assert abs(rates.sigma_re) <= 1e-12
        assert abs(rates.eta_a) <= 1e-12
        assert abs(rates.eta_b) <= 1e-12


class TestIntegrate:
    def test_undriven_ground_state_converges_immediately(self):
        series = integrate(GROUND_STATE, params_at(0.0), CFG)
        assert len(series.t) == 1
        assert series.t[0] == 0.0
        np.testing.assert_array_equal(series.states[0], [0.0, 0.0, 0.0, 1.0])

    def test_reaches_closed_form_from_ground(self):
        p = params_at(0.2)
        final = integrate(GROUND_STATE, p, CFG).final_state()
        atom = steady_atom(p)
        assert final.sigma_re == pytest.approx(atom.sigma, abs=1e-8)
        assert final.sigma_im == pytest.approx(0.0, abs=1e-12)
        assert final.eta_a == pytest.approx(atom.eta_a, abs=1e-8)
        assert final.eta_b == pytest.approx(atom.eta_b, abs=1e-8)

    def test_reaches_closed_form_from_excited(self):
        p = params_at(0.2)
        final = integrate(EXCITED_STATE, p, CFG).final_state()
        atom = steady_atom(p)
        assert final.sigma_re == pytest.approx(atom.sigma, abs=1e-8)
        assert final.eta_a == pytest.approx(atom.eta_a, abs=1e-8)
        assert final.eta_b == pytest.approx(atom.eta_b, abs=1e-8)

    def test_population_is_conserved_along_the_trajectory(self):
        series = integrate(EXCITED_STATE, params_at(0.2), CFG)
        drift = np.abs(series.states[:, 2] + series.states[:, 3] - 1.0).max()
        assert drift <= 1e-10

    def test_coherence_stays_real_for_real_drive(self):
        series = integrate(GROUND_STATE, params_at(0.2), CFG)
        assert np.abs(series.states[:, 1]).max() <= 1e-12

    def test_halving_the_step_does_not_move_the_answer(self):
        p = params_at(0.3, 0.7, 1.1)
        fine = IntegratorConfig(dt=CFG.dt / 2.0, t_max=CFG.t_max, steady_tol=1e-12)
        a = integrate(GROUND_STATE, p, CFG).final_state()
        b = integrate(GROUND_STATE, p, fine).final_state()
        assert a.sigma_re == pytest.approx(b.sigma_re, abs=1e-10)
        assert a.eta_a == pytest.approx(b.eta_a, abs=1e-10)
        assert a.eta_b == pytest.approx(b.eta_b, abs=1e-10)

    def test_time_grid_is_uniform(self):
        series = integrate(GROUND_STATE, params_at(0.2), CFG)
        assert series.t[0] == 0.0
        steps = np.diff(series.t)
        np.testing.assert_allclose(steps, CFG.dt, rtol=1e-12)

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergence) as info:
            integrate(GROUND_STATE, params_at(0.2),
                      IntegratorConfig(dt=0.01, t_max=0.1, steady_tol=1e-12))
        assert str(info.value) == "derivative norm 1.387e-01 above 1.000e-12 at t_max=0.1"

    def test_unstable_step_raises(self):
        with pytest.raises(StepTooLarge) as info:
            integrate(EXCITED_STATE, params_at(0.0),
                      IntegratorConfig(dt=1000.0, t_max=1e6, steady_tol=1e-12))
        assert str(info.value) == ("populations (1056079601.0000002, -1056079600.0000002) "
                                   "left [0, 1] at t=1000.0; reduce dt")
        # just past the stability edge, the ninth step is the first to leave
        with pytest.raises(StepTooLarge) as info:
            integrate(AtomMomentState(0.0, 0.0, 0.5, 0.5), params_at(0.0),
                      IntegratorConfig(dt=7.1, t_max=1e6, steady_tol=1e-12))
        assert str(info.value) == ("populations (1.0476630856149758, -0.04766308561497569) "
                                   "left [0, 1] at t=63.9; reduce dt")

    @pytest.mark.parametrize("gamma_c,kappa,eps,initial,dt", [
        (0.4, 0.8, 0.2, GROUND_STATE, 0.01),
        (0.7, 3.1, 0.9, EXCITED_STATE, 0.02),
        (0.25, 6.0, 0.1, AtomMomentState(0.1, -0.05, 0.3, 0.7), 0.05),
        (1.3, 2.2, 2.5, GROUND_STATE, 0.003),
        (0.4, 0.8, 0.2, AtomMomentState(0.2, 0.3, 0.6, 0.4), 0.01),
    ])
    def test_is_classical_rk4_on_the_public_derivative(self, gamma_c, kappa, eps,
                                                       initial, dt, monkeypatch):
        # small blocks, so that every run's rows cross block boundaries
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 256)
        p = params_at(eps, gamma_c, kappa)
        config = IntegratorConfig(dt=dt, t_max=1e4, steady_tol=1e-10)
        series = integrate(initial, p, config)
        np.testing.assert_array_equal(series.states, rk4_reference(initial, p, config))

    @pytest.mark.thorough
    @settings(deadline=None)
    @given(stable_runs())
    def test_is_classical_rk4_for_drawn_runs(self, run):
        p, initial, config, block_rows = run
        with mock.patch.object(dynamics, "_BLOCK_ROWS", block_rows):
            series = integrate(initial, p, config)
        np.testing.assert_array_equal(series.states, rk4_reference(initial, p, config))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("gamma_c,dt", [(0.4, 0.0125), (3.0, 0.5), (1e-3, 1e3)])
    def test_zero_sigma_im_steps_give_positive_zeros(self, zero, gamma_c, dt):
        # what _blocks repeats in their place when the run starts at sigma_im == 0
        steps = dynamics._sigma_im_steps(zero, -0.5 * gamma_c, 0.5 * dt, dt, dt / 6.0)
        signed = {(x, math.copysign(1.0, x)) for pair in itertools.islice(steps, 10_000)
                  for x in pair}
        assert signed == {(0.0, 1.0)}

    def test_first_bad_row_is_named_after_later_rows_overflow(self, monkeypatch):
        # the populations leave at step 1 and overflow to NaN before the block is full
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 64)
        checked, check = [], dynamics._populations_checked

        def spy(rows, *args):
            checked.append(np.frombuffer(rows).reshape(-1, 4).copy())
            return check(rows, *args)

        monkeypatch.setattr(dynamics, "_populations_checked", spy)
        with pytest.raises(StepTooLarge) as info:
            integrate(EXCITED_STATE, params_at(0.0),
                      IntegratorConfig(dt=1000.0, t_max=1e6, steady_tol=1e-12))
        assert str(info.value) == ("populations (1056079601.0000002, -1056079600.0000002) "
                                   "left [0, 1] at t=1000.0; reduce dt")
        (block,) = checked
        assert len(block) == 64
        assert np.isnan(block[-1, 2:]).all()

    @pytest.mark.parametrize("block_rows", [1, 4, 9, 10])
    def test_bad_row_in_a_later_block_keeps_its_time(self, block_rows, monkeypatch):
        # the ninth step is the first to leave, as in test_unstable_step_raises
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
        with pytest.raises(StepTooLarge) as info:
            integrate(AtomMomentState(0.0, 0.0, 0.5, 0.5), params_at(0.0),
                      IntegratorConfig(dt=7.1, t_max=1e6, steady_tol=1e-12))
        assert str(info.value) == ("populations (1.0476630856149758, -0.04766308561497569) "
                                   "left [0, 1] at t=63.9; reduce dt")

    def test_step_too_large_wins_over_nonconvergence_in_the_same_block(self):
        # the populations leave at step 1 and t_max ends at step 5, inside the first block
        with pytest.raises(StepTooLarge) as info:
            integrate(EXCITED_STATE, params_at(0.0),
                      IntegratorConfig(dt=1000.0, t_max=5000.0, steady_tol=1e-12))
        assert str(info.value) == ("populations (1056079601.0000002, -1056079600.0000002) "
                                   "left [0, 1] at t=1000.0; reduce dt")

    def test_step_too_large_wins_over_convergence_in_the_same_block(self):
        # an unphysical coherence drives eta_a below 0 at step 1; the run would then
        # settle at row 8,985, inside the first block
        with pytest.raises(StepTooLarge) as info:
            integrate(AtomMomentState(-0.5, 0.0, 0.0, 1.0), params_at(0.2), CFG)
        assert str(info.value) == ("populations (-0.0014079796309836368, 1.0014079796309836) "
                                   "left [0, 1] at t=0.01; reduce dt")

    def test_nan_population_is_out_of_range(self):
        rows = array("d", [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, math.nan, math.nan, 0.0, 0.0, 2.0, -1.0])
        with pytest.raises(StepTooLarge) as info:
            dynamics._populations_checked(rows, 10, 0.5)
        assert str(info.value) == "populations (nan, nan) left [0, 1] at t=5.5; reduce dt"
        ok = array("d", [0.1, 0.2, 1.0 + 1e-6, -1e-6])
        np.testing.assert_array_equal(dynamics._populations_checked(ok, 0, 1.0), [ok])

    def test_trajectory_is_stored_once(self, canonical):
        # 32 B of state and 8 B of time per row, plus the buffer's growth;
        # a Python object per row does not fit
        tracemalloc.start()
        try:
            series = integrate(GROUND_STATE, canonical, default_integrator_config(canonical))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * len(series.t)

    def test_blocks_are_released_as_they_are_joined(self, canonical, monkeypatch):
        # 32 B of state and the buffer's growth, and 8 B for the times, built in place
        # (42 B a row); keeping every block beside a joined copy takes 74 B a row
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 1024)
        tracemalloc.start()
        try:
            series = integrate(GROUND_STATE, canonical, default_integrator_config(canonical))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series.t) > 4 * 1024
        assert peak <= 45 * len(series.t), peak / len(series.t)
        assert series.states.flags.writeable

    def test_rejects_nonsense_initial_state(self):
        with pytest.raises(ValueError):
            integrate(AtomMomentState(0.0, 0.0, 2.0, -1.0), params_at(0.2), CFG)
        with pytest.raises(ValueError):
            integrate(AtomMomentState(math.nan, 0.0, 0.0, 1.0), params_at(0.2), CFG)


class TestSteadyByIntegration:
    """A run's final state from the ground state, which ``dynamics --format json`` reports,
    is the closed-form steady state."""

    def test_matches_closed_form_at_canonical_point(self, canonical):
        _, got = stream_trajectory(GROUND_STATE, canonical, default_integrator_config(canonical))
        want = steady_atom(canonical)
        assert got.sigma_re == pytest.approx(want.sigma, abs=1e-8)
        assert got.eta_a == pytest.approx(want.eta_a, abs=1e-8)
        assert got.eta_b == pytest.approx(want.eta_b, abs=1e-8)

    def test_matches_closed_form_over_random_parameters(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = params_at(
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.1, 2.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            _, got = stream_trajectory(GROUND_STATE, p, default_integrator_config(p))
            want = steady_atom(p)
            assert got.sigma_re == pytest.approx(want.sigma, abs=1e-8)
            assert got.eta_a == pytest.approx(want.eta_a, abs=1e-8)
            assert got.eta_b == pytest.approx(want.eta_b, abs=1e-8)


class TestStreamTrajectory:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 64, 32768])
    def test_is_integrate_a_block_at_a_time(self, block_rows, monkeypatch, tmp_path):
        p, config = params_at(0.2), IntegratorConfig(dt=0.05, t_max=500.0, steady_tol=1e-8)
        series = integrate(EXCITED_STATE, p, config)
        want = tmp_path / "want.csv"
        series.to_csv(want)
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block_rows)
        got = tmp_path / "got.csv"
        n_steps, final = stream_trajectory(EXCITED_STATE, p, config, got)
        assert (n_steps, final) == (len(series.t) - 1, series.final_state())
        assert got.read_bytes() == want.read_bytes()
        assert stream_trajectory(EXCITED_STATE, p, config) == (n_steps, final)
        blocked = integrate(EXCITED_STATE, p, config)
        np.testing.assert_array_equal(blocked.states, series.states)
        np.testing.assert_array_equal(blocked.t, series.t)

    def test_undriven_ground_state_writes_one_row(self):
        buf = io.StringIO()
        assert stream_trajectory(GROUND_STATE, params_at(0.0), CFG, buf) == (0, GROUND_STATE)
        assert buf.getvalue().splitlines()[1:] == ["%.12e,%.12e,%.12e,%.12e,%.12e"
                                                   % (0.0, 0.0, 0.0, 0.0, 1.0)]

    @pytest.mark.parametrize("initial,eps", [
        (AtomMomentState(0.0, 0.0, 2.0, 0.0), 0.2),
        (GROUND_STATE, np.array([0.2, 0.3])),
    ], ids=["bad initial state", "2 drives"])
    def test_refusal_writes_nothing(self, initial, eps):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            stream_trajectory(initial, params_at(eps), CFG, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("error,config", [
        (NonConvergence, IntegratorConfig(dt=0.01, t_max=1.0, steady_tol=1e-12)),
        (StepTooLarge, IntegratorConfig(dt=1000.0, t_max=1e6, steady_tol=1e-12)),
    ])
    def test_failed_run_removes_its_file(self, error, config, monkeypatch, tmp_path):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 8)  # fails after whole blocks
        target = tmp_path / "run.csv"
        initial = EXCITED_STATE if error is StepTooLarge else GROUND_STATE
        with pytest.raises(error):
            stream_trajectory(initial, params_at(0.2), config, target)
        assert not target.exists()

    def test_steady_by_integration_memory_stays_bounded(self, monkeypatch):
        # 10x the steps in the same memory, one block at a time (about 18 kB; keeping
        # a block while the next fills passes 25 kB); storing the longer run would
        # take 40 B a row
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 256)
        p, bound = params_at(0.2), 25_000
        for dt in (0.04, 0.004):
            config = IntegratorConfig(dt=dt, t_max=1e4, steady_tol=1e-12)
            tracemalloc.start()
            try:
                stream_trajectory(GROUND_STATE, p, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (dt, peak)
        assert 40 * stream_trajectory(GROUND_STATE, p, config)[0] > 2 * bound


class TestTimeSeriesCsv:
    def test_header_and_shape(self):
        series = integrate(GROUND_STATE, params_at(0.2),
                           IntegratorConfig(dt=0.5, t_max=100.0, steady_tol=1e-3))
        buf = io.StringIO()
        series.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,sigma_re,sigma_im,eta_a,eta_b"
        assert len(lines) == len(series.t) + 1

    def test_round_trips_through_loadtxt(self, tmp_path):
        series = integrate(EXCITED_STATE, params_at(0.2), CFG)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 0], series.t, rtol=1e-12)
        np.testing.assert_allclose(data[:, 1:], series.states, rtol=1e-11, atol=1e-13)

    def test_writes_without_a_table_sized_copy(self):
        # the writer stacks a block of rows at a time, never the whole (n, 5) table
        states = np.random.default_rng(0).standard_normal((200_000, 4))
        series = TimeSeries(t=np.arange(200_000) * 0.1, states=states)
        tracemalloc.start()
        try:
            series.to_csv(os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states.nbytes / 3, (peak, states.nbytes)
