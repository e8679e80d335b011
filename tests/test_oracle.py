import json
import os

import numpy as np
import pytest
import scipy.linalg

from cavity_squeezing import oracle
from cavity_squeezing import (
    DimensionCap,
    HilbertConfig,
    SystemParams,
    build_operators,
    compare_with_closed_form,
    cutoff_converged,
    decoupled_benchmark,
    decoupled_cavity_steady,
    evolve_density,
    hamiltonian_matrix,
    lindblad_action,
    liouvillian_matrix,
    standard_quadrature_variances,
    steady_density,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


# Both entry points of the Fock-cutoff doubling ladder, at eps = 0.2, kappa = 0.8.
LADDERS = {
    "cutoff_converged": lambda **limits: cutoff_converged(params_at(0.2), **limits),
    "decoupled_benchmark": lambda **limits: decoupled_benchmark(0.2, 0.8, **limits),
}


class TestHilbertConfig:
    def test_dimension(self):
        assert HilbertConfig(16).dim == 34

    @pytest.mark.parametrize("n_cut", [0, 1, -3, 2.5])
    def test_rejects_small_or_fractional_cutoffs(self, n_cut):
        with pytest.raises(ValueError):
            HilbertConfig(n_cut)

    def test_cap_is_enforced_at_construction(self):
        HilbertConfig(127)  # dim 256 exactly
        with pytest.raises(DimensionCap):
            HilbertConfig(128)
        with pytest.raises(DimensionCap):
            HilbertConfig(8, dim_cap=16)


class TestOperators:
    def test_shapes_and_ladder_entries(self):
        ops = build_operators(HilbertConfig(2))
        assert ops.a.shape == (6, 6)
        fock = ops.a[:3, :3]
        assert fock[0, 1] == 1.0
        assert fock[1, 2] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        np.testing.assert_array_equal(ops.a[:3, 3:], np.zeros((3, 3)))

    def test_atomic_projectors(self):
        ops = build_operators(HilbertConfig(4))
        sd = ops.sigma.conj().T
        np.testing.assert_allclose(sd @ ops.sigma, ops.eta_a, atol=1e-15)
        np.testing.assert_allclose(ops.sigma @ sd, ops.eta_b, atol=1e-15)
        np.testing.assert_allclose(ops.eta_a + ops.eta_b, np.eye(10), atol=1e-15)

    def test_truncated_commutator(self):
        n_cut = 5
        ops = build_operators(HilbertConfig(n_cut))
        comm = ops.a @ ops.a.conj().T - ops.a.conj().T @ ops.a
        block = np.diag([1.0] * n_cut + [-float(n_cut)])
        np.testing.assert_allclose(comm, np.kron(np.eye(2), block), atol=1e-13)


class TestHamiltonian:
    def test_zero_rates_give_zero_matrix(self):
        ops = build_operators(HilbertConfig(3))
        np.testing.assert_array_equal(hamiltonian_matrix(0.0, 0.0, ops),
                                      np.zeros((8, 8)))

    def test_hermitian(self, canonical):
        ops = build_operators(HilbertConfig(12))
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        assert np.abs(h - h.conj().T).max() <= 1e-14

    def test_drive_matrix_element(self):
        ops = build_operators(HilbertConfig(4))
        h = hamiltonian_matrix(0.0, 0.3, ops)
        m = 5  # atom in lower level, vacuum
        assert h[m, m] == 0.0
        assert h[m + 1, m] == pytest.approx(0.3j, abs=1e-15)

    def test_coupling_matrix_element(self):
        ops = build_operators(HilbertConfig(4))
        h = hamiltonian_matrix(0.7, 0.0, ops)
        # emission path |upper,0> -> |lower,1> enters through -i g a^dag sigma
        assert h[5 + 1, 0] == pytest.approx(-0.7j, abs=1e-15)


class TestLiouvillian:
    def test_action_matches_matrix(self, canonical):
        config = HilbertConfig(6)
        ops = build_operators(config)
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        lv = liouvillian_matrix(h, ops.a, canonical.kappa)
        rng = np.random.default_rng(3)
        d = ops.dim
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        direct = lindblad_action(rho, h, ops.a, canonical.kappa)
        via_matrix = (lv @ rho.reshape(-1, order="F")).reshape((d, d), order="F")
        np.testing.assert_allclose(via_matrix, direct, rtol=1e-12, atol=1e-13)

    def test_conserves_trace(self, canonical):
        config = HilbertConfig(6)
        ops = build_operators(config)
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        rng = np.random.default_rng(4)
        d = ops.dim
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert abs(np.trace(lindblad_action(rho, h, ops.a, canonical.kappa))) <= 1e-12


class TestSteadyDensity:
    def test_invariants_at_canonical_point(self, canonical):
        rho = steady_density(canonical, HilbertConfig(16))
        assert rho.residual <= 1e-10
        assert rho.trace_error() <= 1e-10
        assert rho.hermiticity_error() <= 1e-10
        assert rho.min_eigenvalue() >= -1e-8

    def test_undriven_system_rests_in_the_ground_state(self):
        rho = steady_density(params_at(0.0), HilbertConfig(8))
        ground = np.zeros((rho.ops.dim, rho.ops.dim), dtype=complex)
        ground[9, 9] = 1.0  # lower level, zero photons
        assert np.abs(rho.matrix - ground).max() <= 1e-10
        var_plus, var_minus = standard_quadrature_variances(rho)
        assert var_plus == pytest.approx(1.0, abs=1e-10)
        assert var_minus == pytest.approx(1.0, abs=1e-10)

    def test_moments_are_real_for_real_drive(self, canonical):
        rho = steady_density(canonical, HilbertConfig(16))
        ops = rho.ops
        for op in (ops.a, ops.a @ ops.a, ops.sigma):
            assert abs(rho.expect(op).imag) <= 1e-12


class TestCutoffConvergence:
    def test_undriven_system_converges_immediately(self):
        n_cut, report = cutoff_converged(params_at(0.0))
        assert n_cut == 16  # first comparison, 8 vs 16
        assert report.comparisons["eta_b"]["oracle"] == pytest.approx(1.0, abs=1e-12)

    def test_canonical_point_converges_at_moderate_cutoff(self, canonical):
        n_cut, report = cutoff_converged(canonical)
        assert n_cut == 16
        assert report.n_cut == 16
        assert report.residual <= 1e-10

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_cap_stops_runaway_doubling(self, ladder):
        with pytest.raises(DimensionCap):
            LADDERS[ladder](tol=1e-30, dim_cap=64)

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_rejects_bad_tolerance(self, ladder, tol):
        with pytest.raises(ValueError):
            LADDERS[ladder](tol=tol)


class TestOperatorBuilds:
    """Each Fock rung builds its product-space operators once."""

    @pytest.mark.parametrize(
        "run,builds",
        [
            (lambda: cutoff_converged(params_at(0.2)), 2),  # rungs 8 and 16
            (lambda: decoupled_benchmark(0.2, 0.8), 2),
            (lambda: compare_with_closed_form(params_at(0.2), HilbertConfig(16)), 1),
        ],
        ids=["cutoff_converged", "decoupled_benchmark", "compare_with_closed_form"],
    )
    def test_one_build_per_rung(self, run, builds, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config.n_cut)
            return build_operators(config)

        monkeypatch.setattr(oracle, "build_operators", counting)
        run()
        assert len(calls) == builds


class TestReport:
    def test_fixture_regression(self, canonical):
        with open(os.path.join(FIXTURES, "oracle_canonical.json")) as fh:
            frozen = json.load(fh)
        n_cut, report = cutoff_converged(canonical)
        assert n_cut == frozen["n_cut"]
        assert report.residual <= 10.0 * max(frozen["residual"], 1e-12)
        for name, entry in frozen["comparisons"].items():
            got = report.comparisons[name]
            assert got["oracle"] == pytest.approx(entry["oracle"], rel=1e-9, abs=1e-12)
            assert got["closed_form"] == pytest.approx(
                entry["closed_form"], rel=1e-9, abs=1e-12
            )

    def test_report_is_complete_and_serialisable(self, canonical):
        report = compare_with_closed_form(canonical, HilbertConfig(16))
        payload = report.to_dict()
        assert set(payload["comparisons"]) == {
            "mean_photon_number", "mean_field", "mean_field_squared",
            "eta_a", "eta_b", "sigma", "var_plus", "var_minus",
        }
        for entry in payload["comparisons"].values():
            assert entry["delta"] == entry["oracle"] - entry["closed_form"]
        assert payload["max_imag_part"] <= 1e-12
        assert payload["framework_note"]
        json.dumps(payload)  # must not raise

    def test_population_moments_match_closed_form_without_drive(self):
        report = compare_with_closed_form(params_at(0.0), HilbertConfig(8))
        for name in ("mean_photon_number", "mean_field", "eta_a", "eta_b", "sigma"):
            assert abs(report.comparisons[name]["delta"]) <= 1e-10


class TestDecoupled:
    def test_matches_coherent_state(self):
        bench = decoupled_benchmark(0.2, 0.8)
        comparisons = bench["comparisons"]
        assert abs(comparisons["mean_photon_number"]["delta"]) <= 1e-8
        assert abs(comparisons["mean_field"]["delta"]) <= 1e-8
        assert abs(comparisons["var_plus"]["delta"]) <= 1e-8
        assert abs(comparisons["var_minus"]["delta"]) <= 1e-8
        assert bench["residual"] <= 1e-10

    def test_atom_is_pinned_to_the_lower_level(self):
        rho = decoupled_cavity_steady(0.2, 0.8, HilbertConfig(8))
        assert rho.expect(rho.ops.eta_b).real == pytest.approx(1.0, abs=1e-12)
        assert rho.trace_error() <= 1e-12

    def test_undriven_decoupled_cavity_is_empty(self):
        rho = decoupled_cavity_steady(0.0, 0.8, HilbertConfig(8))
        a = rho.ops.a
        assert abs(rho.expect(a.conj().T @ a)) <= 1e-12

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            decoupled_cavity_steady(-0.1, 0.8, HilbertConfig(8))
        with pytest.raises(ValueError):
            decoupled_cavity_steady(0.2, 0.0, HilbertConfig(8))
        with pytest.raises(ValueError):  # kappa outside [1e-38, 1e38]
            decoupled_cavity_steady(1.0, 1e-200, HilbertConfig(8))


class TestEvolution:
    def test_relaxes_to_the_stationary_state(self, canonical):
        config = HilbertConfig(16)
        evolved = evolve_density(canonical, config, t_final=50.0 / canonical.kappa)
        stationary = steady_density(canonical, config)
        assert np.abs(evolved.matrix - stationary.matrix).max() <= 1e-6

    def test_preserves_trace_and_hermiticity(self, canonical):
        config = HilbertConfig(12)
        evolved = evolve_density(canonical, config, t_final=5.0)
        assert evolved.trace_error() <= 1e-12
        assert evolved.hermiticity_error() <= 1e-12

    def test_matches_the_dense_propagator_at_the_final_time(self, canonical):
        config = HilbertConfig(4)
        evolved = evolve_density(canonical, config, t_final=5.0)
        ops = evolved.ops
        h = hamiltonian_matrix(canonical.g, canonical.epsilon, ops)
        lv = liouvillian_matrix(h, ops.a, canonical.kappa).toarray()
        d = ops.dim
        ground = np.zeros(d * d, dtype=complex)
        ground[(config.n_cut + 1) * (d + 1)] = 1.0  # lower level, zero photons
        exact = (scipy.linalg.expm(5.0 * lv) @ ground).reshape((d, d), order="F")
        assert np.abs(evolved.matrix - exact).max() <= 1e-12

    def test_rejects_bad_horizon(self, canonical):
        with pytest.raises(ValueError):
            evolve_density(canonical, HilbertConfig(8), t_final=0.0)
