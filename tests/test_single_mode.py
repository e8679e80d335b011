import math

import numpy as np
import pytest

from cavity_squeezing import (
    SystemParams,
    mean_photons,
    quadrature_variances,
    single_mode_stats,
    squeezing,
    steady_atom,
    uncertainty_bound,
    uncertainty_product,
)


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


EPS_GRID = np.linspace(0.0, 1.0, 1000)


class TestSteadyAtom:
    def test_undriven_atom_rests_in_lower_level(self):
        atom = steady_atom(params_at(0.0))
        assert (atom.eta_a, atom.eta_b, atom.sigma) == (0.0, 1.0, 0.0)

    def test_optimal_drive_point(self):
        atom = steady_atom(params_at(0.2))
        assert atom.eta_a == 0.25
        assert atom.eta_b == 0.75
        assert atom.sigma == pytest.approx(math.sqrt(0.125), rel=1e-12)

    def test_weak_drive_point(self):
        atom = steady_atom(params_at(0.1))
        assert atom.eta_a == pytest.approx(0.1, rel=1e-12)
        assert atom.eta_b == pytest.approx(0.9, rel=1e-12)
        assert atom.sigma == pytest.approx(math.sqrt(0.08), rel=1e-12)

    def test_strong_drive_saturates_at_one_half(self):
        atom = steady_atom(params_at(1e6))
        assert atom.eta_a == pytest.approx(0.5, abs=1e-9)

    def test_populations_sum_to_one_exactly(self):
        for eps in EPS_GRID:
            atom = steady_atom(params_at(float(eps)))
            assert atom.eta_a + atom.eta_b == 1.0
            assert 0.0 <= atom.eta_a <= 0.5
            assert 0.5 <= atom.eta_b <= 1.0


class TestMeanPhotons:
    def test_undriven_cavity_is_empty(self):
        assert mean_photons(params_at(0.0)) == (0.0, 0.0, 0.0, 0.0)

    def test_optimal_drive_point(self):
        n_bar, n_emitted, n_absorbed, n_drive = mean_photons(params_at(0.2))
        assert n_bar == pytest.approx(0.125, rel=1e-12)
        assert n_emitted == pytest.approx(0.125, rel=1e-12)
        assert n_absorbed == pytest.approx(0.25, rel=1e-12)
        assert n_drive == pytest.approx(0.25, rel=1e-12)

    def test_weak_drive_point(self):
        n_bar = mean_photons(params_at(0.1))[0]
        assert n_bar == pytest.approx(0.0125, rel=1e-12)

    def test_budget_closes_exactly(self):
        for eps in EPS_GRID:
            n_bar, n_emitted, n_absorbed, n_drive = mean_photons(params_at(float(eps)))
            assert n_bar == n_emitted - n_absorbed + n_drive
            assert n_absorbed == 2.0 * n_emitted
            assert 0.0 <= n_bar <= n_drive

    def test_against_collapsed_closed_form(self):
        # independent single-expression route: 32 eps**4 / (kappa**2 D);
        # n_bar is a difference of O(eps**2) terms, so allow cancellation
        # noise at the operand scale n_drive on top of the relative part
        for eps in EPS_GRID[1:]:
            p = params_at(float(eps))
            n_bar, _, _, n_drive = mean_photons(p)
            expected = 32.0 * eps**4 / (p.kappa**2 * p.denominator)
            assert abs(n_bar - expected) <= 1e-12 * expected + 1e-14 * n_drive


class TestQuadratureVariances:
    def test_undriven_point(self):
        assert quadrature_variances(params_at(0.0)) == (0.5, 0.5, 0.5)

    def test_optimal_drive_point(self):
        var_plus, var_minus, vac = quadrature_variances(params_at(0.2))
        assert var_plus == pytest.approx(0.25, rel=1e-12)
        assert var_minus == 0.5
        assert vac == 0.5

    def test_weak_drive_point(self):
        var_plus = quadrature_variances(params_at(0.1))[0]
        assert var_plus == pytest.approx(0.34, rel=1e-12)

    def test_minus_quadrature_sits_at_vacuum_bitwise(self):
        for gamma_c, kappa in [(0.4, 0.8), (1.0, 1.0), (2.0, 0.5), (0.7, 1.3)]:
            for eps in EPS_GRID:
                p = params_at(float(eps), gamma_c, kappa)
                var_plus, var_minus, vac = quadrature_variances(p)
                assert var_minus == vac
                assert vac == gamma_c / kappa
                assert var_plus <= vac


class TestUncertainty:
    @pytest.mark.parametrize(
        "eps,f_a,f_b",
        [
            (0.0, 0.5, 0.5),
            (0.1, 0.4, math.sqrt(0.17)),
            (0.2, 0.25, math.sqrt(0.125)),
        ],
    )
    def test_frozen_points(self, eps, f_a, f_b):
        p = params_at(eps)
        assert uncertainty_bound(p) == pytest.approx(f_a, rel=1e-12)
        assert uncertainty_product(p) == pytest.approx(f_b, rel=1e-12)

    def test_product_is_product_of_spreads(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            var_plus, var_minus, _ = quadrature_variances(p)
            expected = math.sqrt(var_plus) * math.sqrt(var_minus)
            assert uncertainty_product(p) == pytest.approx(expected, rel=1e-12)

    def test_product_dominates_bound(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            assert uncertainty_product(p) >= uncertainty_bound(p)

    def test_gap_identity_on_grid(self):
        # f_b**2 - f_a**2 == 64 gamma_c**2 eps**4 / (kappa**2 D**2), checked
        # relative to the operand scale f_b**2 (the gap itself is O(eps**4)).
        for eps in EPS_GRID:
            p = params_at(float(eps))
            f_a = uncertainty_bound(p)
            f_b = uncertainty_product(p)
            gap = f_b * f_b - f_a * f_a
            pred = 64.0 * p.gamma_c**2 * eps**4 / (p.kappa**2 * p.denominator**2)
            assert abs(gap - pred) <= 1e-12 * max(abs(gap), abs(pred), f_b * f_b)

    def test_bound_reached_only_without_drive(self):
        p = params_at(0.0)
        assert uncertainty_product(p) == uncertainty_bound(p)
        for eps in (1e-3, 0.1, 0.5):
            p = params_at(eps)
            assert uncertainty_product(p) > uncertainty_bound(p)


class TestSqueezing:
    @pytest.mark.parametrize("eps,expected", [(0.0, 0.0), (0.1, 0.32), (0.2, 0.5)])
    def test_frozen_points(self, eps, expected):
        assert squeezing(params_at(eps)) == pytest.approx(expected, rel=1e-12)

    def test_equals_fractional_noise_reduction(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            var_plus, _, vac = quadrature_variances(p)
            assert squeezing(p) == pytest.approx(1.0 - var_plus / vac, rel=1e-12)

    def test_range_and_unimodality(self):
        values = [squeezing(params_at(float(e))) for e in EPS_GRID]
        assert all(0.0 <= s <= 0.5 + 1e-15 for s in values)
        peak = int(np.argmax(values))
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(peak))
        assert all(values[i] >= values[i + 1] - 1e-15 for i in range(peak, len(values) - 1))


class TestOptimalDrive:
    """The closed-form optimum: ``S`` peaks at exactly 1/2, at ``eps* = sqrt(kappa gamma_c
    / 8)``, the scale from which ``find_max_squeezing`` searches."""

    @staticmethod
    def eps_star(gamma_c, kappa):
        SystemParams.from_gamma_c(gamma_c, kappa, 0.0)  # validates the rates
        return math.sqrt(kappa * gamma_c / 8.0)

    def test_canonical_pair(self):
        eps_star = self.eps_star(0.4, 0.8)
        assert eps_star == pytest.approx(0.2, rel=1e-12)
        assert squeezing(params_at(eps_star)) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("gamma_c,kappa", [(1.0, 1.0), (2.0, 0.5), (0.25, 1.6)])
    def test_maximum_is_always_one_half(self, gamma_c, kappa):
        eps_star = self.eps_star(gamma_c, kappa)
        s_max = squeezing(params_at(eps_star, gamma_c, kappa))
        assert s_max == pytest.approx(0.5, rel=1e-12)
        for eps in (0.999 * eps_star, 1.001 * eps_star):
            assert squeezing(params_at(eps, gamma_c, kappa)) < s_max

    def test_agrees_with_brute_force_scan(self):
        gamma_c, kappa = 0.7, 1.3
        grid = np.linspace(0.0, 2.0, 20001)
        values = [squeezing(params_at(float(e), gamma_c, kappa)) for e in grid]
        best = float(grid[int(np.argmax(values))])
        eps_star = self.eps_star(gamma_c, kappa)
        assert abs(best - eps_star) <= (grid[1] - grid[0])
        assert squeezing(params_at(eps_star, gamma_c, kappa)) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            self.eps_star(0.0, 1.0)
        with pytest.raises(ValueError):
            self.eps_star(1.0, -1.0)
        with pytest.raises(ValueError):  # rates outside [1e-38, 1e38]
            self.eps_star(1e-300, 1e-300)


def test_stats_bundle_is_consistent(canonical):
    stats = single_mode_stats(canonical)
    assert stats.n_bar == mean_photons(canonical)[0]
    assert stats.var_plus == quadrature_variances(canonical)[0]
    assert stats.f_a == uncertainty_bound(canonical)
    assert stats.f_b == uncertainty_product(canonical)
    assert stats.squeezing == squeezing(canonical)
    assert stats.var_minus == stats.vac_var
