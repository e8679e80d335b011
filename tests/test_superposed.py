import json
import math
import os

import numpy as np
import pytest

from cavity_squeezing import (
    SystemParams,
    mean_photons,
    quadrature_variances,
    squeezing,
    superposed_bounds,
    superposed_first_moments,
    superposed_mean_photons,
    superposed_squeezing,
    superposed_stats,
    superposed_variances,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

EPS_GRID = np.linspace(0.0, 1.0, 1000)


def params_at(eps, gamma_c=0.4, kappa=0.8):
    return SystemParams.from_gamma_c(gamma_c, kappa, eps)


def factored_first_moments(gamma_c, kappa, eps):
    """Same closed forms with independently factored arithmetic."""
    d = 8.0 * eps * eps + kappa * gamma_c
    c_mean = 2.0 * eps * (1.0 + 1.0j) * (1.0 / kappa - gamma_c / d)
    c_sq = 8.0j * eps * eps * (1.0 / (kappa * kappa) - 2.0 * gamma_c / (kappa * d))
    return c_mean, c_sq


class TestPhotonNumber:
    def test_doubles_the_single_mode_value_bitwise(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            assert superposed_mean_photons(p) == 2.0 * mean_photons(p)[0]

    def test_frozen_points(self):
        assert superposed_mean_photons(params_at(0.2)) == pytest.approx(0.25, rel=1e-12)
        assert superposed_mean_photons(params_at(0.1)) == pytest.approx(0.025, rel=1e-12)
        assert superposed_mean_photons(params_at(0.0)) == 0.0


class TestVariances:
    @pytest.mark.parametrize(
        "eps,var,vac",
        [(0.0, 1.0, 1.0), (0.1, 0.84, 1.0), (0.2, 0.75, 1.0)],
    )
    def test_frozen_points(self, eps, var, vac):
        var_plus, var_minus, vac_var = superposed_variances(params_at(eps))
        assert var_plus == pytest.approx(var, rel=1e-12)
        assert var_minus == pytest.approx(var, rel=1e-12)
        assert vac_var == vac

    def test_both_quadratures_equal_bitwise(self):
        for eps in EPS_GRID:
            var_plus, var_minus, vac = superposed_variances(params_at(float(eps)))
            assert var_plus == var_minus
            assert var_plus <= vac

    def test_vacuum_level_doubles_single_mode_bitwise(self):
        for gamma_c, kappa in [(0.4, 0.8), (1.0, 1.0), (0.7, 1.3)]:
            p = params_at(0.3, gamma_c, kappa)
            assert superposed_variances(p)[2] == 2.0 * quadrature_variances(p)[2]


class TestBounds:
    @pytest.mark.parametrize(
        "eps,f_c,f_d",
        [(0.0, 1.0, 1.0), (0.1, 0.8, 0.84), (0.2, 0.5, 0.75)],
    )
    def test_frozen_points(self, eps, f_c, f_d):
        got_c, got_d = superposed_bounds(params_at(eps))
        assert got_c == pytest.approx(f_c, rel=1e-12)
        assert got_d == pytest.approx(f_d, rel=1e-12)

    def test_product_equals_common_variance(self):
        # with equal spreads the product of spreads is just the variance
        for eps in EPS_GRID:
            p = params_at(float(eps))
            f_d = superposed_bounds(p)[1]
            assert f_d == pytest.approx(superposed_variances(p)[0], rel=1e-12)

    def test_gap_identity_on_grid(self):
        # f_d - f_c == 128 gamma_c eps**4 / (kappa D**2), checked relative
        # to the operand scale f_d (the gap itself is O(eps**4)).
        for eps in EPS_GRID:
            p = params_at(float(eps))
            f_c, f_d = superposed_bounds(p)
            gap = f_d - f_c
            pred = 128.0 * p.gamma_c * eps**4 / (p.kappa * p.denominator**2)
            assert abs(gap - pred) <= 1e-12 * max(abs(gap), abs(pred), f_d)
            assert f_d >= f_c


class TestSqueezing:
    @pytest.mark.parametrize(
        "eps,s_half,total",
        [(0.0, 0.0, 0.0), (0.1, 0.16, 0.32), (0.2, 0.25, 0.5)],
    )
    def test_frozen_points(self, eps, s_half, total):
        s_plus, s_minus, s_sum = superposed_squeezing(params_at(eps))
        assert s_plus == pytest.approx(s_half, rel=1e-12)
        assert s_minus == pytest.approx(s_half, rel=1e-12)
        assert s_sum == pytest.approx(total, rel=1e-12)

    def test_halves_recombine_exactly(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            s_plus, s_minus, s_sum = superposed_squeezing(p)
            assert s_plus == s_minus
            assert s_plus + s_minus == s_sum
            assert s_sum == squeezing(p)

    def test_total_is_the_single_mode_value_when_the_half_is_subnormal(self):
        p = params_at(1.1557e-149, gamma_c=2.3345e-13, kappa=2.5246e37)
        s = squeezing(p)
        s_plus, s_minus, s_sum = superposed_squeezing(p)
        assert 0.0 < s_plus < np.finfo(float).tiny  # S/2 is subnormal
        assert s_plus + s_minus != s  # halving dropped a bit
        assert s_sum == s


class TestFirstMoments:
    def test_frozen_fixture_values(self):
        with open(os.path.join(FIXTURES, "superposed_moments.json")) as fh:
            fixture = json.load(fh)
        assert fixture["gamma_c"] == 0.4 and fixture["kappa"] == 0.8
        for row in fixture["moments"]:
            c_mean, c_sq = superposed_first_moments(params_at(row["epsilon"]))
            want_mean = complex(row["c_mean"]["re"], row["c_mean"]["im"])
            want_sq = complex(row["c_sq"]["re"], row["c_sq"]["im"])
            assert c_mean == pytest.approx(want_mean, rel=1e-12, abs=1e-15)
            assert c_sq == pytest.approx(want_sq, rel=1e-12, abs=1e-15)

    def test_against_factored_arithmetic_on_grid(self):
        for eps in EPS_GRID:
            p = params_at(float(eps))
            c_mean, c_sq = superposed_first_moments(p)
            want_mean, want_sq = factored_first_moments(0.4, 0.8, float(eps))
            assert c_mean == pytest.approx(want_mean, rel=1e-12, abs=1e-15)
            assert c_sq == pytest.approx(want_sq, rel=1e-12, abs=1e-15)

    def test_mean_lies_on_diagonal_ray(self):
        for eps in EPS_GRID:
            c_mean, _ = superposed_first_moments(params_at(float(eps)))
            assert c_mean.real == c_mean.imag
            assert c_mean.real >= 0.0

    def test_mean_ray_coefficient(self):
        # collapsed closed form of the ray coefficient: 16 eps**3 / (kappa D);
        # the coefficient is a difference of O(eps) terms, so allow
        # cancellation noise at the operand scale 2 eps / kappa
        for eps in EPS_GRID[1:]:
            p = params_at(float(eps))
            c_mean, _ = superposed_first_moments(p)
            expected = 16.0 * eps**3 / (p.kappa * p.denominator)
            operand = 2.0 * eps / p.kappa
            assert abs(c_mean.real - expected) <= 1e-12 * expected + 1e-14 * operand

    def test_square_is_purely_imaginary(self):
        for eps in EPS_GRID:
            _, c_sq = superposed_first_moments(params_at(float(eps)))
            assert c_sq.real == 0.0

    def test_square_sign_flips_at_optimal_drive(self):
        eps_star = math.sqrt(0.8 * 0.4 / 8.0)
        assert superposed_first_moments(params_at(eps_star))[1].imag == pytest.approx(
            0.0, abs=1e-15
        )
        assert superposed_first_moments(params_at(0.5 * eps_star))[1].imag < 0.0
        assert superposed_first_moments(params_at(2.0 * eps_star))[1].imag > 0.0

    def test_squared_mean_consistency(self):
        # <c>**2 must reproduce the three-term collapsed expression
        for eps in EPS_GRID:
            p = params_at(float(eps))
            gc, k, d = p.gamma_c, p.kappa, p.denominator
            c_mean, _ = superposed_first_moments(p)
            expected = 1j * (
                8.0 * eps**2 / k**2
                - 16.0 * gc * eps**2 / (k * d)
                + 8.0 * gc**2 * eps**2 / d**2
            )
            assert c_mean * c_mean == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_stats_bundle_is_consistent(canonical):
    stats = superposed_stats(canonical)
    assert stats.n_bar_sup == superposed_mean_photons(canonical)
    assert stats.var_plus == stats.var_minus
    assert (stats.f_c, stats.f_d) == superposed_bounds(canonical)
    assert stats.s_plus == stats.s_minus
    assert stats.c_mean == superposed_first_moments(canonical)[0]
    assert stats.c_sq == superposed_first_moments(canonical)[1]
