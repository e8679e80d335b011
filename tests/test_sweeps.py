import io
import math
import os

import numpy as np
import pytest

from cavity_squeezing import (
    SWEEP_COLUMNS,
    SweepSpec,
    SystemParams,
    find_max_squeezing,
    identity_report,
    mean_photons,
    quadrature_variances,
    run_sweep,
    squeezing,
    superposed_bounds,
    superposed_mean_photons,
    superposed_squeezing,
    superposed_variances,
    uncertainty_bound,
    uncertainty_product,
    write_figure_files,
)

CANONICAL_SPEC = SweepSpec(eps_min=0.0, eps_max=0.8, n_points=401,
                           gamma_c=0.4, kappa=0.8)


class TestSweepSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps_min=-0.1, eps_max=1.0, n_points=10, gamma_c=0.4, kappa=0.8),
            dict(eps_min=0.5, eps_max=0.5, n_points=10, gamma_c=0.4, kappa=0.8),
            dict(eps_min=0.5, eps_max=0.1, n_points=10, gamma_c=0.4, kappa=0.8),
            dict(eps_min=0.0, eps_max=1.0, n_points=1, gamma_c=0.4, kappa=0.8),
            dict(eps_min=0.0, eps_max=1.0, n_points=10, gamma_c=0.0, kappa=0.8),
            dict(eps_min=0.0, eps_max=1.0, n_points=10, gamma_c=0.4, kappa=-1.0),
            dict(eps_min=0.0, eps_max=math.inf, n_points=10, gamma_c=0.4, kappa=0.8),
            # the closed forms would overflow at the end of the grid
            dict(eps_min=0.0, eps_max=1e150, n_points=10, gamma_c=0.4, kappa=0.8),
            dict(eps_min=0.0, eps_max=1.0, n_points=10, gamma_c=1e-300, kappa=1e-300),
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(**kwargs)

    def test_grid_includes_both_endpoints(self):
        grid = CANONICAL_SPEC.grid()
        assert grid[0] == 0.0
        assert grid[-1] == 0.8
        assert len(grid) == 401


class TestRunSweep:
    def test_zero_drive_row(self):
        table = run_sweep(CANONICAL_SPEC)
        row = dict(zip(SWEEP_COLUMNS, table.data[0]))
        assert row["epsilon"] == 0.0
        assert row["f_a"] == 0.5 and row["f_b"] == 0.5
        assert row["S"] == 0.0
        assert row["f_c"] == 1.0 and row["f_d"] == 1.0
        assert row["n_bar"] == 0.0 and row["n_bar_sup"] == 0.0
        assert row["var_plus"] == 0.5 and row["var_c_plus"] == 1.0

    def test_optimal_drive_row(self):
        table = run_sweep(CANONICAL_SPEC)
        i = 100  # eps = 0.2 on the 401-point grid over [0, 0.8]
        row = dict(zip(SWEEP_COLUMNS, table.data[i]))
        assert row["epsilon"] == pytest.approx(0.2, abs=1e-15)
        assert row["S"] == pytest.approx(0.5, rel=1e-9)
        assert row["f_a"] == pytest.approx(0.25, rel=1e-9)
        assert row["f_b"] == pytest.approx(math.sqrt(0.125), rel=1e-9)

    def test_rows_strictly_ascending(self):
        table = run_sweep(CANONICAL_SPEC)
        assert np.all(np.diff(table.column("epsilon")) > 0.0)

    def test_orderings_hold_everywhere(self):
        table = run_sweep(CANONICAL_SPEC)
        assert np.all(table.column("f_b") >= table.column("f_a"))
        assert np.all(table.column("f_d") >= table.column("f_c"))
        assert np.all(table.column("var_plus") <= 0.5)
        assert np.all(table.column("n_bar_sup") == 2.0 * table.column("n_bar"))

    def test_repeat_runs_are_bitwise_identical(self):
        a = run_sweep(CANONICAL_SPEC).data
        b = run_sweep(CANONICAL_SPEC).data
        np.testing.assert_array_equal(a, b)

    def test_csv_layout(self):
        table = run_sweep(SweepSpec(0.0, 0.4, 5, 0.4, 0.8))
        buf = io.StringIO()
        table.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epsilon,f_a,f_b,S,f_c,f_d,s_plus,n_bar,n_bar_sup,var_plus,var_c_plus"
        assert len(lines) == 6
        assert lines[1].startswith("0.000000000000e+00,5.000000000000e-01")


def _scalar_rows(spec):
    """Sweep and identity rows from the scalar functions, one point at a time."""
    sweep, identities = [], []
    for eps in spec.grid().tolist():
        p = SystemParams.from_gamma_c(spec.gamma_c, spec.kappa, eps)
        gc, k, d = p.gamma_c, p.kappa, p.denominator
        f_a, f_b = uncertainty_bound(p), uncertainty_product(p)
        f_c, f_d = superposed_bounds(p)
        sweep.append([
            eps, f_a, f_b, squeezing(p), f_c, f_d, superposed_squeezing(p)[0],
            mean_photons(p)[0], superposed_mean_photons(p),
            quadrature_variances(p)[0], superposed_variances(p)[0],
        ])
        gap_single = f_b * f_b - f_a * f_a
        pred_single = 64.0 * gc * gc * eps ** 4 / (k * k * d * d)
        gap_sup = f_d - f_c
        pred_sup = 128.0 * gc * eps ** 4 / (k * d * d)
        identities.append([
            eps, gap_single, pred_single,
            abs(gap_single - pred_single)
            / max(abs(gap_single), abs(pred_single), f_b * f_b),
            gap_sup, pred_sup,
            abs(gap_sup - pred_sup) / max(abs(gap_sup), abs(pred_sup), f_d),
        ])
    return sweep, identities


class TestArrayEqualsScalar:
    """The grid evaluation reproduces the scalar functions bit for bit.

    Where numpy's ``**`` runs a SIMD kernel (AVX-512 hosts) it differs
    from Python's by an ulp on some inputs, so any quartic power taken
    that way fails here.
    """

    @pytest.mark.parametrize("spec", [
        CANONICAL_SPEC,
        SweepSpec(0.0, 1.5, 1001, 0.7, 1.3),
        SweepSpec(0.0, 2.0, 1001, 2.0, 0.5),
        SweepSpec(0.01, 0.9, 1001, 0.25, 1.6),
    ])
    def test_rows_match(self, spec):
        sweep, identities = _scalar_rows(spec)
        assert run_sweep(spec).data.tolist() == sweep
        assert identity_report(spec).data.tolist() == identities


class TestFindMaxSqueezing:
    def test_canonical_pair(self):
        eps_star, s_max = find_max_squeezing(0.4, 0.8)
        assert abs(eps_star - 0.2) <= 1e-8
        assert abs(s_max - 0.5) <= 1e-9

    @pytest.mark.parametrize("gamma_c,kappa", [(1.0, 1.0), (2.0, 0.5), (0.25, 1.6)])
    def test_reproduces_the_closed_form_optimum(self, gamma_c, kappa):
        eps_star, s_max = find_max_squeezing(gamma_c, kappa)
        assert abs(eps_star - math.sqrt(kappa * gamma_c / 8.0)) <= 1e-8
        assert abs(s_max - 0.5) <= 1e-9

    def test_agrees_with_independent_scan(self):
        gamma_c, kappa = 0.7, 1.3
        grid = np.linspace(0.0, 1.5, 30001)
        values = [
            squeezing(SystemParams.from_gamma_c(gamma_c, kappa, float(e)))
            for e in grid
        ]
        best = float(grid[int(np.argmax(values))])
        eps_star, _ = find_max_squeezing(gamma_c, kappa)
        assert abs(eps_star - best) <= float(grid[1] - grid[0])

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            find_max_squeezing(-1.0, 0.8)
        with pytest.raises(ValueError):
            find_max_squeezing(0.4, 0.0)
        with pytest.raises(ValueError):  # rates outside [1e-38, 1e38]
            find_max_squeezing(1e-300, 1e-300)


class TestIdentityReport:
    def test_residuals_stay_at_rounding_level(self):
        report = identity_report(SweepSpec(0.0, 1.0, 1000, 0.4, 0.8))
        assert report.max_residual_single <= 1e-12
        assert report.max_residual_superposed <= 1e-12

    def test_zero_drive_row_is_exact(self):
        report = identity_report(CANONICAL_SPEC)
        assert tuple(report.data[0]) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_optimal_drive_gaps(self):
        report = identity_report(CANONICAL_SPEC)
        row = report.data[100]  # eps = 0.2
        assert row[1] == pytest.approx(0.0625, rel=1e-12)  # f_b**2 - f_a**2
        assert row[4] == pytest.approx(0.25, rel=1e-12)    # f_d - f_c

    @pytest.mark.parametrize("gamma_c,kappa", [(1.0, 1.0), (2.0, 0.5)])
    def test_residuals_for_other_rates(self, gamma_c, kappa):
        report = identity_report(SweepSpec(0.0, 1.0, 500, gamma_c, kappa))
        assert report.max_residual_single <= 1e-12
        assert report.max_residual_superposed <= 1e-12


class TestFigureFiles:
    def test_writes_all_files_with_expected_columns(self, tmp_path):
        summary = write_figure_files(CANONICAL_SPEC, tmp_path)
        for name in ("fig2.csv", "fig3.csv", "fig4.csv", "identities.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "fig2.csv") as fh:
            assert fh.readline().strip() == "epsilon,f_a,f_b"
        with open(tmp_path / "fig3.csv") as fh:
            assert fh.readline().strip() == "epsilon,S"
        with open(tmp_path / "fig4.csv") as fh:
            assert fh.readline().strip() == "epsilon,f_c,f_d"
        assert summary["eps_star"] == pytest.approx(0.2, abs=1e-8)
        assert summary["s_max"] == pytest.approx(0.5, abs=1e-9)
        assert summary["max_residual_single"] <= 1e-12
        assert summary["max_residual_superposed"] <= 1e-12

    def test_uncertainty_curves_shape(self, tmp_path):
        write_figure_files(CANONICAL_SPEC, tmp_path)
        eps, f_a, f_b = np.loadtxt(tmp_path / "fig2.csv", delimiter=",",
                                   skiprows=1, unpack=True)
        assert np.all(np.diff(f_a) < 0.0)          # bound decreases with drive
        assert np.all(f_b >= f_a)
        band = eps <= 0.07
        assert np.abs(f_b[band] - f_a[band]).max() <= 0.01

    def test_squeezing_curve_shape(self, tmp_path):
        write_figure_files(CANONICAL_SPEC, tmp_path)
        eps, s = np.loadtxt(tmp_path / "fig3.csv", delimiter=",",
                            skiprows=1, unpack=True)
        peak = int(np.argmax(s))
        assert eps[peak] == pytest.approx(0.2, abs=1e-12)
        assert s[peak] == pytest.approx(0.5, rel=1e-9)
        assert np.all(np.diff(s[: peak + 1]) > 0.0)
        assert np.all(np.diff(s[peak:]) < 0.0)

    def test_superposed_curves_shape(self, tmp_path):
        write_figure_files(CANONICAL_SPEC, tmp_path)
        _, f_c, f_d = np.loadtxt(tmp_path / "fig4.csv", delimiter=",",
                                 skiprows=1, unpack=True)
        assert np.all(np.diff(f_c) < 0.0)
        assert np.all(f_d >= f_c)

    def test_reruns_are_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        os.makedirs(dir_a)
        os.makedirs(dir_b)
        write_figure_files(CANONICAL_SPEC, dir_a)
        write_figure_files(CANONICAL_SPEC, dir_b)
        for name in ("fig2.csv", "fig3.csv", "fig4.csv", "identities.csv"):
            with open(dir_a / name, "rb") as fh:
                first = fh.read()
            with open(dir_b / name, "rb") as fh:
                second = fh.read()
            assert first == second
