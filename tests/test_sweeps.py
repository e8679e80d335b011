import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cavity_squeezing import superposed, sweeps
from cavity_squeezing.sweeps import _BLOCK_ENTRIES, _write_blocks, _write_csv

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
        # the edges of the domain: the underflow branch of ``squeezing``, eps**4
        # near underflow, and D near its 1e77 bound
        SweepSpec(0.0, 1e-29, 1001, 1e-30, 1e-30),
        SweepSpec(0.0, 1e31, 1001, 1e30, 1e30),
        SweepSpec(0.0, 3e37, 1001, 1e38, 1e38),
        SweepSpec(0.0, 1e-18, 1001, 1e-38, 1e38),
        SweepSpec(1e-150, 1e-140, 1001, 0.4, 0.8),
        SweepSpec(0.0, 1e38, 1001, 1e-38, 1e-38),
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

    @pytest.mark.parametrize(
        "gamma_c,kappa",
        # the search once hung above kappa*gamma_c ~ 2e12, took no step below
        # ~1e-10, and scanned past the drive bound above ~4e75
        [(1e7, 1e7), (1e38, 1e38), (1e-38, 1e-38), (1.0, 1e13), (1e-30, 1e-30),
         (1e38, 1e-38)],
    )
    def test_finds_the_optimum_at_every_scale(self, gamma_c, kappa):
        eps_star, s_max = find_max_squeezing(gamma_c, kappa)
        scale = math.sqrt(kappa * gamma_c / 8.0)
        assert abs(eps_star - scale) <= 5e-8 * scale
        assert abs(s_max - 0.5) <= 1e-9

    @staticmethod
    def scalar_probe_search(gamma_c, kappa):
        """The search with one closed-form call per ternary probe."""
        def s_of(eps):
            return squeezing(SystemParams.from_gamma_c(gamma_c, kappa, eps))

        scale = math.sqrt(kappa * gamma_c / 8.0)
        grid = np.linspace(0.0, min(5.0 * scale, math.sqrt(1e77 / 16.0)), 1000)
        best = int(np.argmax(squeezing(SystemParams.from_gamma_c(gamma_c, kappa, grid))))
        lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, len(grid) - 1)])
        while hi - lo > 5e-10 * scale:
            third = (hi - lo) / 3.0
            m1, m2 = lo + third, hi - third
            if s_of(m1) < s_of(m2):
                lo = m1
            else:
                hi = m2
        eps_star = 0.5 * (lo + hi)
        return eps_star, s_of(eps_star)

    def test_batched_probes_match_scalar_probes(self):
        rng = np.random.default_rng(20)
        pairs = [(0.4, 0.8), *(10.0 ** rng.uniform(-30.0, 30.0, (29, 2)))]
        for gamma_c, kappa in pairs:
            got = find_max_squeezing(float(gamma_c), float(kappa))
            want = self.scalar_probe_search(float(gamma_c), float(kappa))
            assert got == want, (gamma_c, kappa)  # bit for bit
            assert [type(v) for v in got] == [type(v) for v in want]

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

    def test_evaluates_the_superposed_bounds_once(self, tmp_path, monkeypatch):
        # the identity residuals reuse the sweep's bounds rather than recompute them
        calls = []

        def counted(params):
            calls.append(params)
            return superposed_bounds(params)

        monkeypatch.setattr(superposed, "superposed_bounds", counted)
        write_figure_files(CANONICAL_SPEC, tmp_path)
        assert len(calls) == 1


def _csv(data, header=("x",)) -> str:
    buf = io.StringIO()
    _write_csv(buf, header, data)
    return buf.getvalue()


def _percent(rows, header=("x",)) -> str:
    """The table as ``%`` formats it: the text the writer must reproduce."""
    return ",".join(header) + "\n" + "".join(
        ",".join("%.12e" % x for x in row) + "\n" for row in rows)


def _near_tie(digits: int, exponent: int, negative: bool = False) -> float:
    """The double nearest ``digits``.5e``exponent``: within the writer's guard band
    of a tie in the thirteenth digit, so ``%`` formats it."""
    return float(f"{'-' if negative else ''}{digits}5e{exponent}")


_TIE_DIGITS = st.integers(10**12, 10**13 - 1)
# Entries that % formats: near-ties with two-digit exponents, which keep the fixed
# width, and negative near-ties, near-ties with three-digit exponents, subnormals,
# infinities and nan, which do not.
_PERCENT_ENTRIES = st.one_of(
    st.builds(_near_tie, _TIE_DIGITS, st.integers(-112, 85)),
    st.builds(_near_tie, _TIE_DIGITS, st.integers(-112, 85), st.just(True)),
    st.builds(_near_tie, _TIE_DIGITS, st.integers(-283, -113) | st.integers(87, 295)),
    st.floats(5e-324, 2.225073858507e-308),
    st.sampled_from([math.inf, -math.inf, math.nan]))


@pytest.mark.thorough
class TestCsvWriter:
    """``_write_csv`` is ``"%.12e" % x`` joined by ``,``, byte for byte."""

    @settings(deadline=None)
    @given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=40))
    @example([[0.0, -0.0, 5e-324], [-5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
              [math.inf, -math.inf, math.nan], [1e-270, 1e270, 9.99999999999995e269]])
    def test_any_double(self, rows):
        assert _csv(np.array(rows), ("a", "b", "c")) == _percent(rows, ("a", "b", "c"))

    @settings(deadline=None)
    @given(st.integers(10**12, 10**13 - 1), st.integers(-323, 295), st.booleans())
    def test_near_ties(self, digits, exponent, negative):
        tie = float(f"{'-' if negative else ''}{digits}5e{exponent}")
        values = [tie, np.nextafter(tie, math.inf), np.nextafter(tie, -math.inf)]
        assert _csv(np.array(values)[:, None]) == _percent([[v] for v in values])

    def test_just_below_powers_of_ten(self):
        below = [float(f"9.9999999999995e{k}") for k in range(-320, 309)]
        values = np.array([*below, *np.nextafter(below, 0.0), *np.nextafter(below, math.inf),
                           *(10.0 ** np.arange(-300, 301))])
        values = np.concatenate([values, -values])[:, None]
        assert _csv(values) == _percent(values.tolist())

    def test_just_below_powers_of_ten_with_two_digit_exponents(self):
        # positive and printed with two exponent digits: the block is one slice
        below = [float(f"9.9999999999995e{k}") for k in range(-99, 99)]
        values = np.array([*below, *np.nextafter(below, 0.0), *np.nextafter(below, math.inf),
                           *(10.0 ** np.arange(-99, 100))])[:, None]
        assert _csv(values) == _percent(values.tolist())

    @settings(deadline=None)
    @given(st.integers(10**12, 10**13 - 1), st.integers(-283, 256), st.booleans())
    def test_near_ties_between_the_old_and_new_guard(self, digits, exponent, negative):
        # About 0.0065 from the tie in units of the last printed digit, just
        # outside sweeps._GUARD, so numpy rounds these and % checks it.
        tie = float(f"{'-' if negative else ''}{digits}5e{exponent}")
        values = np.array([tie, tie])
        for _ in range(round(0.0065 / (math.ulp(tie) * 10.0 ** -(exponent + 1)))):
            values = np.nextafter(values, [-math.inf, math.inf])
        assert _csv(values[:, None]) == _percent([[v] for v in values])

    @settings(deadline=None)
    @given(st.lists(st.lists(st.just(0.0) | st.floats(1e-99, 1e99, exclude_max=True),
                             min_size=3, max_size=3), min_size=1, max_size=40))
    def test_fixed_width_blocks(self, rows):
        # no sign bit and two exponent digits: every record is cut out as one slice
        assert _csv(np.array(rows), ("a", "b", "c")) == _percent(rows, ("a", "b", "c"))

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("odd", [-1.5, -0.0, 1e-100, 1e100, math.inf, math.nan])
    def test_one_entry_off_the_fixed_width(self, odd, column):
        data = np.linspace(0.25, 3e5, 15).reshape(5, 3)
        data[2, column] = odd
        assert _csv(data, ("a", "b", "c")) == _percent(data.tolist(), ("a", "b", "c"))

    @pytest.mark.parametrize("cell", [(0, 0), (2, 1), (4, 2)])
    @pytest.mark.parametrize("odd", [
        _near_tie(1234567890123, -50, negative=True),  # -1.234567890123e-37
        _near_tie(1234567890123, -163),  # 1.234567890123e-150
        _near_tie(9999999999999, 86),  # 9.9999999999995e99: 1.000000000000e+100
        5e-324, 2.225073858507e-309])  # subnormals
    def test_one_percent_entry_off_the_fixed_width(self, odd, cell):
        # one entry that % formats, in a block that is otherwise fixed-width; inf
        # and nan are in test_one_entry_off_the_fixed_width
        data = np.linspace(0.25, 3e5, 15).reshape(5, 3)
        data[cell] = odd
        assert _csv(data, ("a", "b", "c")) == _percent(data.tolist(), ("a", "b", "c"))

    @pytest.mark.parametrize("negative", [True, False])
    def test_percent_texts_whose_padding_averages_the_fixed_width(self, negative):
        # Fifteen % texts one byte longer than the fixed width and one (inf) fifteen
        # bytes shorter: two bytes of padding per text on average, in none of them.
        exponent = -50 if negative else -163  # e-37 or e-150
        odd = [_near_tie(1234567890100 + k, exponent, negative) for k in range(15)]
        data = np.linspace(0.25, 3e5, 48).reshape(16, 3)
        data[:, 1] = [*odd, math.inf]
        assert _csv(data, ("a", "b", "c")) == _percent(data.tolist(), ("a", "b", "c"))

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 47), _PERCENT_ENTRIES), min_size=1, max_size=16))
    def test_percent_entries_in_a_fixed_width_block(self, entries):
        data = np.linspace(0.25, 3e5, 48).reshape(16, 3)
        for cell, value in entries:
            data.flat[cell] = value
        assert _csv(data, ("a", "b", "c")) == _percent(data.tolist(), ("a", "b", "c"))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_boundaries_give_the_same_bytes_on_every_stream(
            self, extra, tmp_path, capsys):
        cols = 7
        rows = _BLOCK_ENTRIES // cols + extra
        data = np.random.default_rng(rows).standard_normal((rows, cols)) * 1e3
        header = tuple(f"c{i}" for i in range(cols))
        want = _percent(data.tolist(), header)
        _write_csv(tmp_path / "t.csv", header, data)
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        assert _csv(data, header) == want
        capsys.readouterr()
        _write_csv(sys.stdout, header, data)
        assert capsys.readouterr().out == want

    def test_columns_side_by_side_give_the_stacked_table(self):
        rng = np.random.default_rng(3)
        rows = _BLOCK_ENTRIES // 5 + 7
        first, group = rng.standard_normal(rows), rng.standard_normal((rows, 3))
        last = np.arange(rows)  # integers are written as float64
        header = tuple("abcde")
        buf = io.StringIO()
        _write_csv(buf, header, first, group, last)
        assert buf.getvalue() == _percent(np.column_stack([first, group, last]).tolist(),
                                          header)

    def test_memory_stays_below_the_text_size(self):
        data = np.random.default_rng(0).standard_normal((200_000, 7))
        text_bytes = len(_csv(data[:1000])) * 200  # about 27 MB
        tracemalloc.start()
        try:
            _write_csv(os.devnull, tuple("abcdefg"), data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < text_bytes / 8, (peak, text_bytes)

    def test_blocks_are_written_as_one_table(self):
        data = np.random.default_rng(5).standard_normal((_BLOCK_ENTRIES // 2 + 3, 3))
        header = ("a", "b", "c")
        buf = io.StringIO()
        _write_blocks(buf, header, ((data[i:i + 700, 0], data[i:i + 700, 1:])
                                    for i in range(0, len(data), 700)))
        assert buf.getvalue() == _percent(data.tolist(), header)

    @staticmethod
    def _failing(rows):
        yield (np.zeros((rows, 2)),)
        raise RuntimeError("stop")

    def test_failure_removes_the_file_it_created(self, tmp_path):
        target = tmp_path / "t.csv"
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(target, ("a", "b"), self._failing(_BLOCK_ENTRIES))
        assert not target.exists()

    def test_failure_empties_a_file_that_was_there(self, tmp_path):
        target = tmp_path / "t.csv"
        target.write_text("old")
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(target, ("a", "b"), self._failing(_BLOCK_ENTRIES))
        assert target.read_bytes() == b""

    def test_failure_leaves_links_and_devices(self, tmp_path):
        target, link = tmp_path / "t.csv", tmp_path / "link.csv"
        target.write_text("old")
        link.symlink_to(target)
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(link, ("a", "b"), self._failing(3))
        assert link.is_symlink()
        assert target.read_text().startswith("a,b\n")  # the rows written stay
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(os.devnull, ("a", "b"), self._failing(3))
        assert os.path.exists(os.devnull)

    def test_failed_cleanup_keeps_the_write_error(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only directory")

        monkeypatch.setattr(os, "remove", refuse)
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(tmp_path / "t.csv", ("a", "b"), self._failing(3))

    def test_a_file_that_cannot_be_opened_stays(self, tmp_path, monkeypatch):
        target = tmp_path / "t.csv"
        target.write_text("old")

        def refuse(*args, **kwargs):
            raise PermissionError("read-only")

        monkeypatch.setattr(sweeps, "open", refuse, raising=False)
        with pytest.raises(PermissionError):
            _write_blocks(target, ("a", "b"), self._failing(3))
        assert target.read_text() == "old"

    def test_failure_keeps_what_a_stream_was_given(self):
        buf = io.StringIO()
        with pytest.raises(RuntimeError, match="stop"):
            _write_blocks(buf, ("a", "b"), self._failing(2))
        assert buf.getvalue() == "a,b\n" + "0.000000000000e+00,0.000000000000e+00\n" * 2
