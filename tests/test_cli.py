import argparse
import ast
import functools
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity_squeezing
from cavity_squeezing import (
    EXCITED_STATE,
    GROUND_STATE,
    SystemParams,
    cli,
    default_integrator_config,
    dynamics,
    integrate,
)
from cavity_squeezing.cli import build_parser, main, render_json
from cavity_squeezing.sweeps import _write_csv


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejected a flag or a config value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderJson:
    def test_floats_round_trip_exactly(self):
        value = math.sqrt(0.125)
        text = render_json({"x": value, "nested": [value, 1.0, 0.1]})
        parsed = json.loads(text)
        assert parsed["x"] == value
        assert parsed["nested"] == [value, 1.0, 0.1]

    def test_complex_becomes_re_im(self):
        parsed = json.loads(render_json({"z": 1.5 - 2.5j}))
        assert parsed["z"] == {"re": 1.5, "im": -2.5}

    def test_output_is_deterministic(self):
        payload = {"a": 0.1, "b": [1, 2.0, None, True], "c": {"d": "x"}}
        assert render_json(payload) == render_json(payload)


def reference_dump_json(obj, indent=0):
    """The renderer as it was before it encoded each key and string itself and joined each
    container once: the reference :func:`render_json` must match, text and errors alike."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(key)}: {reference_dump_json(value, indent + 1)}"
                           for key, value in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{reference_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise cli.ConfigError(f"cannot serialise non-finite value {obj!r}")
        return "%.17g" % obj
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def outcome(render, payload):
    """``render(payload)``, or the type and message of what it raised."""
    try:
        return render(payload)
    except (cli.ConfigError, TypeError) as exc:
        return type(exc), str(exc)


# Strings with quotes, backslashes, control characters and non-ASCII ones (a BMP letter, a
# line separator and an astral emoji); keys are strings, or the odd scalar json.dumps takes.
TEXT = st.one_of(st.text(), st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é",
                                                     "\u2028", "\U0001f600", "a"])))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308]))
LEAVES = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXT,
                   st.complex_numbers(allow_nan=False, allow_infinity=False))
PAYLOADS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(TEXT, st.integers(), st.booleans(), st.none()), inner,
                    max_size=4)), max_leaves=24)
BAD_LEAVES = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, complex(math.inf, 0.0),
                                        complex(0.0, math.nan)]),
                       st.sampled_from([b"x", {1.0}, object(), np.float32(1.5), np.int64(2)]))


class TestRenderer:
    """:func:`render_json` gives the reference renderer's text, and its errors."""

    @settings(deadline=None)
    @given(payload=PAYLOADS)
    @example(payload={'"q"\\é': [-0.0, 5e-324, (1.7976931348623157e308, -1.7976931348623157e308)],
                      "": {}, "t": (), "z": 1 - 2j, "n": [None, True, False, -7, "\u2028"]})
    def test_matches_the_reference(self, payload):
        assert outcome(render_json, payload) == reference_dump_json(payload) + "\n"

    @settings(deadline=None)
    @given(payload=PAYLOADS, bad=BAD_LEAVES, where=st.integers(0, 2))
    def test_refuses_as_the_reference_does(self, payload, bad, where):
        # a non-finite float raises ConfigError and any other type TypeError, both worded as
        # the reference words them, wherever the value sits
        payload = [[payload, bad], {"k": bad, "v": payload}, bad][where]
        got = outcome(render_json, payload)
        assert got == outcome(reference_dump_json, payload)
        assert got[0] is (cli.ConfigError if isinstance(bad, (float, complex)) else TypeError)


class TestOneRowCsv:
    """``steady``/``superpose --format csv`` write the text ``sweeps._write_csv`` writes."""

    @settings(deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=30))
    @example([0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, -1.5, math.inf,
              -math.inf, math.nan])
    def test_is_the_sweeps_writer_text(self, values):
        header = tuple(f"v{i}" for i in range(len(values)))
        text = io.StringIO()
        _write_csv(text, header, [values])
        assert cli._render(dict(zip(header, values)), "csv") == text.getvalue()


class TestSteady:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["params"]["gamma_c"] == 0.4
        assert data["atom"]["eta_a"] == 0.25
        assert data["atom"]["sigma"] == pytest.approx(math.sqrt(0.125), rel=1e-15)
        assert data["stats"]["squeezing"] == pytest.approx(0.5, rel=1e-12)
        assert data["stats"]["var_minus"] == data["stats"]["vac_var"]

    def test_coupling_route(self, capsys):
        g = math.sqrt(0.4 * 0.8) / 2.0
        code, out, _ = run_cli(
            ["steady", "--g", repr(g), "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["stats"]["squeezing"] == pytest.approx(0.5, rel=1e-9)

    def test_drive_given_as_product(self, capsys):
        code, out, _ = run_cli(
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8",
             "--lambda", "2.0", "--beta", "0.1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["params"]["epsilon"] == 0.2

    def test_drive_factors_accepted_when_consistent(self, capsys):
        code, out, _ = run_cli(
            ["steady", "--g", "0.3", "--kappa", "0.8", "--epsilon", "0.2",
             "--lambda", "2.0", "--beta", "0.1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["params"]["epsilon"] == 0.2

    def test_drive_factors_rejected_when_inconsistent(self, capsys):
        code, _, err = run_cli(
            ["steady", "--g", "0.3", "--kappa", "0.8", "--epsilon", "0.21",
             "--lambda", "2.0", "--beta", "0.1"],
            capsys,
        )
        assert code == 2
        assert "lam" in err

    def test_single_drive_factor_is_unconstrained(self, capsys):
        for factor in ("--lambda", "--beta"):
            code, _, _ = run_cli(
                ["steady", "--g", "0.3", "--kappa", "0.8", "--epsilon", "0.2",
                 factor, "123.0"],
                capsys,
            )
            assert code == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, row = out.strip().split("\n")
        names = header.split(",")
        values = dict(zip(names, row.split(",")))
        assert float(values["squeezing"]) == pytest.approx(0.5, rel=1e-12)
        assert float(values["eta_b"]) == 0.75

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "steady.json"
        code, out, _ = run_cli(
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["atom"]["eta_a"] == 0.25


class TestSuperpose:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            ["superpose", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["s_plus"] == pytest.approx(0.25, rel=1e-12)
        assert stats["s_minus"] == stats["s_plus"]
        assert stats["sum"] == pytest.approx(0.5, rel=1e-12)
        assert stats["var_plus"] == stats["var_minus"]
        assert stats["c_mean"]["re"] == stats["c_mean"]["im"]
        assert stats["c_sq"]["re"] == 0.0

    def test_doubles_single_mode_photon_number(self, capsys):
        args = ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.37"]
        _, out_single, _ = run_cli(["steady"] + args, capsys)
        _, out_sup, _ = run_cli(["superpose"] + args, capsys)
        n_bar = json.loads(out_single)["stats"]["n_bar"]
        n_bar_sup = json.loads(out_sup)["stats"]["n_bar_sup"]
        assert n_bar_sup == 2.0 * n_bar


class TestDynamics:
    def test_csv_trajectory_reaches_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,sigma_re,sigma_im,eta_a,eta_b"
        last = np.array([float(x) for x in lines[-1].split(",")])
        assert last[1] == pytest.approx(math.sqrt(0.125), abs=1e-8)
        assert last[3] == pytest.approx(0.25, abs=1e-8)
        assert last[4] == pytest.approx(0.75, abs=1e-8)

    def test_json_summary_from_excited(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--initial", "excited", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        assert data["final"]["eta_a"] == pytest.approx(0.25, abs=1e-8)

    def test_undriven_system_stays_put(self, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_steps"] == 0
        assert data["final"]["eta_b"] == 1.0

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run_cli(
            ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--t-max", "0.1", "--dt", "0.01"],
            capsys,
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("steps", [["--dt", "5e-324"], ["--t-max", "1e300", "--dt", "1e-300"]])
    def test_overflowing_step_count_is_an_input_error(self, steps, capsys):
        code, out, err = run_cli(
            ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2", *steps],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: t_max / dt must be finite")


def _library_csv(rates, initial, **config):
    """What ``integrate(...).to_csv`` writes for the rates and settings given."""
    p = SystemParams.from_gamma_c(*rates)
    state = EXCITED_STATE if initial == "excited" else GROUND_STATE
    series = integrate(state, p, replace(default_integrator_config(p), **config))
    text = io.StringIO()
    series.to_csv(text)
    return text.getvalue().encode()


@functools.cache
def _decay(rates):
    """``eta_a`` of an excited atom's trajectory, run to well past 2 blocks."""
    p = SystemParams.from_gamma_c(*rates)
    config = replace(default_integrator_config(p), steady_tol=1e-150)
    return integrate(EXCITED_STATE, p, config).states[:, 2]


def _rates_argv(gamma_c, kappa, epsilon):
    return ["--gamma-c", repr(gamma_c), "--kappa", repr(kappa), "--epsilon", repr(epsilon)]


class TestStreamedDynamics:
    """The CLI streams the trajectory a block of rows at a time."""

    B = dynamics._BLOCK_ROWS

    @pytest.mark.parametrize("n_rows", [B - 1, B, B + 1, 2 * B + 1])
    def test_csv_is_the_library_csv_at_block_boundaries(self, n_rows, tmp_path, capsys):
        # An undriven excited atom decays monotonically, with derivative norm
        # sqrt(2) gamma_c eta_a: a tolerance between the norms of rows n_rows - 2
        # and n_rows - 1 stops it at row n_rows - 1.
        rates = (0.4, 0.8, 0.0)
        eta_a = _decay(rates)
        tol = math.sqrt(2.0) * 0.4 * math.sqrt(eta_a[n_rows - 2] * eta_a[n_rows - 1])
        target = tmp_path / "run.csv"
        code, _, _ = run_cli(["dynamics", *_rates_argv(*rates), "--initial", "excited",
                              "--steady-tol", repr(tol), "--out", str(target)], capsys)
        assert code == 0
        data = target.read_bytes()
        assert data.count(b"\n") == n_rows + 1
        assert data == _library_csv(rates, "excited", steady_tol=tol)

    def test_csv_is_the_library_csv_in_the_bad_cavity_regime(self, tmp_path, capsys):
        rng = np.random.default_rng(19)
        for _ in range(3):
            gamma_c = float(rng.uniform(0.1, 1.0))
            kappa = gamma_c * math.exp(rng.uniform(math.log(2.0), math.log(64.0)))
            epsilon = float(rng.uniform(0.5, 2.0)) * math.sqrt(kappa * gamma_c / 8.0)
            initial = str(rng.choice(["ground", "excited"]))
            target = tmp_path / "run.csv"
            code, _, _ = run_cli(["dynamics", *_rates_argv(gamma_c, kappa, epsilon),
                                  "--initial", initial, "--out", str(target)], capsys)
            assert code == 0
            assert target.read_bytes() == _library_csv((gamma_c, kappa, epsilon), initial)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_stays_bounded_as_the_steps_grow(self, fmt, monkeypatch, tmp_path,
                                                    capsys):
        # Small blocks, so that a step count a fast test reaches spans many;
        # storing the longer run whole would take 40 B per row, over twice the bound.
        # CSV peaks with the formatter's temporaries; JSON holds one block and no
        # times (about 19 kB; keeping a block while the next fills passes 25 kB).
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", 256)
        bound = {"csv": 300_000, "json": 25_000}[fmt]
        target = tmp_path / "out"
        assert run_cli(["dynamics", *CANONICAL, "--format", fmt, "--out", str(target)],
                       capsys)[0] == 0  # builds the parser outside the measurement
        for dt in (0.04, 0.004):
            tracemalloc.start()
            try:
                code, _, _ = run_cli(["dynamics", *CANONICAL, "--dt", repr(dt),
                                      "--format", fmt, "--out", str(target)], capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < bound, (dt, peak)
        if fmt == "json":
            n_rows = json.loads(target.read_text())["n_steps"] + 1
        else:
            n_rows = target.read_bytes().count(b"\n") - 1
        assert 40 * n_rows > 2 * bound

    @pytest.mark.parametrize("to_file", [True, False])
    def test_failure_after_several_blocks(self, to_file, tmp_path, capsys):
        # 100,000 steps never meet the tolerance: exit 3 after several full blocks
        whole = 100_001 // self.B * self.B  # the rows of the blocks that filled
        assert whole > self.B
        target = tmp_path / "run.csv"
        argv = ["dynamics", *CANONICAL, "--t-max", "100", "--dt", "0.001",
                "--steady-tol", "1e-300"]
        code, out, err = run_cli([*argv, "--out", str(target)] if to_file else argv, capsys)
        assert code == 3
        assert err.startswith("error: derivative norm ")
        if to_file:
            assert out == ""
            assert not target.exists()  # the partial file is removed
        else:
            lines = out.split("\n")
            assert lines[0] == "t,sigma_re,sigma_im,eta_a,eta_b"
            assert lines[-1] == ""  # only whole rows, one block at a time
            assert len(lines) - 2 == whole
            assert lines[-2].startswith("%.12e," % ((whole - 1) * 0.001))

    @pytest.mark.parametrize("to_file", [True, False])
    def test_a_block_ending_at_a_fixed_point_ends_the_run(self, to_file, tmp_path, capsys):
        # at dt 0.01 the first block ends on a row the step maps to itself: the run fails
        # there as it would at t_max, with the same error, and prints no row of that block
        # (nor the two blocks up to t_max that follow it)
        target = tmp_path / "run.csv"
        argv = ["dynamics", *CANONICAL, "--t-max", "1000", "--dt", "0.01",
                "--steady-tol", "1e-300"]
        code, out, err = run_cli([*argv, "--out", str(target)] if to_file else argv, capsys)
        assert code == 3
        assert err == "error: derivative norm 3.643e-15 above 1.000e-300 at t_max=1000.0\n"
        assert out == ("" if to_file else "t,sigma_re,sigma_im,eta_a,eta_b\n")
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_unstable_step_fails_before_its_block_is_written(self, to_file, tmp_path, capsys):
        # 2 q dt = 3.54 at the default step: the populations leave at the first step and
        # overflow to NaN long before the first block of B rows fills and is checked
        assert self.B == 32768
        target = tmp_path / "run.csv"
        argv = ["dynamics", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "200"]
        code, out, err = run_cli([*argv, "--out", str(target)] if to_file else argv, capsys)
        assert code == 3
        assert out == ("" if to_file else "t,sigma_re,sigma_im,eta_a,eta_b\n")  # no rows
        assert err == ("error: populations (-0.138009440104166, 1.138009440104166) left "
                       "[0, 1] at t=0.012499999999999999; reduce dt\n")
        assert not target.exists()

    def test_failure_keeps_a_link_given_as_out(self, tmp_path, capsys):
        # as with --out /dev/stdout: the link is not the run's to remove
        target, link = tmp_path / "run.csv", tmp_path / "link.csv"
        target.write_text("old")
        link.symlink_to(target)
        code, _, err = run_cli(["dynamics", *CANONICAL, "--t-max", "1000", "--dt", "0.01",
                                "--steady-tol", "1e-300", "--out", str(link)], capsys)
        assert code == 3
        assert err.startswith("error: derivative norm ")
        assert link.is_symlink()
        assert target.read_text().startswith("t,sigma_re,sigma_im,eta_a,eta_b\n")


class TestOracle:
    def test_report_structure(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_cut"] == 16
        assert data["residual"] <= 1e-10
        assert set(data["comparisons"]) == {
            "mean_photon_number", "mean_field", "mean_field_squared",
            "eta_a", "eta_b", "sigma", "var_plus", "var_minus",
        }

    def test_undriven_populations_match(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0",
             "--n-cut", "8"],
            capsys,
        )
        assert code == 0
        comparisons = json.loads(out)["comparisons"]
        assert abs(comparisons["eta_a"]["delta"]) <= 1e-12
        assert abs(comparisons["eta_b"]["delta"]) <= 1e-12

    def test_decoupled_limit(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["g"] == 0.0
        delta = data["comparisons"]["mean_photon_number"]["delta"]
        assert abs(delta) <= 1e-8

    def test_dimension_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--dim-cap", "16"],
            capsys,
        )
        assert code == 4
        assert "error:" in err

    def test_decoupled_lab_frame_exceeds_the_default_cap(self, capsys):
        # the cap bounds the cavity's own n_cut + 1 states: alpha = 2.8 passes at rung 64;
        # from alpha about 3.23 rung 64 misses and rung 128 (129 states) passes, with the
        # coherent state's values; from alpha about 6.25 rung 128 misses too, and rung 256
        # exceeds the cap
        for epsilon, n_cut in (("1.12", 64), ("1.4", 128), ("2.4", 128)):
            code, out, _ = run_cli(
                ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", epsilon], capsys)
            report = json.loads(out)
            assert (code, report["n_cut"]) == (0, n_cut)
            assert max(abs(entry["delta"]) for entry in report["comparisons"].values()) <= 1e-12
        code, out, err = run_cli(
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "2.6"], capsys)
        assert code == 4
        assert out == ""
        assert err == "error: dimension 256+1=257 exceeds cap 256\n"

    @pytest.mark.parametrize("epsilon", ["1e307", "1e308"])
    def test_decoupled_drive_out_of_range(self, epsilon):
        # refused as SystemParams refuses it with gamma_c = 0, before eps sqrt(n) overflows
        result = run_module(["oracle", "--g", "0", "--kappa", "1", "--epsilon", epsilon])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: epsilon={float(epsilon)!r} is out of range: "
                                 "8*epsilon**2 + kappa*gamma_c must not exceed 1e+77\n")

    @pytest.mark.parametrize("limit,code", [(["--dim-cap", "16"], 4), (["--dim-cap", "5"], 2)])
    def test_decoupled_limits_are_passed_through(self, limit, code, capsys):
        got, _, err = run_cli(
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2", *limit], capsys
        )
        assert got == code
        assert "error:" in err

    def test_csv_is_rejected(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--format", "csv"],
            capsys,
        )
        assert code == 2

    def test_strong_drive_converges_at_the_first_comparison(self, capsys):
        # alpha = 2 eps/kappa = 4: the lab-frame ladder needed n_cut 128 and
        # exited 4 at the default cap; the fluctuation field needs 16
        code, out, _ = run_cli(
            ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "1.6"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_cut"] == 16
        assert data["residual"] <= 1e-10
        assert data["max_imag_part"] == 0.0
        assert data["comparisons"]["mean_field"]["oracle"] == pytest.approx(4.0, abs=0.1)

    @pytest.mark.parametrize("epsilon", ["50", "100"])
    def test_ladder_accepts_converged_states_at_strong_drive(self, epsilon, capsys):
        # alpha = 125 and 250: the lab-frame photon number moves by 2 alpha
        # times the rounding in <b>, and a ladder comparing it exited 4 here
        rates = ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", epsilon]
        code, out, _ = run_cli(["oracle", *rates], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["n_cut"] == 16
        _, finer, _ = run_cli(["oracle", *rates, "--n-cut", "32"], capsys)
        for name in ("sigma", "eta_a"):
            entry = data["comparisons"][name]
            assert entry["oracle"] == pytest.approx(
                json.loads(finer)["comparisons"][name]["oracle"], abs=1e-8)
            assert entry["delta"] == pytest.approx(0.0, abs=0.1)

    def test_strong_drive_gives_one_state_at_every_cutoff(self, capsys):
        # the antisymmetric part is a nearly null direction of the generator
        # here; rounding in it would move sigma between cutoffs
        rates = ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "1e4"]
        code, out, _ = run_cli(["oracle", *rates], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["n_cut"] == 16
        assert data["hermiticity_error"] == 0.0
        _, finer, _ = run_cli(["oracle", *rates, "--n-cut", "64"], capsys)
        for name in ("sigma", "eta_a"):
            assert data["comparisons"][name]["oracle"] == pytest.approx(
                json.loads(finer)["comparisons"][name]["oracle"], rel=0.0, abs=1e-12)

    def test_canonical_ladder_report_is_the_rung_16_report(self, capsys):
        canonical = ["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"]
        code, ladder, _ = run_cli(canonical, capsys)
        assert code == 0
        _, fixed, _ = run_cli([*canonical, "--n-cut", "16"], capsys)
        assert ladder == fixed


class TestFigures:
    def test_writes_datasets_and_summary(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(["figures", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv", "identities.csv",
                     "summary.json"):
            assert (out_dir / name).exists()
        summary = json.loads(out)
        assert summary == json.loads((out_dir / "summary.json").read_text())
        assert summary["n_points"] == 401
        assert summary["eps_star"] == pytest.approx(0.2, abs=1e-8)
        assert summary["s_max"] == pytest.approx(0.5, abs=1e-9)

    def test_custom_grid(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, out, _ = run_cli(
            ["figures", "--out-dir", str(out_dir), "--gamma-c", "1.0",
             "--kappa", "1.0", "--eps-min", "0", "--eps-max", "1",
             "--n-points", "11"],
            capsys,
        )
        assert code == 0
        data = np.loadtxt(out_dir / "fig3.csv", delimiter=",", skiprows=1)
        assert data.shape == (11, 2)
        assert json.loads(out)["eps_star"] == pytest.approx(
            math.sqrt(1.0 / 8.0), abs=1e-8
        )

    def test_coupling_sets_the_rate_as_in_steady(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["figures", "--g", "0.3", "--n-points", "3", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        _, steady, _ = run_cli(["steady", "--g", "0.3", "--kappa", "0.8",
                                "--epsilon", "0.1"], capsys)
        assert json.loads(out)["gamma_c"] == json.loads(steady)["params"]["gamma_c"]
        assert json.loads(out)["kappa"] == 0.8  # the default grid's kappa

    def test_inconsistent_rates_are_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code, _, err = run_cli(
            ["figures", "--g", "0.3", "--gamma-c", "5", "--kappa", "0.8",
             "--n-points", "3", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        assert "gamma_c" in err
        assert not out_dir.exists()

    def test_ignored_options_say_so(self):
        actions = {a.dest: a for a in _subcommands()["figures"]._actions}
        for dest in ("epsilon", "lam", "beta", "fmt"):
            assert "ignored" in actions[dest].help
        steady = {a.dest: a for a in _subcommands()["steady"]._actions}
        assert "ignored" not in steady["epsilon"].help


def _subcommands():
    """The subparsers of :func:`build_parser`, by name."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _options():
    """(subcommand, option) for every option a config file may set."""
    return [(name, action) for name, sub in _subcommands().items()
            for action in sub._actions if action.dest not in ("help", "config")]


def _write_config(tmp_path, entries):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entries))
    return str(config)


class TestConfigFile:
    @pytest.mark.parametrize(
        "command,action", _options(),
        ids=[f"{name}{action.option_strings[-1]}" for name, action in _options()],
    )
    def test_config_key_parses_like_its_flag(self, command, action, tmp_path,
                                             monkeypatch):
        """Every option reaches a subcommand the same way from a config file."""
        if action.choices:
            value = next(c for c in action.choices if c != action.default)
        else:
            value = {float: 0.25, int: 7, None: "somewhere"}[action.type]
        seen = []
        for name in ("_cmd_steady", "_cmd_superpose", "_cmd_dynamics", "_cmd_oracle",
                     "_cmd_figures"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        flag = action.option_strings[-1]
        expected = vars(build_parser().parse_args([command, flag, str(value)]))
        assert expected.pop("config") is None
        assert expected[action.dest] != action.default
        for key in {action.dest, flag.lstrip("-").replace("-", "_")}:
            for entry in (value, str(value)):
                path = _write_config(tmp_path, {key: entry})
                assert main([command, "--config", path]) == 0
                got = seen.pop()
                assert got.pop("config") == path
                assert got == expected

    @pytest.mark.parametrize(
        "command,entries",
        [
            ("steady", {"gamma_c": 0.4, "kappa": 0.8, "lambda": 2.0, "beta": 0.1}),
            ("dynamics", {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2, "dt": 0.1,
                          "format": "json"}),
            ("oracle", {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2, "dim_cap": 64}),
        ],
    )
    def test_string_numbers_match_json_numbers(self, command, entries, tmp_path,
                                               capsys):
        as_strings = {k: str(v) for k, v in entries.items()}
        runs = [run_cli([command, "--config", _write_config(tmp_path, e)], capsys)
                for e in (entries, as_strings)]
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    @pytest.mark.parametrize(
        "command,entry",
        [("steady", {"format": "xml"}), ("dynamics", {"initial": "sideways"}),
         ("steady", {"epsilon": True})],
    )
    def test_values_are_checked_like_flags(self, command, entry, tmp_path, capsys):
        entries = {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2, **entry}
        code, out, _ = run_cli([command, "--config", _write_config(tmp_path, entries)],
                               capsys)
        assert code == 2
        assert out == ""

    def test_number_as_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            ["figures", "--config", _write_config(tmp_path, {"out_dir": 5})], capsys
        )
        assert code == 0
        assert (tmp_path / "5" / "summary.json").exists()

    def test_value_starting_with_a_dash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        entries = {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2, "out": "-steady.json"}
        code, _, _ = run_cli(["steady", "--config", _write_config(tmp_path, entries)],
                             capsys)
        assert code == 0
        assert json.loads((tmp_path / "-steady.json").read_text())["atom"]["eta_a"] == 0.25

    def test_config_supplies_missing_values(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2}
        ))
        code, out, _ = run_cli(["steady", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["atom"]["eta_a"] == 0.25

    def test_flags_win_over_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.1}
        ))
        code, out, _ = run_cli(
            ["steady", "--config", str(config), "--epsilon", "0.2"], capsys
        )
        assert code == 0
        assert json.loads(out)["params"]["epsilon"] == 0.2

    def test_lambda_key_maps_to_drive_factor(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"gamma_c": 0.4, "kappa": 0.8, "lambda": 2.0, "beta": 0.1}
        ))
        code, out, _ = run_cli(["steady", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["params"]["epsilon"] == 0.2

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kapa": 0.8}))
        code, _, err = run_cli(["steady", "--config", str(config)], capsys)
        assert code == 2
        assert "kapa" in err

    def test_list_value_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"gamma_c": 0.4, "kappa": 0.8, "epsilon": [0.1, 0.2]}
        ))
        code, _, err = run_cli(["steady", "--config", str(config)], capsys)
        assert code == 2
        assert "epsilon" in err

    def test_malformed_config_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _, _ = run_cli(["steady", "--config", str(config)], capsys)
        assert code == 2

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["steady", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 2


class TestValidationErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["steady", "--kappa", "0.8", "--epsilon", "0.2"],
            ["steady", "--gamma-c", "0.4", "--epsilon", "0.2"],
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8"],
            ["steady", "--gamma-c", "-0.4", "--kappa", "0.8", "--epsilon", "0.2"],
            ["steady", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2"],
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2",
             "--lambda", "1.0", "--beta", "1.0"],
            # 4 g**2 / kappa underflows to zero
            ["steady", "--g", "1e-200", "--kappa", "1", "--epsilon", "0"],
            # drives whose closed forms would overflow
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "1e200"],
            ["superpose", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "1e200"],
            ["superpose", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "1e40"],
            # rates outside [1e-38, 1e38]: kappa*kappa underflows to zero ...
            ["steady", "--gamma-c", "1", "--kappa", "1e-200", "--epsilon", "1"],
            ["superpose", "--gamma-c", "1", "--kappa", "1e-200", "--epsilon", "1"],
            ["figures", "--gamma-c", "1", "--kappa", "1e-200", "--eps-max", "1"],
            # ... or gamma_c**3 overflows
            ["steady", "--gamma-c", "1e110", "--kappa", "1e-40", "--epsilon", "0"],
            ["superpose", "--gamma-c", "1e110", "--kappa", "1e-40", "--epsilon", "0"],
            # the decoupled g = 0 branch applies the same window to kappa
            ["oracle", "--g", "0", "--kappa", "1e-200", "--epsilon", "1"],
            ["oracle", "--g", "0", "--kappa", "1e60", "--epsilon", "1"],
            # ... and the same drive check, and takes no coupled-only option
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2",
             "--lambda", "1", "--beta", "5"],
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2", "--n-cut", "20"],
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2",
             "--gamma-c", "0.4"],
            # a grid too large to allocate (711 PiB of float64)
            ["figures", "--n-points", "100000000000000000"],
            # the ladder has no tolerance to set, coupled, at a fixed cutoff or at g = 0
            *(["oracle", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2", *cut,
               "--tol", "1e-8"] for cut in ([], ["--n-cut", "8"])),
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", "0.2", "--tol", "1e-8"],
        ],
    )
    def test_exit_code_two(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "inf"])
    def test_decoupled_oracle_refuses_drives_as_steady_does(self, epsilon, capsys):
        code, _, want = run_cli(
            ["steady", "--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", epsilon], capsys)
        assert code == 2
        code, _, err = run_cli(
            ["oracle", "--g", "0", "--kappa", "0.8", "--epsilon", epsilon], capsys)
        assert (code, err) == (2, want)

    @pytest.mark.parametrize("command,option,target", [
        *((command, "--out", "missing/out")
          for command in ("steady", "superpose", "dynamics", "oracle", "figures")),
        ("figures", "--out-dir", "file"),
        ("figures", "--out-dir", "file/sub"),
    ])
    def test_unusable_output_path_exits_two(self, command, option, target, tmp_path,
                                            capsys):
        (tmp_path / "file").write_text("")
        args = [command, *CANONICAL, option, str(tmp_path / target)]
        if command == "figures":
            args += ["--n-points", "3"]
            if option == "--out":
                args += ["--out-dir", str(tmp_path)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "gamma_c,kappa", [("1e7", "1e7"), ("1e38", "1e38"), ("1e-38", "1e-38"), ("1", "1e13")]
    )
    def test_figures_at_extreme_rates(self, gamma_c, kappa, tmp_path, capsys):
        code, out, _ = run_cli(
            ["figures", "--gamma-c", gamma_c, "--kappa", kappa, "--eps-max", "1",
             "--n-points", "3", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["s_max"] - 0.5) <= 1e-9

    @pytest.mark.parametrize("eps_max", ["1e150", "1e300"])
    def test_overflowing_figures_grid_writes_nothing(self, eps_max, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["figures", "--eps-max", eps_max, "--out-dir", str(out_dir)], capsys
        )
        assert code == 2
        assert "epsilon" in err
        assert not out_dir.exists()  # not even the directory is created


# SHA-256 of the outputs at the canonical point and of the default
# figures files, recorded before the closed forms were made array-valued
# (the dynamics pair before its RK4 loop was restated); every later change
# must reproduce these bytes.
CANONICAL = ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"]
GOLDEN_OUTPUT = {
    ("steady", "json"): "4d4471900be49be9275a60fae04e44a66607f90b9cc204d463acb9e980018fff",
    ("steady", "csv"): "66fd4faba6b4085864c890c3a8e1af497012ffdcd71afdd9f0a7fcbb1a7825c0",
    ("superpose", "json"): "fe5b616de13f5a4e27cea51c87723aabe807d6478817f8fc72f2d9cacd549e30",
    ("superpose", "csv"): "b5f0da39e2ed2536b0416c74da7870e085febd8afc4d2593b360c89edcb57edc",
    ("dynamics", "json"): "caaf22b00ea766bbdf92c57dd4e218523b134561f1dab20410455d28aeb7a38a",
    ("dynamics", "csv"): "2906ae69052ee264c93cd3930ac12132da850cf68f4a2ef05435722c3d7e1a3e",
}
GOLDEN_FIGURES = {
    "fig2.csv": "68518b94deddc83bc1f59ad35afabcb834b392f7092b394b06aab5a91fcc0d10",
    "fig3.csv": "b3f82a25228bf299bb3f65d46f2010c7554cdac64934d0a43a47bfa91cd27c73",
    "fig4.csv": "d0fa56b5b752fb719e62d3e69f8ef999e66b43fb5fe2f0cdf37322df1564425a",
    "identities.csv": "cf2e3fe89a35b5f83244cb3f4290906127f4af4640e64b90910f17b3f0a10075",
    "summary.json": "4276e2e90e6b3469e3c97ed27ce35e2291d573265486cb753b73233f71c9301a",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("command,fmt", sorted(GOLDEN_OUTPUT))
    def test_canonical_output(self, command, fmt, tmp_path, capsys):
        target = tmp_path / "out"
        code, _, _ = run_cli(
            [command, *CANONICAL, "--format", fmt, "--out", str(target)], capsys
        )
        assert code == 0
        assert _sha256(target.read_bytes()) == GOLDEN_OUTPUT[command, fmt]

    def test_default_figures(self, tmp_path, capsys):
        code, out, _ = run_cli(["figures", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        digests = {name: _sha256((tmp_path / name).read_bytes())
                   for name in GOLDEN_FIGURES}
        assert digests == GOLDEN_FIGURES
        assert _sha256(out.encode()) == GOLDEN_FIGURES["summary.json"]


class TestRepeatedCalls:
    """One process, many ``main`` calls: no call changes what a later one prints."""

    def _golden_digests(self, tmp_path, capsys):
        digests = {}
        for command, fmt in sorted(GOLDEN_OUTPUT):
            target = tmp_path / "out"
            code, _, _ = run_cli(
                [command, *CANONICAL, "--format", fmt, "--out", str(target)], capsys
            )
            assert code == 0
            digests[command, fmt] = _sha256(target.read_bytes())
        return digests

    def test_golden_outputs_survive_config_calls_and_rejections(self, tmp_path, capsys):
        # sets other rates and dynamics options the canonical runs leave at their defaults
        config = _write_config(tmp_path, {
            "gamma_c": 0.8, "kappa": 1.6, "epsilon": 0.1, "dt": 0.05,
            "steady_tol": 1e-9, "initial": "excited", "format": "json"})
        for _ in range(2):
            assert self._golden_digests(tmp_path, capsys) == GOLDEN_OUTPUT
            code, out, _ = run_cli(["dynamics", "--config", config], capsys)
            assert code == 0
            assert json.loads(out)["params"]["kappa"] == 1.6
            code, out, _ = run_cli(
                ["dynamics", *CANONICAL, "--dt", "0.05", "--initial", "sideways"], capsys
            )
            assert (code, out) == (2, "")
        assert self._golden_digests(tmp_path, capsys) == GOLDEN_OUTPUT

    def test_fixed_cutoff_leaves_the_ladder_alone(self, capsys):
        oracle = ["oracle", *CANONICAL]
        code, out, _ = run_cli([*oracle, "--n-cut", "8"], capsys)
        assert (code, json.loads(out)["n_cut"]) == (0, 8)
        code, out, _ = run_cli(oracle, capsys)
        assert (code, json.loads(out)["n_cut"]) == (0, 16)


class TestParseOnce:
    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        codes = [run_cli(argv, capsys)[0] for argv in (
            ["steady", *CANONICAL], ["superpose", *CANONICAL], ["steady", "--format", "xml"])]
        assert codes == [0, 0, 2]
        assert built == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_handler_rebound_after_the_parser_is_built(self, monkeypatch, capsys):
        assert run_cli(["steady", *CANONICAL], capsys)[0] == 0
        assert cli._parser.cache_info().currsize == 1
        seen = []
        monkeypatch.setattr(cli, "_cmd_steady", lambda args: seen.append(args.command) or 7)
        assert main(["steady", *CANONICAL]) == 7
        assert seen == ["steady"]


class TestParseEquivalence:
    """``main`` parses a subcommand's command line with that subcommand's parser; every
    command line gives the exit code, stdout and stderr of ``build_parser().parse_args``,
    which the reference runs in its place, and the same namespace."""

    @staticmethod
    def cases(tmp_path):
        config = _write_config(tmp_path, {"gamma_c": 0.4, "kappa": 0.8, "epsilon": 0.2})
        figures = ["figures", "--n-points", "3", "--out-dir", str(tmp_path / "figures")]
        return [["steady", *CANONICAL], ["steady", *CANONICAL, "--format", "csv"],
                ["superpose", *CANONICAL], ["dynamics", *CANONICAL, "--format", "json"],
                ["oracle", *CANONICAL], [*figures, *CANONICAL],
                ["oracle", "--kap", "0.8", "--gamma", "0.4", "--eps", "0.2"],
                ["oracle", "--gamma-c=0.4", "--kappa=0.8", "--epsilon=0.2", "--n-cut=8"],
                ["steady", "--config", config], ["oracle", "--config", config, "--kappa", "1.6"],
                ["-h"], ["oracle", "-h"], ["--help", "oracle"], ["oracle", "--he"], [], ["ora"],
                ["oracle", *CANONICAL, "--bogus", "1"], ["oracle", "--gamma-c"],
                ["oracle", "--gamma-c", "x"], ["dynamics", *CANONICAL, "--initial", "sideways"],
                [*figures, "--eps", "0.1"], ["oracle", *CANONICAL, "trailing"],
                ["oracle", "--", "--gamma-c", "0.4"], ["steady", "--kappa", "-1", *CANONICAL[:2]],
                ["-x", "oracle"], ["oracle", "-x"]]

    def test_same_streams_and_exit_codes(self, tmp_path, capsys, monkeypatch):
        own = [run_cli(argv, capsys) for argv in self.cases(tmp_path)]
        monkeypatch.setattr(cli, "_parse", lambda parser, argv: parser.parse_args(argv))
        reference = [run_cli(argv, capsys) for argv in self.cases(tmp_path)]
        assert own == reference
        codes = [code for code, _, _ in own]
        assert codes[:10] == [0] * 10 and set(codes[10:14]) == {0} and set(codes[14:]) == {2}

    def test_same_namespace(self, tmp_path):
        parser = build_parser()
        for argv in self.cases(tmp_path)[:10]:
            assert list(vars(cli._parse(parser, argv)).items()) == list(
                vars(parser.parse_args(argv)).items())


def run_python(*args, cwd=None):
    """A fresh interpreter that imports the package copy this process uses."""
    src = os.path.dirname(os.path.dirname(cavity_squeezing.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
    )


def run_module(args):
    """``python -m cavity_squeezing`` in a fresh interpreter."""
    return run_python("-m", "cavity_squeezing", *args)


def test_oracle_bits_do_not_depend_on_blas_threads():
    # eps = 5 at n_cut 127 is reported from the rung-16 state that settles it, whose
    # smallest eigenvalue LAPACK's eigvalsh reads off its 34 x 34 block: no line moves
    # with the thread count.
    src = os.path.dirname(os.path.dirname(cavity_squeezing.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "cavity_squeezing", "oracle", *CANONICAL[:4],
            "--epsilon", "5", "--n-cut", "127"]
    runs = [subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env={
        **os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")]
    outputs = []
    for run in runs:
        stdout, _ = run.communicate()
        assert run.returncode == 0
        outputs.append(stdout.splitlines())
    assert any('"min_eigenvalue"' in line for line in outputs[0])
    assert outputs[0] == outputs[1]


class TestConsoleEntry:
    def test_module_execution(self):
        result = run_module(["steady", "--gamma-c", "0.4", "--kappa", "0.8",
                             "--epsilon", "0.2"])
        assert result.returncode == 0
        assert json.loads(result.stdout)["atom"]["eta_a"] == 0.25

    def test_module_execution_error_code(self):
        result = run_module(["steady"])
        assert result.returncode == 2


# Every subcommand but ``oracle`` runs without scipy, and without the oracle module
# even when ``dynamics`` fails with exit code 3; the oracle's failures still map to
# their exit codes once the CLI loads it.  At kappa 1e-20
# and eps 1 the atom's Rabi frequency 4 g eps/kappa is about 1e10, so the cavity
# decay is below the rounding of the drive terms: the system at n_cut 8 is singular to
# working precision, and the residual gate refuses the state its banded LU gives.
BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
from cavity_squeezing import cli

canonical, out_dir = json.loads(sys.argv[1]), sys.argv[2]
rates = canonical[:4]
stdout, stderr = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
    codes = [cli.main(argv) for argv in (
        ["steady", *canonical], ["superpose", *canonical],
        ["dynamics", *canonical, "--format", "json"],
        ["figures", "--n-points", "3", "--out-dir", out_dir])]
    scipy_loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    with contextlib.redirect_stderr(io.StringIO()):
        nonconverged = cli.main(["dynamics", *canonical, "--t-max", "0.1", "--dt", "0.01"])
    oracle_loaded = "cavity_squeezing.oracle" in sys.modules
    cap = cli.main(["oracle", *canonical, "--dim-cap", "16"])
    singular = cli.main(["oracle", "--gamma-c", "0.4", "--kappa", "1e-20", "--epsilon", "1",
                         "--n-cut", "8"])
    residual = cli.main(["oracle", *rates, "--epsilon", "1e18"])
print(json.dumps({"codes": codes, "scipy_loaded": scipy_loaded, "cap": cap,
                  "singular": singular, "residual": residual, "stderr": stderr.getvalue(),
                  "nonconverged": nonconverged, "oracle_loaded": oracle_loaded}))
"""

# The oracle module, a configuration, a frame and its Hamiltonian cost no scipy;
# its first sparse step loads it.  Every solve is banded and loads the scipy package
# alone, and no module of scipy.sparse or scipy.linalg, nor numpy.ma: the canonical
# ladder, a good cavity's fixed cutoffs 64 and 127 (rungs 16, 32 and 64 and then 8,515
# or 32,896 unknowns) and the g = 0 ladder's rung 128.  Each run prints what it printed
# when every matrix a solve builds multiplies by scipy's CSR matvec on the same arrays.
ORACLE_SCRIPT = """
import contextlib, io, json, sys
from cavity_squeezing import cli
from cavity_squeezing.oracle import HilbertConfig, _frame, steady_density
from cavity_squeezing.params import SystemParams

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["oracle", *argv])
    return [code, out.getvalue()], sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith(("scipy.sparse", "scipy.linalg")))

HilbertConfig(8)
_frame(8, 2).at(0.2, 0.0, 0.5)
before = scipy_loaded()
steady_density(SystemParams.from_gamma_c(0.4, 0.8, 0.2), HilbertConfig(8))
after = scipy_loaded()
good = ["--gamma-c", "0.4", "--kappa", "0.004", "--epsilon", "0.2"]
runs = {"ladder": ["--gamma-c", "0.4", "--kappa", "0.8", "--epsilon", "0.2"],
        "n_cut_64": [*good, "--n-cut", "64"], "n_cut_127": [*good, "--n-cut", "127"],
        "g_0": ["--g", "0", "--kappa", "0.8", "--epsilon", "1.4"]}
printed, loads = {}, {}
for name, argv in runs.items():
    printed[name], loads[name] = run(argv)
loads_numpy_ma = "numpy.ma" in sys.modules

import numpy as np
import scipy.sparse as sp
from cavity_squeezing import oracle

def scipy_matvec(matrix, x):
    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape) @ x

oracle._Matrix.__matmul__ = scipy_matvec
print(json.dumps({"before": before, "after": after, "loads": loads,
                  "loads_numpy_ma": loads_numpy_ma,
                  "codes": {name: out[0] for name, out in printed.items()},
                  "scipy_matvecs_print_the_same": {name: run(argv)[0] == printed[name]
                                                   for name, argv in runs.items()}}))
"""

# Compares the band LU that the oracle loads from scipy's extension file with
# scipy.linalg.lapack's, in a fresh interpreter that imports scipy.linalg after the
# oracle has loaded its own, or before (argv[1]): the same docstrings and the same bits
# on a random band system, and a scipy.linalg that holds its extension module.
LAPACK_SCRIPT = """
import json, sys
import numpy as np

def lapack():
    import scipy.linalg.lapack
    return scipy.linalg.lapack.dgbtrf, scipy.linalg.lapack.dgbtrs

def solve(dgbtrf, dgbtrs):
    rng = np.random.default_rng(5)
    n, kl, ku = 40, 3, 2
    band = np.zeros((2 * kl + ku + 1, n), order="F")
    band[kl:] = rng.normal(size=(kl + ku + 1, n))
    lu, pivots, info = dgbtrf(band, kl, ku)
    x, info_s = dgbtrs(lu, kl, ku, rng.normal(size=n), pivots)
    return [info, info_s, x.view(np.uint64).tolist(), lu.view(np.uint64).ravel().tolist()]

before = lapack() if sys.argv[1] == "before" else None
from cavity_squeezing import oracle
ours = oracle._lapack()
loaded = sorted(name for name in sys.modules if name.startswith(("scipy.linalg", "scipy.sparse")))
scipys = before or lapack()
flapack = sys.modules["scipy.linalg"]._flapack
print(json.dumps({"loaded": loaded, "docs": [a.__doc__ == b.__doc__ for a, b in zip(ours, scipys)],
                  "same": solve(*ours) == solve(*scipys), "cached": oracle._lapack() == ours,
                  "attribute": flapack.dgbtrf.__doc__ == ours[0].__doc__}))
"""

# The first import asks the package for an oracle name; a submodule is an attribute
# of the package before anything imports it.
SURFACE_SCRIPT = """
import json, sys
from cavity_squeezing import steady_density
import cavity_squeezing as pkg
from cavity_squeezing import dynamics, oracle, params, single_mode, superposed, sweeps

star = {}
exec("from cavity_squeezing import *", star)
joined = [*params.__all__, *single_mode.__all__, *superposed.__all__, *dynamics.__all__,
          *oracle.__all__, *sweeps.__all__, "__version__"]
print(json.dumps({
    "all_is_joined": pkg.__all__ == joined,
    "unbound": [name for name in pkg.__all__ if star.get(name) is not getattr(pkg, name)],
    "lazy_is_oracle": (pkg.cutoff_converged is pkg.oracle.cutoff_converged
                       and steady_density is oracle.steady_density),
    "cli_is_attribute": "cavity_squeezing.cli" not in sys.modules
                        and pkg.cli is sys.modules["cavity_squeezing.cli"],
}))
"""

# Importing the CLI builds no parser (a cold start would pay for it and gain
# nothing); the first main call builds the one tree that later calls reuse.
PARSER_SCRIPT = """
import argparse, contextlib, io, json, sys

built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from cavity_squeezing import cli

counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        cli.main(["steady", *json.loads(sys.argv[1])])
        counts.append(len(built))
print(json.dumps(counts))
"""


class TestImportBoundary:
    def test_only_oracle_loads_scipy(self, tmp_path):
        result = run_python("-c", BOUNDARY_SCRIPT, json.dumps(CANONICAL), str(tmp_path))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["codes"] == [0, 0, 0, 0]
        assert report["scipy_loaded"] == []
        assert report["nonconverged"] == 3
        assert report["oracle_loaded"] is False
        assert report["cap"] == 4
        assert report["singular"] == 3
        assert report["residual"] == 3
        cap_error, singular_error, residual_error = report["stderr"].splitlines()
        assert cap_error == "error: dimension 2*(16+1)=34 exceeds cap 16"
        # both refusals hold on OpenBLAS's SkylakeX, Haswell and Prescott kernels, by
        # margins of 7.6e-2 to 3.7e8 at kappa 1e-20, whose system is singular to working
        # precision, not exactly, and of 3.9e-3 to 2.5e-1 at eps 1e18
        assert singular_error.startswith("error: stationary residual ")
        assert singular_error.endswith(" exceeds 1.000e-08")
        assert residual_error.startswith("error: stationary residual ")
        assert residual_error.endswith(" exceeds 1.000e-08")
        residual = float(residual_error.split("stationary residual ")[1].split()[0])
        assert residual > 1e-8

    def test_import_builds_no_parser(self):
        result = run_python("-c", PARSER_SCRIPT, json.dumps(CANONICAL))
        assert result.returncode == 0, result.stderr
        at_import, first, second = json.loads(result.stdout)
        assert at_import == 0
        assert first == second == 1 + len(_subcommands())

    def test_oracle_loads_scipy_in_its_sparse_steps(self):
        result = run_python("-c", ORACLE_SCRIPT)
        assert result.returncode == 0, result.stderr
        runs = ("ladder", "n_cut_64", "n_cut_127", "g_0")
        assert json.loads(result.stdout) == {
            "before": False, "after": True, "loads": dict.fromkeys(runs, ["scipy"]),
            "loads_numpy_ma": False, "codes": dict.fromkeys(runs, 0),
            "scipy_matvecs_print_the_same": dict.fromkeys(runs, True)}

    @pytest.mark.parametrize("order", ["after", "before"])
    def test_the_band_lu_is_scipy_linalg_lapacks(self, order):
        # the oracle's dgbtrf and dgbtrs, loaded from the extension module's file without
        # the scipy.linalg package, whether that package is imported later or earlier
        result = run_python("-c", LAPACK_SCRIPT, order)
        assert result.returncode == 0, result.stderr
        got = json.loads(result.stdout)
        loaded = got.pop("loaded")  # no module of scipy.linalg or scipy.sparse of its own
        assert loaded == [] if order == "after" else "scipy.linalg.lapack" in loaded
        assert got == {"docs": [True, True], "same": True, "cached": True, "attribute": True}

    def test_package_surface_in_a_fresh_interpreter(self):
        result = run_python("-c", SURFACE_SCRIPT)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "all_is_joined": True, "unbound": [], "lazy_is_oracle": True,
            "cli_is_attribute": True}


# ``python -m cavity_squeezing ARG...``, then the package's loaded modules as the last
# line of stderr.
MODULES_SCRIPT = """
import json, runpy, sys

try:
    runpy.run_module("cavity_squeezing", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(name for name in sys.modules
                            if name.split(".")[0] == "cavity_squeezing")), file=sys.stderr)
"""

# What a bare import, and the benchmark's way of importing the CLI, load.
IMPORT_SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "cavity_squeezing")

import cavity_squeezing
bare = loaded()
from cavity_squeezing import cli
print(json.dumps([bare, loaded()]))
"""

# The modules each of the benchmark's cold CLI operations loads besides the package
# and ``cli``: a subcommand imports what it runs when it runs.
CLOSED_FORMS = ("params", "single_mode", "superposed")
COLD_LOADS = {
    "steady_json": ("params", "single_mode"),
    "steady_csv": ("params", "single_mode"),
    "superpose": CLOSED_FORMS,
    "dynamics_json": ("params", "dynamics"),
    "oracle": (*CLOSED_FORMS, "oracle"),
    "figures": (*CLOSED_FORMS, "sweeps"),
}


class TestColdStartLoads:
    def test_every_cold_operation_is_listed(self):
        assert sorted(load_perfbench("workloads").CLI_COLD_OPS) == sorted(COLD_LOADS)

    @pytest.mark.parametrize("name", sorted(COLD_LOADS))
    def test_subcommand_loads_only_what_it_runs(self, name, tmp_path):
        argv = load_perfbench("workloads").CLI_COLD_OPS[name]
        result = run_python("-c", MODULES_SCRIPT, *argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        expected = ["cavity_squeezing", "cavity_squeezing.cli",
                    *(f"cavity_squeezing.{module}" for module in COLD_LOADS[name])]
        assert json.loads(result.stderr.splitlines()[-1]) == sorted(expected)

    def test_import_loads_no_submodule(self):
        result = run_python("-c", IMPORT_SCRIPT)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [
            ["cavity_squeezing"],
            ["cavity_squeezing", "cavity_squeezing.cli", "cavity_squeezing.params"]]


def load_perfbench(module: str):
    """``perfbench/<module>.py``, loaded by path; nothing in it is run or installed."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{module}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


class TestBenchmarkSurface:
    """The names the benchmark's tracer wraps by name exist in the package, so that a
    traced run neither fails nor loses a hook's counts."""

    def test_traced_methods_are_defined_on_their_classes(self):
        tracer = load_perfbench("tracer")
        for layer, classes in tracer.METHODS.items():
            module = importlib.import_module(f"cavity_squeezing.{layer}")
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                assert [m for m in methods if m not in cls.__dict__] == [], cls_name

    def test_hooked_and_report_names_are_wrapped(self):
        # the tracer wraps the functions in each module's __all__, the METHODS entries
        # and oracle.spsolve; a hook on any other name would never run
        tracer = load_perfbench("tracer")
        methods = {f"{layer}.{cls_name}.{m}" for layer, classes in tracer.METHODS.items()
                   for cls_name, names in classes.items() for m in names}
        for name in {*tracer.HOOKS, *tracer.REPORT_NAMES}:
            layer, *path = name.split(".")
            assert layer in tracer.MODULES, name
            module = importlib.import_module(f"cavity_squeezing.{layer}")
            assert callable(functools.reduce(getattr, path, module)), name
            assert name in methods or name == "oracle.spsolve" or path[0] in module.__all__, name

    def test_every_public_name_has_a_caller(self):
        # A name stays in a module's __all__ while the package's code loads it, the
        # acceptance tests import it or the tracer wraps its methods.
        package = os.path.dirname(cavity_squeezing.__file__)
        loaded, modules = set(), []
        for entry in sorted(os.listdir(package)):
            if not entry.endswith(".py"):
                continue
            with open(os.path.join(package, entry), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            loaded.update(node.id if isinstance(node, ast.Name) else node.attr
                          for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                          and isinstance(node.ctx, ast.Load))
            if entry not in ("__init__.py", "__main__.py"):
                modules.append(entry[:-3])
        with open(os.path.join(os.path.dirname(__file__), "test_acceptance.py"),
                  encoding="utf-8") as f:
            accepted = {alias.name for node in ast.walk(ast.parse(f.read()))
                        if isinstance(node, ast.ImportFrom) for alias in node.names}
        traced = {cls_name for classes in load_perfbench("tracer").METHODS.values()
                  for cls_name in classes}
        uncalled = {f"{layer}.{name}" for layer in modules
                    for name in importlib.import_module(f"cavity_squeezing.{layer}").__all__
                    if name not in loaded | accepted | traced}
        assert sorted(uncalled) == []
