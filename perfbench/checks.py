"""Output checks for every benchmark operation.

The checks never import the package under test.  Closed forms are
re-derived here from the paper's formulas, canonical outputs are compared
with digests recorded in ``expected.json``, and tolerances are those of
``tests/test_acceptance.py``.  A check raises :class:`CheckFailed`; an
oracle operation that the dimension cap legitimately refuses returns
``"refused"``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

FIGURE_FILES = ("fig2.csv", "fig3.csv", "fig4.csv", "identities.csv", "summary.json")
FIGURE_HEADERS = {
    "fig2.csv": "epsilon,f_a,f_b",
    "fig3.csv": "epsilon,S",
    "fig4.csv": "epsilon,f_c,f_d",
    "identities.csv": ("epsilon,fb2_minus_fa2,fb2_minus_fa2_pred,residual_single,"
                       "fd_minus_fc,fd_minus_fc_pred,residual_superposed"),
}
TRAJECTORY_HEADER = "t,sigma_re,sigma_im,eta_a,eta_b"
_FIELD = r"-?\d\.\d{12}e[+-]\d{2,3}"  # the program's "%.12e"

# The CSV files carry 13 significant digits, so orderings between two
# nearly equal columns are compared at that precision.
PRINTED_REL = 1e-12


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# closed forms, re-derived


def closed_forms(gamma_c, kappa, eps) -> dict:
    """Steady-state closed forms in gamma_c, kappa and eps (arrays allowed)."""
    g = np.sqrt(gamma_c * kappa) / 2.0
    d = 8.0 * eps * eps + kappa * gamma_c
    eta_a = 4.0 * eps * eps / d
    return {
        "eta_a": eta_a,
        "eta_b": 1.0 - eta_a,
        "sigma": 4.0 * g * eps / d,
        "mean_photon_number": 4.0 * eps * eps / kappa**2 - (gamma_c / kappa) * 4.0 * eps * eps / d,
        "mean_field": 2.0 * eps / kappa - 2.0 * gamma_c * eps / d,
        "mean_field_squared": 4.0 * eps * eps / kappa**2 - (gamma_c / kappa) * 8.0 * eps * eps / d,
        "var_plus": gamma_c / kappa - 16.0 * gamma_c**2 * eps * eps / d**2,
        "var_minus": gamma_c / kappa,
        "f_a": gamma_c**2 / d,
        "f_b": np.sqrt(gamma_c**2 / kappa**2 - 16.0 * gamma_c**3 * eps * eps / (kappa * d**2)),
        "S": 16.0 * gamma_c * kappa * eps * eps / d**2,
        "f_c": 2.0 * gamma_c**2 / d,
        "f_d": np.sqrt(4.0 * gamma_c**2 / kappa**2
                       - 64.0 * gamma_c**3 * eps * eps / (kappa * d**2)
                       + 256.0 * gamma_c**4 * eps**4 / d**4),
        "gap_single": 64.0 * gamma_c**2 * eps**4 / (kappa**2 * d**2),
        "gap_superposed": 128.0 * gamma_c * eps**4 / (kappa * d**2),
    }


def _close(name: str, got, want, rtol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = np.abs(got - want)
    bad = err > rtol * np.maximum(np.abs(want), 1e-3 * scale)
    _require(not bool(np.any(bad)),
             f"{name} differs from the closed form by up to {float(err.max()):.3e}")


# ---------------------------------------------------------------------------
# canonical outputs (cli_cold and warm-up operations)


def _within(path: str, got, want, tol: float) -> None:
    if isinstance(want, dict):
        _require(isinstance(got, dict) and list(got) == list(want), f"{path}: keys differ")
        for key in want:
            _within(f"{path}.{key}", got[key], want[key], tol)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        _require(isinstance(got, (int, float)) and abs(got - want) <= tol,
                 f"{path}: {got!r} is not within {tol} of {want!r}")
    else:
        _require(got == want, f"{path}: {got!r} != {want!r}")


def check_canonical(opdir: str, name: str, expected: dict) -> None:
    """Byte-identical outputs, except the oracle report (fields to 1e-10)."""
    stdout = os.path.join(opdir, "stdout.txt")
    if name == "oracle":
        with open(stdout, encoding="utf-8") as fh:
            report = json.load(fh)
        _within("oracle", report, expected["oracle_report"], 1e-10)
        return
    digests = expected["digests"][name]
    for file, digest in digests.items():
        path = os.path.join(opdir, file)
        _require(os.path.isfile(path), f"{name}: {file} was not written")
        _require(sha256(path) == digest, f"{name}: {file} differs from the record")


# ---------------------------------------------------------------------------
# figures_sweep


def read_csv(path: str, header: str, n_rows: int) -> np.ndarray:
    """Parse a dataset strictly: header, row count and number format."""
    name = os.path.basename(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"{name}: not ASCII ({exc})") from None
    head, _, body = text.partition("\n")
    _require(head == header, f"{name}: header {head!r}")
    _require(body.count("\n") == n_rows and body.endswith("\n"), f"{name}: not {n_rows} rows")
    ncol = header.count(",") + 1
    row = ",".join([_FIELD] * ncol)
    _require(re.fullmatch(f"(?:{row}\n)*", body) is not None, f"{name}: malformed number")
    return np.array(body.replace("\n", ",")[:-1].split(","), dtype=float).reshape(n_rows, ncol)


def check_figures(opdir: str, expect: dict) -> None:
    n = expect["n_points"]
    with open(os.path.join(opdir, "summary.json"), "rb") as fh:
        summary_bytes = fh.read()
    with open(os.path.join(opdir, "stdout.txt"), "rb") as fh:
        _require(fh.read() == summary_bytes, "printed summary differs from summary.json")
    summary = json.loads(summary_bytes)
    for key in ("gamma_c", "kappa", "eps_min", "eps_max", "n_points"):
        _require(summary[key] == expect[key], f"summary {key} = {summary[key]!r}")
    _require(summary["files"] == sorted(FIGURE_FILES[:-1]), "summary lists other files")
    _require(abs(summary["s_max"] - 0.5) <= 1e-9, f"s_max = {summary['s_max']!r}")
    for key in ("max_residual_single", "max_residual_superposed"):
        _require(0.0 <= summary[key] <= 1e-12, f"{key} = {summary[key]!r}")

    data = {name: read_csv(os.path.join(opdir, name), FIGURE_HEADERS[name], n)
            for name in FIGURE_HEADERS}
    grid = np.linspace(expect["eps_min"], expect["eps_max"], n)
    printed_grid = np.array(["%.12e" % e for e in grid], dtype=float)
    for name, table in data.items():
        _require(bool(np.all(table[:, 0] == printed_grid)), f"{name}: epsilon grid differs")

    ref = closed_forms(expect["gamma_c"], expect["kappa"], grid)
    f_a, f_b = data["fig2.csv"][:, 1], data["fig2.csv"][:, 2]
    s = data["fig3.csv"][:, 1]
    f_c, f_d = data["fig4.csv"][:, 1], data["fig4.csv"][:, 2]
    for name, got in (("f_a", f_a), ("f_b", f_b), ("S", s), ("f_c", f_c), ("f_d", f_d)):
        _close(name, got, ref[name], 1e-10)
    _require(bool(np.all((s >= 0.0) & (s <= 0.5))), "S leaves [0, 1/2]")
    _require(bool(np.all(f_a <= f_b * (1.0 + PRINTED_REL))), "f_a exceeds f_b")
    _require(bool(np.all(f_c <= f_d * (1.0 + PRINTED_REL))), "f_c exceeds f_d")

    ident = data["identities.csv"]
    _close("fb2_minus_fa2_pred", ident[:, 2], ref["gap_single"], 1e-10)
    _close("fd_minus_fc_pred", ident[:, 5], ref["gap_superposed"], 1e-10)
    for col, name in ((3, "residual_single"), (6, "residual_superposed")):
        _require(bool(np.all((ident[:, col] >= 0.0) & (ident[:, col] <= 1e-12))),
                 f"{name} above 1e-12")
    # Recompute the residuals from the printed columns, allowing for the
    # rounding of the two printed operands.
    for gap, pred, scale in ((ident[:, 1], ident[:, 2], f_b * f_b),
                             (ident[:, 4], ident[:, 5], f_d)):
        bound = 2e-12 * np.maximum.reduce([np.abs(gap), np.abs(pred), scale])
        _require(bool(np.all(np.abs(gap - pred) <= bound)), "identity does not hold")


# ---------------------------------------------------------------------------
# dynamics_bad_cavity


def check_dynamics(opdir: str, expect: dict) -> None:
    path = os.path.join(opdir, "trajectory.csv")
    with open(path, "rb") as fh:
        _require(fh.readline() == (TRAJECTORY_HEADER + "\n").encode(), "trajectory header")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(rows.shape[1] == 5 and rows.shape[0] >= 2, f"trajectory shape {rows.shape}")
    t, sr, si, ea, eb = rows.T
    initial = (0.0, 0.0, 1.0, 0.0) if expect["initial"] == "excited" else (0.0, 0.0, 0.0, 1.0)
    _require(t[0] == 0.0 and tuple(rows[0, 1:]) == initial, "trajectory does not start at the initial state")
    _require(bool(np.all(np.diff(t) > 0.0)), "time is not increasing")
    drift = float(np.abs(ea + eb - 1.0).max())
    _require(drift <= 1e-10, f"population drift {drift:.3e}")

    gamma_c, kappa, eps = expect["gamma_c"], expect["kappa"], expect["epsilon"]
    ref = closed_forms(gamma_c, kappa, eps)
    final = rows[-1]
    worst = max(abs(final[1] - ref["sigma"]), abs(final[2]),
                abs(final[3] - ref["eta_a"]), abs(final[4] - ref["eta_b"]))
    _require(worst <= 1e-8, f"final state is {worst:.3e} from the steady state")
    # Converged: the derivative of the moment equations vanishes at the end.
    q = 2.0 * (math.sqrt(gamma_c * kappa) / 2.0) * eps / kappa
    dsr = -0.5 * gamma_c * final[1] + q * (final[4] - final[3])
    dsi = -0.5 * gamma_c * final[2]
    dea = -gamma_c * final[3] + 2.0 * q * final[1]
    norm = math.sqrt(dsr * dsr + dsi * dsi + 2.0 * dea * dea)
    _require(norm <= 1e-10, f"final derivative norm {norm:.3e}")


# ---------------------------------------------------------------------------
# oracle_ladder


def check_oracle(opdir: str, expect: dict, code: int, stderr: str) -> str | None:
    if code == 4 and expect["may_refuse"] and "exceeds cap" in stderr:
        return "refused"
    _require(code == 0, f"exit code {code}: {stderr.strip()[-200:]}")
    with open(os.path.join(opdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    gamma_c, kappa, eps = expect["gamma_c"], expect["kappa"], expect["epsilon"]
    for key, want in (("gamma_c", gamma_c), ("kappa", kappa), ("epsilon", eps)):
        _require(report[key] == want, f"report {key} = {report[key]!r}")
    _close("g", report["g"], math.sqrt(gamma_c * kappa) / 2.0, 1e-15)
    if expect["n_cut"] is not None:
        _require(report["n_cut"] == expect["n_cut"], f"n_cut = {report['n_cut']!r}")
    _require(report["residual"] <= 1e-10, f"residual {report['residual']!r}")
    _require(report["trace_error"] <= 1e-10, f"trace error {report['trace_error']!r}")
    _require(report["hermiticity_error"] <= 1e-10,
             f"hermiticity error {report['hermiticity_error']!r}")
    _require(report["min_eigenvalue"] >= -1e-8, f"min eigenvalue {report['min_eigenvalue']!r}")
    ref = closed_forms(gamma_c, kappa, eps)
    cmp = report["comparisons"]
    _require(set(cmp) == {"mean_photon_number", "mean_field", "mean_field_squared",
                          "eta_a", "eta_b", "sigma", "var_plus", "var_minus"},
             "comparison quantities differ")
    for name, entry in cmp.items():
        _close(f"closed_form {name}", entry["closed_form"], ref[name], 1e-12)
        _require(entry["delta"] == entry["oracle"] - entry["closed_form"],
                 f"delta of {name} is not oracle - closed_form")
    return None


def check_decoupled(opdir: str, expect: dict) -> None:
    with open(os.path.join(opdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    kappa, eps = expect["kappa"], expect["epsilon"]
    _require((report["g"], report["kappa"], report["epsilon"]) == (0.0, kappa, eps),
             "report parameters differ")
    _require(report["trace_error"] <= 1e-10, f"trace error {report['trace_error']!r}")
    alpha = 2.0 * eps / kappa
    exact = {"mean_photon_number": alpha * alpha, "mean_field": alpha,
             "var_plus": 1.0, "var_minus": 1.0}
    _require(set(report["comparisons"]) == set(exact), "comparison quantities differ")
    for name, want in exact.items():
        entry = report["comparisons"][name]
        _close(f"analytic {name}", entry["analytic"], want, 1e-12)
        _require(abs(entry["oracle"] - want) <= 1e-8,
                 f"{name} is {entry['oracle'] - want:.3e} from the coherent state")
