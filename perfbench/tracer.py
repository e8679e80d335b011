"""Spans around the public functions of the cavity_squeezing modules.

The benchmark installs these wrappers at run time, from outside the
package: every function a module lists in ``__all__``, a few public
methods, and ``spsolve`` as ``oracle`` imports it.  Copies that a
``from ... import`` bound into another module (``cli``, ``sweeps``,
``superposed``) are rebound to the same wrapper.

Each call of a wrapped name becomes a span (name, start, end, parent
span, operation id, self time).  Functions of the per-point layers
(``params``, ``single_mode``, ``superposed``) and ``DensityMatrix.expect``
run once per grid point or moment, so their calls are only counted and
timed under the enclosing span; memory stays bounded by the number of
spans.  Self time is a call's duration minus the time its traced
children cover.  Spans stay in memory until :meth:`Tracer.totals` sums
them into the per-layer record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("params", "single_mode", "superposed", "sweeps", "dynamics", "oracle", "cli")
PER_POINT_LAYERS = ("params", "single_mode", "superposed")
PER_POINT_NAMES = ("oracle.DensityMatrix.expect",)
METHODS = {
    "params": {"SystemParams": ("__init__", "from_gamma_c")},
    "sweeps": {"SweepTable": ("to_csv",), "IdentityReport": ("to_csv",)},
    "dynamics": {"TimeSeries": ("to_csv", "final_state")},
    "oracle": {"DensityMatrix": ("trace_error", "hermiticity_error", "min_eigenvalue",
                                 "expect"),
               "OracleReport": ("to_dict",)},
}
# The oracle entry points whose normal return is one report.
REPORT_NAMES = ("oracle.cutoff_converged", "oracle.compare_with_closed_form",
                "oracle.decoupled_benchmark")
N_CUT_RUNGS = (16, 32, 64, 127)


def _figure_bytes(args, result):
    out_dir = args[1]
    return {"bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in result["files"])}


def _csv_bytes(args, result):
    path = args[1]
    return {"bytes": os.path.getsize(path)} if isinstance(path, (str, os.PathLike)) else {}


# Counts read off a call's arguments or result, keyed by span name.
HOOKS = {
    "oracle.spsolve": lambda args, result: {"unknowns": args[0].shape[0],
                                            "nnz": args[0].nnz},
    "oracle.cutoff_converged": lambda args, result: {"n_cut": result[0]},
    "oracle.compare_with_closed_form": lambda args, result: {"n_cut": result.n_cut},
    "oracle.decoupled_benchmark": lambda args, result: {"n_cut": result["n_cut"]},
    "dynamics.integrate": lambda args, result: {"steps": len(result.t) - 1},
    "dynamics.TimeSeries.to_csv": _csv_bytes,
    "sweeps.run_sweep": lambda args, result: {"points": args[0].n_points},
    "sweeps.write_figure_files": _figure_bytes,
}


class Tracer:
    """Span store for one process; :meth:`install` wraps the package."""

    def __init__(self) -> None:
        # (name, start, end, parent index, op id, self seconds, error, info)
        self.spans: list = []
        # (parent span index, name) -> [calls, seconds, self seconds]
        self.aggregates: dict = {}
        self.op = None
        # Open calls: [start, seconds covered by children, span index
        # that children report to].
        self._stack: list = []

    def _wrap(self, name: str, fn, per_point: bool):
        clock = time.perf_counter
        stack, spans, aggregates = self._stack, self.spans, self.aggregates
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if per_point:
                index = parent
            else:
                index = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, index]
            stack.append(frame)
            error = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                if per_point:
                    entry = aggregates.get((parent, name))
                    if entry is None:
                        aggregates[(parent, name)] = [1, duration, self_s]
                    else:
                        entry[0] += 1
                        entry[1] += duration
                        entry[2] += self_s
                else:
                    info = None
                    if hook is not None and error is None:
                        try:
                            info = hook(args, result)
                        except Exception:  # a changed signature must not fail the op
                            info = {"hook_errors": 1}
                    spans[index] = (name, frame[0], end, parent, self.op, self_s, error, info)

        return traced

    def install(self) -> None:
        """Wrap the package's public functions in every module that binds them."""
        package = importlib.import_module("cavity_squeezing")
        modules = {layer: importlib.import_module(f"cavity_squeezing.{layer}")
                   for layer in MODULES}
        namespaces = [package, *modules.values()]

        def rebind(original, wrapper):
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

        for layer, module in modules.items():
            per_point = layer in PER_POINT_LAYERS
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    rebind(obj, self._wrap(f"{layer}.{attr}", obj, per_point))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    raw = cls.__dict__[meth]
                    point = per_point or name in PER_POINT_NAMES
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, point)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw, point))
        oracle = modules["oracle"]
        oracle.spsolve = self._wrap("oracle.spsolve", oracle.spsolve, False)

    def totals(self) -> dict:
        """Additive per-layer sums; :func:`layer_metrics` derives the ratios."""
        t = {"trace.self_s": 0.0}

        def add(key, value):
            t[key] = t.get(key, 0.0) + value

        names = [span[0] if span else None for span in self.spans]
        for span in self.spans:
            if span is None:  # still open: the run was cut short
                continue
            name, start, end, parent, _, self_s, error, info = span
            duration = end - start
            layer = name.split(".", 1)[0]
            add("trace.self_s", self_s)
            add(f"{layer}.self_s", self_s)
            add(f"{name}#s", duration)
            add(f"{name}#self_s", self_s)
            add(f"{name}#calls", 1)
            for key, value in (info or {}).items():
                add(f"{name}#{key}", value)
            outermost = parent is None or not (names[parent] or "").startswith("oracle.")
            if layer == "oracle" and outermost:
                add("oracle.total_s", duration)
                if error is None and name in REPORT_NAMES:
                    add("oracle.reports", 1)
                    rung = info["n_cut"] if info and "n_cut" in info else None
                    key = rung if rung in N_CUT_RUNGS else "other"
                    add(f"oracle.final_n_cut.{key}", 1)
                elif error == "DimensionCap":
                    add("oracle.cap_refusals", 1)
                elif error == "SingularSystem":
                    add("oracle.singular", 1)
            if name == "dynamics.integrate" and error == "NonConvergence":
                add("dynamics.nonconverged", 1)
        for (parent, name), (calls, seconds, self_s) in self.aggregates.items():
            layer = name.split(".", 1)[0]
            add("trace.self_s", self_s)
            add(f"{layer}.self_s", self_s)
            add(f"{layer}.calls", calls)
            add(f"{name}#calls", calls)
            if parent is not None and names[parent] == "sweeps.find_max_squeezing" \
                    and name == "single_mode.squeezing":
                add("sweeps.squeezing_evals", calls)
        return t


def layer_metrics(t: dict) -> dict:
    """The named per-layer metrics from summed :meth:`Tracer.totals`."""
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    solves = g("oracle.spsolve#calls")
    m = {
        "cli.main_self_s": g("cli.self_s"),
        # interpreter start-up and exit of traced cli_cold children
        "cli.interpreter_s": g("cli.interpreter_s"),
        "params.calls": g("params.SystemParams.__init__#calls"),
        "params.self_s": g("params.self_s"),
        "single_mode.calls": g("single_mode.calls"),
        "single_mode.self_s": g("single_mode.self_s"),
        "superposed.calls": g("superposed.calls"),
        "superposed.self_s": g("superposed.self_s"),
        "sweeps.points": g("sweeps.run_sweep#points"),
        "sweeps.run_sweep_s": g("sweeps.run_sweep#s"),
        "sweeps.identity_report_s": g("sweeps.identity_report#s"),
        "sweeps.find_max_squeezing_s": g("sweeps.find_max_squeezing#s"),
        "sweeps.squeezing_evals": g("sweeps.squeezing_evals"),
        "sweeps.write_self_s": (g("sweeps.write_figure_files#self_s")
                                + g("sweeps.SweepTable.to_csv#self_s")
                                + g("sweeps.IdentityReport.to_csv#self_s")),
        "sweeps.bytes_written": g("sweeps.write_figure_files#bytes"),
        "dynamics.integrate_s": g("dynamics.integrate#s"),
        "dynamics.steps": g("dynamics.integrate#steps"),
        "dynamics.steps_per_s": ratio(g("dynamics.integrate#steps"), g("dynamics.integrate#s")),
        "dynamics.to_csv_s": g("dynamics.TimeSeries.to_csv#s"),
        "dynamics.csv_bytes": g("dynamics.TimeSeries.to_csv#bytes"),
        "dynamics.nonconverged": g("dynamics.nonconverged"),
        "oracle.solves": solves,
        "oracle.useful_solve_ratio": ratio(g("oracle.reports"), solves),
        "oracle.unknowns": g("oracle.spsolve#unknowns"),
        "oracle.system_nnz": g("oracle.spsolve#nnz"),
        "oracle.build_operators_s": g("oracle.build_operators#s"),
        "oracle.hamiltonian_s": (g("oracle.build_hamiltonian#self_s")
                                 + g("oracle.hamiltonian_matrix#self_s")),
        "oracle.liouvillian_s": g("oracle.liouvillian_matrix#s"),
        "oracle.spsolve_s": g("oracle.spsolve#s"),
        "oracle.residual_s": g("oracle.lindblad_action#s"),
        "oracle.eigvalsh_s": g("oracle.DensityMatrix.min_eigenvalue#s"),
        "oracle.total_s": g("oracle.total_s"),
        "oracle.spsolve_share": ratio(g("oracle.spsolve#s"), g("oracle.total_s")),
    }
    for rung in (*N_CUT_RUNGS, "other"):
        m[f"oracle.final_n_cut.{rung}"] = g(f"oracle.final_n_cut.{rung}")
    m["oracle.cap_refusals"] = g("oracle.cap_refusals")
    m["oracle.singular"] = g("oracle.singular")
    m["trace.hook_errors"] = sum(v for k, v in t.items() if k.endswith("#hook_errors"))
    return m
