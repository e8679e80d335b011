"""Benchmark of the cavity-squeezing command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are ``cli_cold``, ``figures_sweep``, ``oracle_ladder`` and
``dynamics_bad_cavity`` (see ``workloads.py`` and ``README.md``).  Every
operation's output is checked.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  Earlier lines give the
provenance, the run details and a table of the metrics with units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# The work runs in one process at a time with single-threaded BLAS (never
# more threads than nproc), which keeps runs steady; the settings are
# recorded in every result.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 5            # set-ups per untraced run; setup_s is their median
IMPORT_PROBES = 3     # "-X importtime" interpreters per traced run
DEADLINE_S = 120.0    # no operation starts later, so a run ends within 180 s
OP_TIMEOUT_S = 50.0   # an operation running longer is killed and fails
TAIL_BEYOND = 10      # samples that must lie beyond the reported tail

# The host's speed drifts by up to 1.6x over tens of seconds (other tenants
# of the machine), which no run length averages out.  Every op and every
# set-up is therefore bracketed by a fixed CPU kernel (worker.kernel_seconds),
# and its time is scaled to this uncontended kernel time of the reference
# machine: times are "reference-machine seconds".  Raw times are in the
# run details.
REFERENCE_KERNEL_S = 2.9e-3

def unit_of(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_written")):
        return "B"
    return "count"


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so the
    speed probe and the op it brackets always share a core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)


def _with_timeout(kill, fn, *args):
    timer = threading.Timer(OP_TIMEOUT_S, kill)
    timer.start()
    try:
        return fn(*args)
    finally:
        timer.cancel()


class Worker:
    """A ``worker.py serve`` process, sent one request at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, ROOT, "serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env())
        self.ready = _with_timeout(self.proc.kill, self._read)

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return _with_timeout(self.proc.kill, self._read)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(cmd: list[str], cwd: str) -> tuple[dict, int]:
    """One CLI process; returns its reply and its peak RSS in kB."""
    from worker import kernel_seconds

    before = kernel_seconds()
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=child_env())
        _, status, usage = _with_timeout(proc.kill, os.wait4, proc.pid, 0)
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(cwd, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-4000:]
    reply = {"code": proc.returncode, "latency_s": ended - start, "stderr": stderr,
             "error": None, "kernel_s": 0.5 * (before + kernel_seconds()),
             "spawned_at": start, "reaped_at": ended}
    return reply, usage.ru_maxrss


def check(op: dict, opdir: str, reply: dict, expected: dict) -> tuple[bool, bool, str]:
    """(passed, refused by the dimension cap, reason) for one operation."""
    import checks

    if reply["error"]:
        return False, False, reply["error"].strip().splitlines()[-1]
    kind = op["kind"]
    try:
        if kind == "oracle":
            verdict = checks.check_oracle(opdir, op["expect"], reply["code"], reply["stderr"])
            return True, verdict == "refused", ""
        if reply["code"] != 0:
            raise checks.CheckFailed(f"exit code {reply['code']}: {reply['stderr'].strip()[-200:]}")
        if kind == "canonical":
            checks.check_canonical(opdir, op["expect"]["name"], expected)
        elif kind == "figures":
            checks.check_figures(opdir, op["expect"])
        elif kind == "dynamics":
            checks.check_dynamics(opdir, op["expect"])
        elif kind == "decoupled":
            checks.check_decoupled(opdir, op["expect"])
        else:
            raise checks.CheckFailed(f"no check for {kind!r}")
    except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return False, False, f"{type(exc).__name__}: {exc}"
    return True, False, ""


class Session:
    """Runs one workload's operations, checks them, and keeps the records."""

    def __init__(self, workload: str, work: str, expected: dict, deadline: float,
                 verify=check) -> None:
        self.workload, self.work, self.expected = workload, work, expected
        self.deadline, self.verify = deadline, verify
        self.in_process = workload != "cli_cold"
        self.worker: Worker | None = None
        self.traced = False
        self.child_rss_kb = 0
        self.child_totals: dict = {}
        self.provenance: dict = {}
        self.failures: list[str] = []
        self.warmup_failed = 0
        self.not_started = 0
        self._dirs = 0

    def _opdir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"op{self._dirs}")
        os.mkdir(path)
        return path

    def setup(self, keep: bool) -> tuple[float, float]:
        """Start a worker and run the warm-up op; returns the set-up seconds
        and the host speed probe around them."""
        import workloads
        from worker import kernel_seconds

        before = kernel_seconds()
        start = time.perf_counter()
        worker = Worker()
        warm = workloads.warmup_op(self.workload)
        opdir = self._opdir()
        try:
            reply = worker.request(cmd="op", argv=warm["argv"], cwd=opdir, op=-1)
        except (RuntimeError, OSError, ValueError) as exc:
            reply = {"code": None, "latency_s": 0.0, "stderr": "", "error": repr(exc)}
        setup_s = time.perf_counter() - start
        kernel_s = 0.5 * (before + kernel_seconds())
        self.provenance = worker.ready["provenance"]
        ok, _, why = self.verify(warm, opdir, reply, self.expected)
        if not ok:
            self.warmup_failed += 1
            self.failures.append(f"warm-up: {why}")
        shutil.rmtree(opdir)
        if keep:
            self.worker = worker
        else:
            worker.close()
        return setup_s, kernel_s

    def trace_on(self) -> None:
        self.traced = True
        if self.in_process:
            self.worker.request(cmd="trace")

    def _execute(self, op: dict, opdir: str, index: int) -> dict:
        if self.in_process:
            try:
                return self.worker.request(cmd="op", argv=op["argv"], cwd=opdir, op=index)
            except (RuntimeError, OSError, ValueError) as exc:
                # The worker died (crash or timeout): start a fresh one, untimed.
                self.worker.close()
                self.worker = Worker()
                if self.traced:
                    self.worker.request(cmd="trace")
                return {"code": None, "latency_s": OP_TIMEOUT_S, "stderr": "",
                        "error": repr(exc), "kernel_s": REFERENCE_KERNEL_S}
        if self.traced:
            totals_path = os.path.join(opdir, "totals.json")
            cmd = [sys.executable, WORKER, ROOT, "once", totals_path, *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "cavity_squeezing", *op["argv"]]
        reply, rss_kb = run_child(cmd, opdir)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if self.traced and os.path.exists(totals_path):
            with open(totals_path, encoding="utf-8") as fh:
                totals = json.load(fh)
            # perf_counter is the system-wide monotonic clock, so the child's
            # first and last instants place interpreter start-up and exit.
            totals["cli.interpreter_s"] = ((totals.pop("trace.child_started") - reply["spawned_at"])
                                           + (reply["reaped_at"] - totals.pop("trace.child_ended")))
            for key, value in totals.items():
                self.child_totals[key] = self.child_totals.get(key, 0.0) + value
        return reply

    def run(self, ops: list[dict]) -> list[dict]:
        records = []
        for index, op in enumerate(ops):
            if time.perf_counter() > self.deadline:
                self.not_started += len(ops) - index
                break
            opdir = self._opdir()
            reply = self._execute(op, opdir, index)
            ok, refused, why = self.verify(op, opdir, reply, self.expected)
            if not ok:
                self.failures.append(f"op {index} ({' '.join(op['argv'][:1])}): {why}")
            records.append({"latency_s": reply["latency_s"], "kernel_s": reply["kernel_s"],
                            "ok": ok, "refused": refused})
            shutil.rmtree(opdir)
        return records

    def totals(self) -> dict:
        return self.worker.request(cmd="totals") if self.in_process else self.child_totals

    def peak_rss_mb(self) -> float:
        if self.in_process:
            return self.worker.request(cmd="rusage")["maxrss_kb"] / 1024.0
        return self.child_rss_kb / 1024.0

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def scaled(seconds: float, kernel_s: float) -> float:
    """Seconds on the reference machine, given the speed probe around them."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0  # else the maximum
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def import_profile() -> tuple[float, float]:
    """Median cumulative import time of cavity_squeezing.cli and of scipy.sparse."""
    cli_s, sparse_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavity_squeezing.cli"],
            capture_output=True, text=True, env=child_env(), timeout=OP_TIMEOUT_S, check=True)
        entries = []
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line and "cumulative" not in line:
                _, cumulative, raw = line.split("|", 2)
                entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cumulative) * 1e-6))
        # Entries are printed children first; walk parents first to skip
        # scipy.sparse submodules nested inside an entry already counted.
        def in_sparse(name):
            return name == "scipy.sparse" or name.startswith("scipy.sparse.")

        stack, sparse, cli = [], 0.0, 0.0
        for indent, name, seconds in reversed(entries):
            while stack and stack[-1][0] >= indent:
                stack.pop()
            if in_sparse(name) and not any(in_sparse(n) for _, n in stack):
                sparse += seconds
            if name == "cavity_squeezing.cli":
                cli = seconds
            stack.append((indent, name))
        cli_s.append(cli)
        sparse_s.append(sparse)
    return statistics.median(cli_s), statistics.median(sparse_s)


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cavity_squeezing")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool, verify=check) -> dict:
    """Run one benchmark run; returns metrics, counts, details and provenance."""
    import workloads

    started = time.perf_counter()
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    cycles = workloads.cycles_for(workload, seconds)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        session = Session(workload, work, expected, started + DEADLINE_S, verify)
        try:
            if trace:
                cycles = max(1, cycles // 2)
                ops = workloads.operations(workload, seed, cycles)
                setups = [session.setup(keep=session.in_process)]
                untraced = session.run(ops)
                session.trace_on()
                records = session.run(ops)
                totals = session.totals()
                records_all = untraced + records
            else:
                ops = workloads.operations(workload, seed, cycles)
                setups = [session.setup(keep=session.in_process and i == SETUPS - 1)
                          for i in range(SETUPS)]
                records = records_all = session.run(ops)
                peak_rss_mb = session.peak_rss_mb()
        finally:
            session.close()

    raw = [r["latency_s"] for r in records]
    ref = [scaled(r["latency_s"], r["kernel_s"]) for r in records]
    failed = sum(not r["ok"] for r in records_all)
    refused = sum(r["refused"] for r in records_all)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cycles": cycles, "ops": len(records_all), "failed": failed,
        "fail_ratio": failed / max(len(records_all), 1), "cap_refused": refused,
        "refusal_ratio": refused / max(len(records_all), 1),
        "warmup_failed": session.warmup_failed, "not_started": session.not_started,
        "failures": session.failures[:20],
        "host_slowdown": statistics.median(r["kernel_s"] for r in records_all)
        / REFERENCE_KERNEL_S,
        "setup_samples_raw_s": [s for s, _ in setups],
    }
    if trace:
        from tracer import layer_metrics

        metrics = layer_metrics(totals)
        base = [scaled(r["latency_s"], r["kernel_s"]) for r in untraced]
        metrics["cli.import_s"], metrics["cli.import_scipy_sparse_s"] = import_profile()
        accounted = (totals.get("trace.self_s", 0.0) + totals.get("trace.child_import_s", 0.0)
                     + metrics["cli.interpreter_s"])
        metrics.update({
            "trace.ops": len(records),
            "trace.op_s": sum(raw),
            "trace.accounted_share": accounted / sum(raw),
            "trace.untraced_ops_per_s": len(base) / sum(base),
            "trace.traced_ops_per_s": len(ref) / sum(ref),
            "trace.overhead_ratio": statistics.mean(ref) / statistics.mean(base) - 1.0,
        })
    else:
        value, percentile, beyond = tail(ref)
        detail.update({"op_tail_percentile": percentile, "op_tail_samples": len(ref),
                       "op_tail_beyond": beyond})
        metrics = {
            "setup_s": statistics.median(scaled(s, k) for s, k in setups),
            "ops_per_s": len(ref) / sum(ref),
            "op_p50_ms": 1000.0 * statistics.median(ref),
            "op_tail_ms": 1000.0 * value,
            "peak_rss_mb": peak_rss_mb,
        }
        detail["raw"] = {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": 1000.0 * statistics.median(raw),
            "op_tail_ms": 1000.0 * tail(raw)[0],
        }
    detail["elapsed_s"] = time.perf_counter() - started
    provenance = {
        "commit": commit(), "src_sha256": source_digest(), "seed": seed,
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": THREAD_ENV, "processes": 1, **session.provenance,
    }
    return {"metrics": metrics, "attempted": len(records_all), "failed": failed,
            "correct": failed == 0 and session.warmup_failed == 0,
            "detail": detail, "provenance": provenance}


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cavity_squeezing", "cli.py")):
        print(f"error: no cavity_squeezing sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    os.environ.update(THREAD_ENV)  # before the checks import numpy
    pin_to_one_cpu()

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({"detail": result["detail"]}))
    table = dict(result["metrics"])
    if not args.trace:
        table["fail_ratio"] = result["detail"]["fail_ratio"]
    for name, value in table.items():
        print(f"# {name:<32} {value!r} {unit_of(name)}")
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
