"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short untraced and traced run of every workload: no operation may
   fail, and each run must report exactly the metrics that
   ``BENCHMARK.json`` names, with the same units.
2. Corrupted outputs must count as failed operations: one flipped byte in
   a ``figures`` CSV (canonical and random inputs), one changed digit, and
   a perturbed final state of a ``dynamics`` trajectory.
3. Without the program's sources the benchmark must exit non-zero
   without printing a result.

Prints one line per case and exits 0 when every case holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SEED = 20240601


def _load_benchmark() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def short_runs(bench: dict) -> list[str]:
    problems = []
    named = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, SEED, 1.0, trace)
            metrics = result["metrics"]
            units = {name: run.unit_of(name) for name in metrics}
            ok = (result["correct"] and result["failed"] == 0
                  and units == named[trace]
                  and (trace or all(value > 0 for value in metrics.values())))
            print(f"{'ok  ' if ok else 'FAIL'} short run {workload} trace={int(trace)}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{len(metrics)} metrics", flush=True)
            if trace:
                print("     " + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()
                                          if k.startswith("trace.")), flush=True)
            else:
                print("     " + ", ".join(f"{k}={v:.4g} {units[k]}" for k, v in metrics.items())
                      + f", fail_ratio={result['detail']['fail_ratio']:.4g} ratio", flush=True)
            if not ok:
                problems.append(f"{workload} trace={int(trace)}: {result['detail']['failures']}"
                                f" metrics {sorted(set(units) ^ set(named[trace]))}")
    return problems


def _flip_byte(path: str, rng: random.Random, xor: int = 0xFF) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    start = data.index(b"\n") + 1  # a byte of the numbers, not of the header
    position = rng.randrange(start, len(data) - 1)
    while data[position] == ord("\n"):
        position = rng.randrange(start, len(data) - 1)
    data[position] ^= xor
    with open(path, "wb") as fh:
        fh.write(data)


def _change_leading_digit(path: str, rng: random.Random) -> None:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    row = rng.randrange(1, len(lines) - 1)
    fields = lines[row].split(",")
    col = rng.randrange(1, len(fields))
    digit = fields[col].lstrip("-")[0]
    fields[col] = fields[col].replace(digit, str((int(digit) % 9) + 1), 1)
    lines[row] = ",".join(fields)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))


def _perturb_final_state(path: str, rng: random.Random) -> None:
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    t, sr, si, ea, eb = (float(x) for x in lines[-2].split(","))
    shift = 1e-6  # the populations keep their sum; only the state moves
    lines[-2] = ",".join("%.12e" % x for x in (t, sr, si, ea + shift, eb - shift))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines))


def corruption_cases() -> list[str]:
    cases = [
        ("flipped byte in canonical fig2.csv", "cli_cold", "fig2.csv", _flip_byte),
        ("flipped byte in random-input fig3.csv", "figures_sweep", "fig3.csv", _flip_byte),
        ("changed leading digit in fig2.csv", "figures_sweep", "fig2.csv",
         _change_leading_digit),
        ("perturbed dynamics final state", "dynamics_bad_cavity", "trajectory.csv",
         _perturb_final_state),
    ]
    problems = []
    for label, workload, file, mutate in cases:
        rng = random.Random(label)
        warm_argv = workloads.warmup_op(workload)["argv"]
        hits = []

        def verify(op, opdir, reply, expected, file=file, mutate=mutate, rng=rng, hits=hits):
            path = os.path.join(opdir, file)
            if not hits and op["argv"] != warm_argv and os.path.exists(path):
                mutate(path, rng)
                hits.append(op["argv"])
            return run.check(op, opdir, reply, expected)

        result = run.measure(workload, SEED, 1.0, False, verify=verify)
        ok = len(hits) == 1 and result["failed"] == 1 and not result["correct"]
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {result['failed']} of "
              f"{result['attempted']} ops failed ({result['detail']['failures'][:1]})",
              flush=True)
        if not ok:
            problems.append(label)
    return problems


def without_sources() -> list[str]:
    bench = _load_benchmark()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*bench["command"], "--workload", "cli_cold", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if ok else 'FAIL'} without sources: exit {proc.returncode}, "
          f"stderr {proc.stderr.strip()[-80:]!r}", flush=True)
    return [] if ok else ["without sources"]


def main() -> int:
    os.environ.update(run.THREAD_ENV)
    problems = without_sources() + corruption_cases() + short_runs(_load_benchmark())
    for problem in problems:
        print("problem:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
