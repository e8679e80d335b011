"""The process that runs the program for the benchmark.

``python perfbench/worker.py ROOT serve``
    Imports ``cavity_squeezing.cli`` from ``ROOT/src``, prints one JSON
    ready line, then answers one JSON request per line of stdin:
    ``{"cmd": "op", "argv": [...], "cwd": DIR, "op": ID}`` runs
    ``cli.main(argv)`` in DIR and replies with exit code, latency and the
    host speed probe around it (:func:`kernel_seconds`);
    ``{"cmd": "trace"}`` installs the tracer; ``{"cmd": "totals"}`` replies
    with the tracer's sums; ``{"cmd": "rusage"}`` with the peak RSS.
    The program's own stdout and stderr are captured during an op, so
    stdout carries only the replies.

``python perfbench/worker.py ROOT once TOTALS ARG...``
    One traced CLI run in a fresh interpreter, as ``python -m
    cavity_squeezing ARG...`` would do it; writes the tracer's sums and
    the measured import time to the file TOTALS and exits with the CLI's
    exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

STARTED = time.perf_counter()


def kernel_seconds() -> float:
    """Host speed probe: the fastest of three runs of a fixed CPU kernel.

    The kernel is pure-Python integer arithmetic, a list of 4000 float
    tuples turned into a numpy array, and one pass over a 1 MB array:
    the kinds of work the CLI does, about 3.3 ms on the reference machine
    when it is not contended.  Its time tracks how fast the host runs this
    process right now; the benchmark divides op latencies by it.
    """
    import numpy

    buffer = numpy.zeros(1 << 17)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        rows, x = [], 0.5
        for i in range(4000):
            x = 0.999 * x + 0.001
            rows.append((x, x + 1.0, 2.0 * x, 0.5 * i))
        numpy.array(rows)
        numpy.add(buffer, 1.0, out=buffer)
        best = min(best, time.perf_counter() - start)
    return best


def load_cli(root: str):
    """Import the CLI from the checkout's sources (never an installed copy)."""
    start = time.perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from cavity_squeezing import cli

    import_s = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(os.path.abspath(src), "cavity_squeezing"):
        raise SystemExit(f"worker: imported cavity_squeezing from {where}, not {src}")
    return cli, import_s


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, error = None, traceback.format_exc(limit=8)
    latency = time.perf_counter() - start
    return {"code": code, "latency_s": latency, "stderr": err.getvalue()[-4000:],
            "error": error}


def serve(root: str) -> None:
    cli, import_s = load_cli(root)
    tracer = None
    reply = {"ready": True, "import_s": import_s, "provenance": provenance()}
    print(json.dumps(reply), flush=True)
    # The probe after one op also serves as the probe before the next.
    kernel_s = kernel_seconds()
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "op":
            os.chdir(request["cwd"])
            if tracer is not None:
                tracer.op = request["op"]
            before = kernel_s
            reply = run_op(cli, request["argv"])
            kernel_s = kernel_seconds()
            reply["kernel_s"] = 0.5 * (before + kernel_s)
        elif cmd == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            reply = {}
        elif cmd == "totals":
            reply = tracer.totals()
        elif cmd == "rusage":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            raise SystemExit(f"worker: unknown request {cmd!r}")
        print(json.dumps(reply), flush=True)


def once(root: str, totals_path: str, argv: list[str]) -> int:
    cli, import_s = load_cli(root)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    code = cli.main(argv)
    sys.stdout.flush()
    totals = tracer.totals()
    totals["trace.child_import_s"] = import_s
    totals["trace.child_started"] = STARTED
    totals["trace.child_ended"] = time.perf_counter()
    with open(totals_path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
    return code


if __name__ == "__main__":
    root_dir, mode = sys.argv[1], sys.argv[2]
    if mode == "serve":
        serve(root_dir)
    elif mode == "once":
        sys.exit(once(root_dir, sys.argv[3], sys.argv[4:]))
    else:
        sys.exit(f"worker: unknown mode {mode!r}")
