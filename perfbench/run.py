"""Run one workload of the looplab benchmark and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of looplab; the program is imported from
the checkout's ``src``.  Workloads: roundtrip, eta0_pushforward, invariance,
measure_transforms (see README.md).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, items_per_s, item_ms_p50, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics.  The worker's full result (item
times, reported-only figures, machine info) goes to ``perfbench/out/`` with,
in traced mode, the spans; a summary of it goes to standard error.  The exit
code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("roundtrip", "eta0_pushforward", "invariance", "measure_transforms")
# setup_s is the median over this many fresh start-ups: the measuring
# process and SETUP_REPEATS - 1 processes that stop after their warm-up
SETUP_REPEATS = 3
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("peak_rss_mb", "MB"))


def _child_env() -> dict:
    env = dict(os.environ)
    # the single-threaded BLAS baseline; OpenBLAS reads this when it loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args, extra, deadline):
    """Start a worker, time it from start to its READY line, wait for it to end.

    Returns (seconds to READY, its last stdout line).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), text=True)
    # the worker is killed when the run's deadline passes
    killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    killer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(extra) or ''} exited with code {code}")
    return ready, last


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "looplab", "__init__.py")):
        print(f"no looplab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_run_worker(args, ["--setup-only"], deadline)[0])
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        stem = f"{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}"
        extra = ["--trace-out", os.path.join(out_dir, stem + ".spans.json")] if args.trace else []
        ready, line = _run_worker(args, extra, deadline)
        setups.append(ready)
        res = json.loads(line)
        res["setup_runs_s"] = setups
        with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
            json.dump(res, fh)
    except (RuntimeError, ValueError, TypeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: res[k] for k in (
        "rounds", "timed_s", "calibration_ms", "wall_items_per_s", "errors", "wrong",
        "info", "machine")}), file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
    else:
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".ms_per_item"):
        return "ms"
    if name.endswith(".flops_per_item"):
        return "flop"
    if name.endswith(".accept_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
