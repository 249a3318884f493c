"""Measuring process of the benchmark; ``run.py`` starts it.

It imports looplab from the checkout's ``src``, builds the workload's inputs
from the seed and runs one warm-up item, then prints ``READY``; with
``--setup-only`` it stops there.  Otherwise it times whole rounds of the
workload's items, one item at a time, checks every output and prints one
JSON line with the figures.  ``run.py`` sets the BLAS thread count in the
environment before this process starts.

Item times are reported in reference seconds.  On the shared 2-core machine
the benchmark was built on, the same items ran up to 60% slower from one
minute to the next, because other tenants load the cores; a fixed kernel that
does not use looplab slowed down with them (correlation 0.8 to 0.96 over 1 s
blocks).  That kernel runs after every item, outside the item's time, and
each item's wall time is scaled by CAL_REFERENCE_MS over the kernel's median
time right after it.  A change to looplab moves the items, not the kernel.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _blas_info() -> dict:
    import numpy as np
    import scipy
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas"] = get_config().decode()
                info["blas_threads"] = get_threads()
                return info
    info["blas"] = "unknown"
    return info


CAL_REFERENCE_MS = 2.0
CAL_SHARE = 0.2
CAL_MIN_REPS = 3


class Calibration:
    """A fixed kernel that does not use looplab: interpreted complex
    arithmetic, small complex LAPACK, BLAS and ufunc calls, and a pass over an
    array larger than the L2 cache.  It shares no cache with the items: no
    FFT (numpy keeps a plan cache that items of other sizes evict) and no
    large temporaries (whose cost depends on the allocator's state).  After
    every item it runs for CAL_SHARE of the item's time, so that it samples
    the machine's speed over the same stretches of time as the items."""

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.b = rng.standard_normal((96, 2)) + 0j
        self.x = rng.standard_normal(512)
        self.y = rng.standard_normal(1 << 18)
        self.buf = np.empty_like(self.y)
        # bound now, so that the traced mode's wrappers are not in the way
        self.solve = np.linalg.solve
        self.times = []

    def _kernel(self) -> None:
        np = self.np
        z = 1 + 0j
        for j in range(1, 1500):
            z *= (j + 1.0) / (j + 1.0 - 0.5j)
        for _ in range(3):
            self.solve(self.a, self.b)
            self.a @ self.a[:, :4]
            np.exp(1j * self.x)
        np.abs(self.y, out=self.buf)
        np.log1p(self.buf, out=self.buf)

    def run(self, seconds: float) -> float:
        """Repeat the kernel for at least ``seconds`` (at least CAL_MIN_REPS
        times) and return the reference seconds per wall second over that
        stretch, from the median repetition: a stall of a few ms, common on
        this machine, would swamp the mean of repetitions this short."""
        spent, reps = 0.0, []
        while spent < seconds or len(reps) < CAL_MIN_REPS:
            t = time.perf_counter()
            self._kernel()
            dt = time.perf_counter() - t
            reps.append(dt)
            spent += dt
        self.times.extend(reps)
        return CAL_REFERENCE_MS / (1e3 * statistics.median(reps))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import looplab
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(looplab.__file__).startswith(src + os.sep):
        print(f"looplab was imported from {looplab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads
    work = workloads.WORKLOADS[args.workload](args.seed)
    work.warm_up()
    cal = Calibration()
    cal.run(0.0)
    cal.times.clear()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # whole rounds of the same items; another round starts only while it is
    # expected to end within --seconds.  Items are checked between rounds,
    # outside the timed calls.
    item_ms, raw_ms, errors, wrong, first_round = [], [], {}, [], None
    rounds = failed = 0
    timed = wall = 0.0
    while rounds == 0 or wall + wall / rounds <= args.seconds:
        outputs = []
        for i in range(work.n_items):
            t = time.perf_counter()
            try:
                if tracer is not None:
                    out = tracer.item(rounds * work.n_items + i, work.run_item, i)
                else:
                    out = work.run_item(i)
            except Exception as exc:
                out = exc
            dt = time.perf_counter() - t
            wall += dt
            raw_ms.append(dt * 1e3)
            dt *= cal.run(CAL_SHARE * dt)
            timed += dt
            item_ms.append(dt * 1e3)
            outputs.append(out)
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failed += 1
                errors[type(out).__name__] = errors.get(type(out).__name__, 0) + 1
                outputs[i] = None
                continue
            msgs = work.check_item(i, out)
            if msgs:
                failed += 1
                wrong.append(f"round {rounds} item {i}: " + "; ".join(msgs))
        if first_round is None:
            first_round = outputs
        rounds += 1
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # pooled checks over one round (later rounds repeat its inputs) and
    # checks on draws the benchmark makes itself
    try:
        run_msgs, info = work.check_run(first_round)
    except Exception:
        run_msgs, info = ["run checks raised:\n" + traceback.format_exc()], {}
    wrong += run_msgs
    attempted = rounds * work.n_items

    result = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "attempted": attempted, "failed": failed, "correct": not wrong,
        "wrong": wrong, "errors": errors, "timed_s": timed, "wall_s": wall,
        "calibration_ms": 1e3 * statistics.fmean(cal.times),
        "items_per_s": attempted / timed,
        "item_ms_p50": statistics.median(item_ms),
        "wall_items_per_s": attempted / wall,
        "item_ms": item_ms, "raw_item_ms": raw_ms,
        "peak_rss_mb": peak_rss_mb, "info": info, "machine": _blas_info(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer_metrics(attempted)
        if args.trace_out:
            tracer.write(args.trace_out, {k: result[k] for k in (
                "workload", "seed", "rounds", "attempted", "timed_s", "items_per_s",
                "item_ms_p50", "machine")})
    for k, v in result.items():
        if isinstance(v, float) and not math.isfinite(v):
            result[k] = None
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
