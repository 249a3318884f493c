"""Benchmark a parent revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_n.json [--seed 613]

The parent's committed files are exported with ``git archive`` into a
temporary directory (a plain copy: nothing is registered in the repository,
and a killed run leaves no stale checkout behind); the working tree is
measured as it stands.  For each workload, every pair runs
``perfbench/run.py --trace 0`` once on each side, alternating which side runs
first, so that slow and fast stretches of a shared machine fall on both
sides alike.  One traced run (``--trace 1``) per side and workload follows.

The output holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's runs, median and quartiles, the number of pairs the change won
(ties count for neither side), and whether the change's median is worse than
the parent's by more than the metric's bound; the traced per-layer metrics of
both sides; and the machine (nproc, BLAS build and thread count, versions).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# alternating pairs per workload: the fewest that can support a gain claim
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_revision(rev: str, dest: str) -> None:
    """Write the committed files of ``rev`` into the empty directory ``dest``."""
    archive = os.path.join(dest, "rev.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, rev],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line plus the
    machine record it prints to standard error."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in reversed(proc.stderr.strip().splitlines()):
        if line.startswith("{"):
            result["machine"] = json.loads(line).get("machine")
            break
    return result


def summarize(runs: list) -> dict:
    """Median and quartiles (inclusive method) of a list of run values."""
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Pair wins and the regression test against ``bound`` for one metric.

    ``parent[i]`` and ``change[i]`` come from the same pair.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p, c = summarize(parent), summarize(change)
    # relative change in the metric's own "better" direction
    gain = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {"parent": p, "change": c, "change_wins": wins, "ties": ties,
            "pairs": len(parent), "ratio": c["median"] / p["median"] if p["median"] else None,
            "relative_gain": gain,
            "parent_iqr": p["q3"] - p["q1"],
            "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            "regression_beyond_bound": gain < -bound}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seed", type=int, default=613)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = int(bench["run_seconds"])
    parent_sha = _git("rev-parse", args.parent)
    report = {"parent": parent_sha, "change": f"working tree on {_git('rev-parse', 'HEAD')}",
              "seed": args.seed, "seconds": seconds, "pairs": PAIRS,
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export_revision(parent_sha, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for name in names:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res = run_once(trees[side], name, args.seed, seconds, 0)
                    runs[side].append(res)
                    report.setdefault("machine", res.get("machine"))
                    print(f"{name} pair {i} {side}: "
                          + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                          file=sys.stderr, flush=True)
            entry = {"metrics": {}, "correct": {}, "failed": {}, "attempted": {}}
            for side in runs:
                entry["correct"][side] = all(r["correct"] for r in runs[side])
                entry["failed"][side] = sum(r["failed"] for r in runs[side])
                entry["attempted"][side] = sum(r["attempted"] for r in runs[side])
            for metric in bench["end_to_end"]:
                m = metric["name"]
                entry["metrics"][m] = compare(
                    [r["metrics"][m]["value"] for r in runs["parent"]],
                    [r["metrics"][m]["value"] for r in runs["change"]],
                    metric["better"], metric["bound"])
            entry["trace"] = {side: run_once(trees[side], name, args.seed, seconds, 1)["metrics"]
                              for side in ("parent", "change")}
            report["workloads"][name] = entry
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
