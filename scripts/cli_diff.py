"""Compare the seeded CLI output of a parent revision with the working tree.

    python3 scripts/cli_diff.py --parent HEAD

The parent's committed files are exported with ``bench_pairs.export_revision``
into a temporary directory; the working tree is used as it stands.  Each
command of COMMANDS runs as ``python -m looplab ...`` once in each tree, with
that tree's ``src`` on PYTHONPATH and one BLAS thread.  For each command the
script prints ``identical`` or a unified diff of its standard output, standard
error and exit code, and it exits with 1 when any command differs.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, export_revision

# one seeded run of every subcommand; diag once with several lambdas (one
# set of draws for all), roundtrip once more at level 3.5 over 20 draws of
# coordinate recovery, invariance and reparam once per mode or observable
# that reaches different code, and wiener once more on a short walk, whose
# Hardy cutoff (16) exceeds its band (7), and on 300 walks, which cross the
# walk stream's chunk boundary at 256; abs_eta0 and the hyperbolic
# reparameterization also at truncation 24, where the converged Hardy cutoff
# falls well below the band, and there once more at seed 9, where 3 of the 80
# converged read-outs grow the cutoff past its start; the power control,
# whose two streams are read in closed form from their coordinates, also
# with abs_zeta1; the identity modes, whose two streams are both read in
# closed form and must give D = 0; the power control and the translation
# identity also at truncation 24, where a synthesis of their closed-form
# draws would cost most; general sampling and affine tables also on G2 and C3,
# where comarks differ from 1 and rho(h_beta) from the height of beta, and
# on E8; sample also as JSON, whose config record no other command shows
COMMANDS = (
    "sample --level 0 --truncation 16 --n 10 --seed 3",
    "sample --format json --truncation 4 --n 3 --seed 3",
    "sample --general A2 --truncation 8 --n 3 --seed 3",
    "sample --general A2 --format json --truncation 4 --n 2 --seed 3",
    "sample --general G2 --level 2 --truncation 6 --n 3 --seed 3",
    "identities --level 0 --m 64 --trials 8 --seed 7",
    "roundtrip --level 0 --trials 6 --seed 5",
    "roundtrip --level 3.5 --trials 20 --seed 9",
    "diag --level 0 --lambda 1 --n 100000 --truncation 512 --seed 7",
    "diag --level 0 --lambda 0.5 --lambda 1 --lambda 2 --n 100000 --truncation 512 --seed 7",
    "affine --type A --rank 1 --level 0 --horizon 16",
    "affine --type A --rank 2 --level 0 --horizon 8",
    "affine --type B --rank 2 --level 1 --horizon 4",
    "affine --type G --rank 2 --level 2 --horizon 3",
    "affine --type A --rank 3 --level 0 --horizon 2",
    "affine --type C --rank 3 --level 2 --horizon 2",
    "affine --type F --rank 4 --level 3 --horizon 1",
    "affine --type E --rank 6 --level 0 --horizon 1",
    "affine --type E --rank 8 --level 0 --horizon 1",
    "wiener --n 40 --seed 3",
    "wiener --n 40 --seed 3 --reference-level 0",
    "wiener --steps 16 --n 20 --seed 3",
    "wiener --n 300 --seed 3",
    "invariance --mode translate --truncation 16 --n 100 --seed 7",
    "invariance --observable abs_zeta1 --truncation 12 --n 100 --seed 7",
    "invariance --mode identity --truncation 12 --n 100 --seed 7",
    "invariance --mode power --truncation 12 --n 100 --seed 7",
    "invariance --mode power --observable abs_zeta1 --truncation 12 --n 100 --seed 7",
    "invariance --observable abs_eta0 --truncation 24 --n 40 --seed 7",
    "invariance --mode power --truncation 24 --n 200 --seed 19",
    "invariance --mode identity --truncation 24 --n 200 --seed 19",
    "reparam --mode hyperbolic --truncation 12 --n 40 --seed 4",
    "reparam --mode hyperbolic --truncation 24 --n 40 --seed 4",
    "reparam --mode hyperbolic --truncation 24 --n 40 --seed 9",
    "reparam --mode rotation --truncation 12 --n 40 --seed 4",
    "reparam --mode identity --truncation 12 --n 40 --seed 4",
)


def run_command(tree: str, command: str) -> list:
    """Output lines of ``looplab <command>`` run from ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "LOOPLAB_SEED"}
    env.update(PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "looplab", *command.split()],
                          cwd=tree, env=env, capture_output=True, text=True)
    stderr = [f"[stderr] {line}" for line in proc.stderr.splitlines()]
    return proc.stdout.splitlines() + stderr + [f"[exit {proc.returncode}]"]


def diff(command: str, parent: list, change: list) -> list:
    """Unified diff of one command's output, empty when the outputs agree."""
    return list(difflib.unified_diff(parent, change, f"parent: looplab {command}",
                                     f"change: looplab {command}", lineterm=""))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare against")
    args = ap.parse_args(argv)
    differs = 0
    with tempfile.TemporaryDirectory(prefix="cli-parent-") as parent_tree:
        export_revision(args.parent, parent_tree)
        for command in COMMANDS:
            lines = diff(command, run_command(parent_tree, command),
                         run_command(ROOT, command))
            print(f"# looplab {command}: " + ("differs" if lines else "identical"))
            for line in lines:
                print(line)
            differs += bool(lines)
    print(f"# {differs} of {len(COMMANDS)} commands differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
