"""Command-line entry point: every experiment behind one reproducible CLI.

Exit codes: 0 success, 1 usage error, 2 "ran fine but a mathematics gate
failed".  All randomness derives from --seed (default: env LOOPLAB_SEED,
then 0), and identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .affine import (build_periodic_sequence, build_root_system,
                     default_period, exponent_table)
from .errors import InvalidInput, LooplabError, check_count
from .factorization import log_det_AstarA, toeplitz
from .loops import LaurentLoop, from_coeff_dict
from .measures import MeasureSpec, sample_coords
from .rootsub import (coords_max_error, log_product_formula, random_coords,
                      recover_coords, synthesize)
from .transforms import (mc_diagonal_transform, partial_product,
                         sine_formula_su2)
from .wiener import (WienerConfig, eta0_pushforward_experiment,
                     invariance_experiment, reparam_invariance_experiment)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    return int(os.environ.get("LOOPLAB_SEED", "0"))


def _header(config: dict) -> str:
    return f"# looplab {__version__} config={json.dumps(config, sort_keys=True)}"


def _emit(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    p = _Parser(prog="looplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=_default_seed())
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample", help="draw product-measure coordinates")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--truncation", type=int, default=16)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--general", default=None, metavar="LABEL")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp)

    sp = sub.add_parser("identities", help="Toeplitz determinant identities")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--m", type=int, default=64)
    sp.add_argument("--trials", type=int, default=20)
    common(sp)

    sp = sub.add_parser("roundtrip", help="synthesize/recover round trip")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-8)
    common(sp)

    sp = sub.add_parser("diag", help="diagonal-distribution transform")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--lambda", dest="lam", type=float, action="append",
                    default=None)
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--truncation", type=int, default=512)
    common(sp)

    sp = sub.add_parser("affine", help="exponent table and reduced word")
    sp.add_argument("--type", dest="family", default="A")
    sp.add_argument("--rank", type=int, default=1)
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--horizon", type=int, default=8)
    common(sp)

    sp = sub.add_parser("wiener", help="Brownian loop eta0 pushforward")
    sp.add_argument("--beta", type=float, default=0.05)
    sp.add_argument("--steps", type=int, default=256)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--band", type=int, default=None)
    sp.add_argument("--reference-level", type=float, default=None,
                    help="use the exact sampler instead (harness self-test)")
    common(sp)

    sp = sub.add_parser("invariance", help="left-translation invariance")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--truncation", type=int, default=16)
    sp.add_argument("--mode", choices=("identity", "translate", "power"),
                    default="translate")
    sp.add_argument("--level-b", type=float, default=2.0,
                    help="second level for the power control")
    sp.add_argument("--observable", default="a0")
    common(sp)

    sp = sub.add_parser("reparam", help="Mobius reparameterization invariance")
    sp.add_argument("--level", type=float, default=0.0)
    sp.add_argument("--n", type=int, default=2000)
    sp.add_argument("--truncation", type=int, default=16)
    sp.add_argument("--mode", choices=("identity", "rotation", "hyperbolic"),
                    default="rotation")
    sp.add_argument("--phi", type=float, default=0.7,
                    help="rotation angle")
    sp.add_argument("--s", type=float, default=0.2,
                    help="hyperbolic parameter (b = sinh-like offset)")
    sp.add_argument("--observable", default="a0")
    common(sp)
    return p


def _flatten_coords(c) -> list:
    row = [complex(c.chi0).imag]
    for arr in (c.eta, c.chi, c.zeta):
        for v in np.asarray(arr):
            row.extend([v.real, v.imag])
    return row


def _cmd_sample(args) -> int:
    cfg = {"command": "sample", "level": args.level,
           "truncation": args.truncation, "n": args.n, "seed": args.seed,
           "general": args.general, "format": args.format}
    check_count("--n", args.n, 1)
    if args.general:
        rs = build_root_system(args.general)
        seq = build_periodic_sequence(rs, default_period(rs),
                                      max(args.truncation, 2))
        table = exponent_table(rs, seq, args.level, args.truncation)
        spec = MeasureSpec.from_exponent_table(table, args.truncation)
    else:
        spec = MeasureSpec.su2(args.level, args.truncation)
    draws = [sample_coords(spec, np.random.default_rng([args.seed, i]))
             for i in range(args.n)]
    if args.format == "json":
        payload = {"config": cfg,
                   "samples": [{"chi0_im": complex(c.chi0).imag,
                                "eta": [[v.real, v.imag] for v in c.eta],
                                "chi": [[v.real, v.imag] for v in c.chi],
                                "zeta": [[v.real, v.imag] for v in c.zeta]}
                               for c in draws]}
        _emit(args.out, json.dumps(payload, sort_keys=True) + "\n")
        return 0
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    T = spec.truncation
    cols = ["sample", "chi0_im"]
    cols += [f"eta{i}_{p}" for i in range(T) for p in ("re", "im")]
    cols += [f"chi{j}_{p}" for j in range(1, T + 1) for p in ("re", "im")]
    cols += [f"zeta{k}_{p}" for k in range(1, T + 1) for p in ("re", "im")]
    print(",".join(cols), file=buf)
    for i, c in enumerate(draws):
        print(",".join([str(i)] + [f"{v:.17g}" for v in _flatten_coords(c)]),
              file=buf)
    _emit(args.out, buf.getvalue())
    return 0


def _cmd_identities(args) -> int:
    cfg = {"command": "identities", "level": args.level, "m": args.m,
           "trials": args.trials, "seed": args.seed}
    check_count("--trials", args.trials, 1)
    check_count("--m", args.m, 0)
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    print("coord_seed,M,log_det_A,log_det_A1,product_formula_A,"
          "product_formula_A1,abs_error", file=buf)
    worst = 0.0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        coords = random_coords(rng, level=args.level)
        g = synthesize(coords)
        M = max(args.m, g.band_width)
        ld = log_det_AstarA(toeplitz(g, M, shifted=False))
        ld1 = log_det_AstarA(toeplitz(g, M, shifted=True))
        pf = log_product_formula(coords, "detA")
        pf1 = log_product_formula(coords, "detA1")
        err = max(abs(ld - pf), abs(ld1 - pf1))
        worst = max(worst, err)
        print(f"{trial},{M},{ld:.12e},{ld1:.12e},{pf:.12e},{pf1:.12e},"
              f"{err:.3e}", file=buf)
    _emit(args.out, buf.getvalue())
    return 0 if worst < 1e-6 else 2


def _cmd_roundtrip(args) -> int:
    cfg = {"command": "roundtrip", "level": args.level, "trials": args.trials,
           "tol": args.tol, "seed": args.seed}
    check_count("--trials", args.trials, 1)
    if not 0 < args.tol < math.inf:
        raise InvalidInput(f"--tol must be a finite number > 0, got {args.tol}")
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    print("trial,max_coord_error", file=buf)
    worst = 0.0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        coords = random_coords(rng, level=args.level)
        g = synthesize(coords)
        rec = recover_coords(g, l_hint=args.level)
        err = coords_max_error(coords, rec)
        worst = max(worst, err)
        print(f"{trial},{err:.3e}", file=buf)
    _emit(args.out, buf.getvalue())
    return 0 if worst < args.tol else 2


def _cmd_diag(args) -> int:
    lams = args.lam if args.lam else [1.0]
    cfg = {"command": "diag", "level": args.level, "lambda": lams,
           "n": args.n, "truncation": args.truncation, "seed": args.seed}
    spec = MeasureSpec.su2(args.level, args.truncation)
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    print("lambda,mc_value_re,mc_value_im,stderr,partial_product_re,"
          "partial_product_im,sine_formula_re,sine_formula_im,within_3se,"
          "near_sine", file=buf)
    ok = True
    results = mc_diagonal_transform(spec, np.array(lams), args.n, seed=args.seed)
    for lam, res in zip(lams, results):
        pp = partial_product(args.level, lam, args.truncation)
        sf = sine_formula_su2(args.level, lam)
        gate1 = abs(res.value - pp) <= max(3 * res.stderr, 1e-12)
        gate2 = abs(res.value - sf) < 5e-3
        ok = ok and gate1 and gate2
        print(f"{lam},{res.value.real:.9e},{res.value.imag:.9e},"
              f"{res.stderr:.3e},{pp.real:.9e},{pp.imag:.9e},"
              f"{sf.real:.9e},{sf.imag:.9e},{gate1},{gate2}", file=buf)
    _emit(args.out, buf.getvalue())
    return 0 if ok else 2


def _cmd_affine(args) -> int:
    label = f"{args.family}{args.rank}"
    cfg = {"command": "affine", "type": args.family, "rank": args.rank,
           "level": args.level, "horizon": args.horizon, "seed": args.seed}
    rs = build_root_system(label)
    seq = build_periodic_sequence(rs, default_period(rs), args.horizon)
    table = exponent_table(rs, seq, args.level, args.horizon)
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    print("root,q,alpha,exponent", file=buf)
    for q, beta, e in table.zeta_rows:
        print(f"zeta,{q},\"{','.join(map(str, beta))}\",{e}", file=buf)
    for q, beta, e in table.eta_rows:
        print(f"eta,{q},\"{','.join(map(str, beta))}\",{e}", file=buf)
    for j, r in table.chi_rates:
        print(f"chi,{j},,{r}", file=buf)
    _emit(args.out, buf.getvalue())
    word = {"word": list(seq.prefix), "period_length": seq.period_length,
            "period_coroot": list(seq.period_coroot)}
    sys.stdout.write(json.dumps(word, sort_keys=True) + "\n")
    return 0


def _cmd_wiener(args) -> int:
    cfg = {"command": "wiener", "beta": args.beta, "steps": args.steps,
           "n": args.n, "band": args.band, "seed": args.seed,
           "reference_level": args.reference_level}
    wc = WienerConfig(beta=args.beta, steps=args.steps, n_samples=args.n,
                      seed=args.seed, band=args.band)
    rep = eta0_pushforward_experiment(wc, reference_level=args.reference_level)
    buf = io.StringIO()
    print(_header(cfg), file=buf)
    print("sample,eta0_re,eta0_im", file=buf)
    for i, v in enumerate(rep.eta0):
        print(f"{i},{v.real:.12e},{v.imag:.12e}", file=buf)
    _emit(args.out, buf.getvalue())
    summary = {"ks": rep.ks, "p": rep.pvalue, "n_effective": rep.n_effective,
               "failure_rate": rep.failure_rate}
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_invariance(args) -> int:
    spec = MeasureSpec.su2(args.level, args.truncation)
    if args.mode == "power":
        spec_b = MeasureSpec.su2(args.level_b, args.truncation)
        rep = invariance_experiment(spec, None, args.observable, args.n,
                                    seed=args.seed, spec_b=spec_b)
        ok = rep.pvalue < 0.01
    else:
        if args.mode == "identity":
            h = from_coeff_dict({0: np.eye(2)})
        else:
            c, s = np.cos(0.8), np.sin(0.8)
            h = from_coeff_dict({0: np.array([[c, s], [-s, c]])})
        rep = invariance_experiment(spec, h, args.observable, args.n,
                                    seed=args.seed)
        ok = rep.pvalue > 0.01
    summary = {"mode": args.mode, "ks": rep.ks, "p": rep.pvalue,
               "n_effective": rep.n_effective,
               "failure_rate": rep.failure_rate, "gate_pass": ok}
    _emit(args.out, json.dumps(summary, sort_keys=True) + "\n")
    return 0 if ok else 2


def _cmd_reparam(args) -> int:
    spec = MeasureSpec.su2(args.level, args.truncation)
    if args.mode == "identity":
        a, b = 1.0, 0.0
    elif args.mode == "rotation":
        a, b = np.exp(0.5j * args.phi), 0.0
    else:
        a, b = np.cosh(args.s), np.sinh(args.s)
    rep = reparam_invariance_experiment(spec, a, b, args.observable, args.n,
                                        seed=args.seed)
    if args.mode == "rotation":
        ok = rep.max_per_sample_diff < 1e-9
    elif args.mode == "identity":
        ok = rep.ks == 0.0
    else:
        ok = rep.pvalue > 0.01
    summary = {"mode": args.mode, "ks": rep.ks, "p": rep.pvalue,
               "n_effective": rep.n_effective,
               "failure_rate": rep.failure_rate,
               "max_per_sample_diff": rep.max_per_sample_diff,
               "gate_pass": ok}
    _emit(args.out, json.dumps(summary, sort_keys=True) + "\n")
    return 0 if ok else 2


_HANDLERS = {
    "sample": _cmd_sample,
    "identities": _cmd_identities,
    "roundtrip": _cmd_roundtrip,
    "diag": _cmd_diag,
    "affine": _cmd_affine,
    "wiener": _cmd_wiener,
    "invariance": _cmd_invariance,
    "reparam": _cmd_reparam,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except InvalidInput as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LooplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
