"""Command-line entry point: every experiment behind one reproducible CLI.

Exit codes: 0 success, 1 usage error, 2 "ran fine but a mathematics gate
failed".  All randomness derives from --seed (default: env LOOPLAB_SEED,
then 0), and identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .affine import (build_periodic_sequence, build_root_system,
                     default_period, exponent_table)
from .errors import InvalidInput, LooplabError
from .factorization import log_det_AstarA, toeplitz
from .loops import from_coeff_dict
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


class _Append(argparse.Action):
    """action="append" whose first use replaces the default list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest,
                (items if items is not self.default else []) + [values])


def _at_least(least: int):
    """The argparse type "integer >= least"."""
    def integer(text: str) -> int:
        n = int(text)       # a ValueError reads "invalid integer value"
        if n < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {n}")
        return n
    return integer


def _config(args) -> dict:
    """Every parsed argument but --out (and the handler): all that the output
    depends on."""
    return {k: v for k, v in vars(args).items() if k not in ("out", "handler")}


def _header(args) -> str:
    return f"# looplab {__version__} config={json.dumps(_config(args), sort_keys=True)}"


def _emit(args, lines) -> None:
    """Write the lines to --out, or to stdout without it."""
    text = "".join(f"{line}\n" for line in lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    p = _Parser(prog="looplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    count0, count1 = _at_least(0), _at_least(1)
    shared = {"level": float, "n": count1, "truncation": count1, "trials": count1}

    def command(name, handler, help, **defaults):
        """The subcommand with --seed, --out and the shared parameters given
        their defaults."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        # argparse passes a string default through the type, as if given
        sp.add_argument("--seed", type=count0,
                        default=os.environ.get("LOOPLAB_SEED", "0"))
        sp.add_argument("--out", default=None)
        for dest, default in defaults.items():
            sp.add_argument(f"--{dest}", type=shared[dest], default=default)
        return sp

    sp = command("sample", _cmd_sample, "draw product-measure coordinates",
                 level=0.0, truncation=16, n=10)
    sp.add_argument("--general", default=None, metavar="LABEL")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = command("identities", _cmd_identities, "Toeplitz determinant identities",
                 level=0.0, trials=20)
    sp.add_argument("--m", type=count0, default=64)

    sp = command("roundtrip", _cmd_roundtrip, "synthesize/recover round trip",
                 level=0.0, trials=20)
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = command("diag", _cmd_diag, "diagonal-distribution transform",
                 level=0.0, n=100000, truncation=512)
    sp.add_argument("--lambda", type=float, action=_Append, default=[1.0],
                    metavar="LAM")

    sp = command("affine", _cmd_affine, "exponent table and reduced word",
                 level=0.0)
    sp.add_argument("--type", default="A", metavar="FAMILY")
    sp.add_argument("--rank", type=count1, default=1)
    sp.add_argument("--horizon", type=count1, default=8)

    sp = command("wiener", _cmd_wiener, "Brownian loop eta0 pushforward", n=1000)
    sp.add_argument("--beta", type=float, default=0.05)
    sp.add_argument("--steps", type=_at_least(8), default=256)
    sp.add_argument("--band", type=count0, default=None)
    sp.add_argument("--reference-level", type=float, default=None,
                    help="use the exact sampler instead (harness self-test)")

    sp = command("invariance", _cmd_invariance, "left-translation invariance",
                 level=0.0, n=2000, truncation=16)
    sp.add_argument("--mode", choices=("identity", "translate", "power"),
                    default="translate")
    sp.add_argument("--level-b", type=float, default=2.0,
                    help="second level for the power control")
    sp.add_argument("--observable", default="a0")

    sp = command("reparam", _cmd_reparam, "Mobius reparameterization invariance",
                 level=0.0, n=2000, truncation=16)
    sp.add_argument("--mode", choices=("identity", "rotation", "hyperbolic"),
                    default="rotation")
    sp.add_argument("--phi", type=float, default=0.7,
                    help="rotation angle")
    sp.add_argument("--s", type=float, default=0.2,
                    help="hyperbolic parameter (b = sinh-like offset)")
    sp.add_argument("--observable", default="a0")
    return p


def _word_and_table(label: str, level, horizon: int, truncation: int):
    """The default-period reduced word of root system `label` up to
    `horizon`, and its exponent table up to `truncation`."""
    rs = build_root_system(label)
    seq = build_periodic_sequence(rs, default_period(rs), horizon)
    return seq, exponent_table(rs, seq, level, truncation)


_FAMILIES = ("eta", "chi", "zeta")


def _pairs(c) -> dict:
    """chi0's imaginary part and the [re, im] pairs of each coordinate family."""
    return {"chi0_im": complex(c.chi0).imag,
            **{k: [[v.real, v.imag] for v in getattr(c, k)] for k in _FAMILIES}}


def _cmd_sample(args) -> int:
    if args.general:
        _, table = _word_and_table(args.general, args.level,
                                   max(args.truncation, 2), args.truncation)
        spec = MeasureSpec.from_exponent_table(table, args.truncation)
    else:
        spec = MeasureSpec.su2(args.level, args.truncation)
    samples = [_pairs(sample_coords(spec, np.random.default_rng([args.seed, i])))
               for i in range(args.n)]
    if args.format == "json":
        _emit(args, [json.dumps({"config": _config(args), "samples": samples},
                                sort_keys=True)])
        return 0
    # eta is indexed from 0, chi and zeta from 1
    cols = ["sample", "chi0_im"] + [
        f"{k}{i}_{p}" for k, first in zip(_FAMILIES, (0, 1, 1))
        for i in range(first, first + spec.truncation) for p in ("re", "im")]
    rows = [[d["chi0_im"]] + [x for k in _FAMILIES for pair in d[k] for x in pair]
            for d in samples]
    _emit(args, [_header(args), ",".join(cols)] + [
        ",".join([str(i)] + [f"{v:.17g}" for v in row]) for i, row in enumerate(rows)])
    return 0


def _trial_draws(args):
    """(trial, coords, g): the --trials seeded sparse draws and their loops."""
    for trial in range(args.trials):
        coords = random_coords(np.random.default_rng([args.seed, trial]),
                               level=args.level)
        yield trial, coords, synthesize(coords)


def _cmd_identities(args) -> int:
    lines = [_header(args), "coord_seed,M,log_det_A,log_det_A1,"
             "product_formula_A,product_formula_A1,abs_error"]
    ok = True
    for trial, coords, g in _trial_draws(args):
        M = max(args.m, g.band_width)
        ld = log_det_AstarA(toeplitz(g, M, shifted=False))
        ld1 = log_det_AstarA(toeplitz(g, M, shifted=True))
        pf = log_product_formula(coords, "detA")
        pf1 = log_product_formula(coords, "detA1")
        err = max(abs(ld - pf), abs(ld1 - pf1))
        ok = ok and err < 1e-6
        lines.append(f"{trial},{M},{ld:.12e},{ld1:.12e},{pf:.12e},{pf1:.12e},"
                     f"{err:.3e}")
    _emit(args, lines)
    return 0 if ok else 2


def _cmd_roundtrip(args) -> int:
    if not 0 < args.tol < math.inf:
        raise InvalidInput(f"--tol must be a finite number > 0, got {args.tol}")
    errs = [coords_max_error(coords, recover_coords(g, l_hint=args.level))
            for _, coords, g in _trial_draws(args)]
    _emit(args, [_header(args), "trial,max_coord_error"]
          + [f"{trial},{err:.3e}" for trial, err in enumerate(errs)])
    return 0 if all(err < args.tol for err in errs) else 2


def _cmd_diag(args) -> int:
    lams = getattr(args, "lambda")
    spec = MeasureSpec.su2(args.level, args.truncation)
    lines = [_header(args), "lambda,mc_value_re,mc_value_im,stderr,"
             "partial_product_re,partial_product_im,sine_formula_re,"
             "sine_formula_im,within_3se,near_sine"]
    ok = True
    results = mc_diagonal_transform(spec, np.array(lams), args.n, seed=args.seed)
    for lam, res in zip(lams, results):
        pp = partial_product(args.level, lam, args.truncation)
        sf = sine_formula_su2(args.level, lam)
        gate1 = abs(res.value - pp) <= max(3 * res.stderr, 1e-12)
        gate2 = abs(res.value - sf) < 5e-3
        ok = ok and gate1 and gate2
        lines.append(f"{lam},{res.value.real:.9e},{res.value.imag:.9e},"
                     f"{res.stderr:.3e},{pp.real:.9e},{pp.imag:.9e},"
                     f"{sf.real:.9e},{sf.imag:.9e},{gate1},{gate2}")
    _emit(args, lines)
    return 0 if ok else 2


def _cmd_affine(args) -> int:
    seq, table = _word_and_table(f"{args.type}{args.rank}", args.level,
                                 args.horizon, args.horizon)
    _emit(args, [_header(args), "root,q,alpha,exponent"] + [
        f"{root},{q},\"{','.join(map(str, beta))}\",{e}"
        for root, rows in (("zeta", table.zeta_rows), ("eta", table.eta_rows))
        for q, beta, e in rows] + [f"chi,{j},,{r}" for j, r in table.chi_rates])
    print(json.dumps({"word": list(seq.prefix), "period_length": seq.period_length,
                      "period_coroot": list(seq.period_coroot)}, sort_keys=True))
    return 0


def _summary(rep, **extra) -> str:
    """The JSON summary line of an experiment report."""
    return json.dumps({"ks": rep.ks, "p": rep.pvalue, "n_effective": rep.n_effective,
                       "failure_rate": rep.failure_rate, **extra}, sort_keys=True)


def _cmd_wiener(args) -> int:
    wc = WienerConfig(beta=args.beta, steps=args.steps, n_samples=args.n,
                      seed=args.seed, band=args.band)
    rep = eta0_pushforward_experiment(wc, reference_level=args.reference_level)
    _emit(args, [_header(args), "sample,eta0_re,eta0_im"] + [
        f"{i},{v.real:.12e},{v.imag:.12e}" for i, v in enumerate(rep.eta0)])
    print(_summary(rep))
    return 0


def _gate(args, rep, ok: bool, **extra) -> int:
    """Write an invariance summary with its gate; exit 2 if the gate failed."""
    _emit(args, [_summary(rep, mode=args.mode, gate_pass=ok, **extra)])
    return 0 if ok else 2


def _cmd_invariance(args) -> int:
    spec = MeasureSpec.su2(args.level, args.truncation)
    if args.mode == "power":
        spec_b = MeasureSpec.su2(args.level_b, args.truncation)
        rep = invariance_experiment(spec, None, args.observable, args.n,
                                    seed=args.seed, spec_b=spec_b)
        return _gate(args, rep, rep.pvalue < 0.01)
    c, s = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.eye(2) if args.mode == "identity"
                         else np.array([[c, s], [-s, c]])})
    rep = invariance_experiment(spec, h, args.observable, args.n, seed=args.seed)
    return _gate(args, rep, rep.pvalue > 0.01)


def _cmd_reparam(args) -> int:
    spec = MeasureSpec.su2(args.level, args.truncation)
    # only the chosen mode's (a, b); a NaN or inf one is mobius_check's error
    with np.errstate(all="ignore"):
        if args.mode == "identity":
            a, b = 1.0, 0.0
        elif args.mode == "rotation":
            a, b = np.exp(0.5j * args.phi), 0.0
        else:
            a, b = np.cosh(args.s), np.sinh(args.s)
    rep = reparam_invariance_experiment(spec, a, b, args.observable, args.n,
                                        seed=args.seed)
    ok = {"identity": rep.ks == 0.0, "rotation": rep.max_per_sample_diff < 1e-9,
          "hyperbolic": rep.pvalue > 0.01}[args.mode]
    return _gate(args, rep, ok, max_per_sample_diff=rep.max_per_sample_diff)


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, InvalidInput) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LooplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
