"""Traced mode: spans around looplab's public functions and its numpy calls.

``Tracer.install()`` replaces every public function (``__all__``) of the
layer modules but NOT_WRAPPED, wherever looplab holds a reference to it, and
``numpy.linalg.solve``, ``numpy.linalg.svd`` and the ``numpy.fft``
transforms, by wrappers that record a span (name, start, end, parent) and a
few counts.  ``uninstall()`` puts the originals back.  Spans stay in memory
until ``write()``; ``per_layer_metrics()`` derives the per-layer figures,
where ``ms`` is self time: a span's duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("loops", "factorization", "rootsub", "measures", "transforms", "wiener")
NUMPY_FFT = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
             "rfftn", "irfftn", "hfft", "ihfft")
# scalar helpers called 2e5 times per item from a Python loop: a span each
# doubled the item's time and took 1.3 GB; their time stays in the caller's
NOT_WRAPPED = ("transforms.marginal_factor",)


def _mode_products(g, h) -> int:
    """Block products loops.multiply makes: the nonzero modes of the sparser
    factor times all modes of the other one."""
    nz_g = int((g.coeffs != 0).reshape(g.coeffs.shape[0], -1).any(axis=1).sum())
    nz_h = int((h.coeffs != 0).reshape(h.coeffs.shape[0], -1).any(axis=1).sum())
    if nz_h <= nz_g:
        return nz_h * g.coeffs.shape[0]
    return nz_g * h.coeffs.shape[0]


def _solve_flops3(a, b) -> int:
    """3 x (2/3 n^3 + 2 n^2 k) for a solve with an n x n matrix and k right-hand
    sides (kept in thirds so that the count stays an integer)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    k = b.shape[-1] if b.ndim == a.ndim else 1
    return batch * (2 * n ** 3 + 6 * n * n * k)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.items: list = []     # item index of each span
        self._stack: list = []
        self._item = -1
        self.counts: Counter = Counter()    # (span name, counter) -> int
        self.maxima: dict = {}
        self._patched: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(self._item)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def item(self, i: int, fn, *args):
        """Run fn(*args) as item i, under a root span named 'item'."""
        self._item = i
        idx = self._open("item")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._item = -1

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                # outside any item: the benchmark's own calibration
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[(name, "raised:" + type(exc).__name__)] += 1
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- per-function counters -------------------------------------------------

    @staticmethod
    def _count_mode_products(tr, args, kwargs):
        g = args[0] if args else kwargs["g"]
        h = args[1] if len(args) > 1 else kwargs["h"]
        tr.counts[("loops.multiply", "mode_products")] += _mode_products(g, h)

    @staticmethod
    def _count_solve_flops(tr, args, kwargs):
        a = args[0] if args else kwargs["a"]
        b = args[1] if len(args) > 1 else kwargs["b"]
        tr.counts[("numpy.linalg.solve", "flops3")] += _solve_flops3(a, b)

    @staticmethod
    def _max_toeplitz_dim(tr, out):
        key = ("factorization.toeplitz", "max_dim")
        tr.maxima[key] = max(tr.maxima.get(key, 0), int(out.matrix.shape[0]))

    @staticmethod
    def _count_nonzero_coords(tr, out):
        nz = sum(int(np.count_nonzero(getattr(out, f))) for f in ("eta", "chi", "zeta"))
        tr.counts[("rootsub.recover_coords", "nonzero_coords")] += nz

    @staticmethod
    def _count_resamples(tr, out):
        tr.counts[("wiener.sample_brownian_loop", "resamples")] += int(out[1])

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        import looplab
        hooks = {
            "loops.multiply": (self._count_mode_products, None),
            "factorization.toeplitz": (None, self._max_toeplitz_dim),
            "rootsub.recover_coords": (None, self._count_nonzero_coords),
            "wiener.sample_brownian_loop": (None, self._count_resamples),
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module("looplab." + layer)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if isinstance(fn, types.FunctionType) and name not in NOT_WRAPPED:
                    wrapped[fn] = self._wrap(name, fn, *hooks.get(name, (None, None)))
        # looplab modules import each other's functions by name, so every
        # module's reference is replaced, not only the defining one
        holders = [looplab] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("looplab.") and m is not None]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    self._patch(mod, attr, wrapped[val])
        self._patch(np.linalg, "solve",
                    self._wrap("numpy.linalg.solve", np.linalg.solve,
                               self._count_solve_flops))
        self._patch(np.linalg, "svd", self._wrap("numpy.linalg.svd", np.linalg.svd))
        for attr in NUMPY_FFT:
            self._patch(np.fft, attr, self._wrap("numpy.fft", getattr(np.fft, attr)))

    def _patch(self, mod, attr, new) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._patched):
            setattr(mod, attr, old)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def _by_name(self):
        """calls and self time (ns) per span name."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_ns = Counter(), Counter()
        for i in range(n):
            calls[self.names[i]] += 1
            self_ns[self.names[i]] += dur[i] - child[i]
        return calls, self_ns

    def per_layer_metrics(self, n_items: int) -> dict:
        calls, self_ns = self._by_name()
        c = self.counts

        def ms(name):
            return self_ns[name] / 1e6 / n_items

        def per_item(count):
            return count / n_items

        torus_calls = calls["rootsub.torus_loop"]
        torus_rejected = c[("rootsub.torus_loop", "raised:ConvergenceFailure")]
        m = {
            "loops.multiply.calls_per_item": per_item(calls["loops.multiply"]),
            "loops.multiply.ms_per_item": ms("loops.multiply"),
            "loops.multiply.mode_products_per_item":
                per_item(c[("loops.multiply", "mode_products")]),
            "loops.evaluate.ms_per_item": ms("loops.evaluate"),
            "loops.fourier_project.ms_per_item": ms("loops.fourier_project"),
            "loops.mobius_reparam.ms_per_item": ms("loops.mobius_reparam"),
            "factorization.toeplitz.ms_per_item": ms("factorization.toeplitz"),
            "factorization.toeplitz.max_dim":
                self.maxima.get(("factorization.toeplitz", "max_dim"), 0),
            "factorization.log_det_AstarA.ms_per_item": ms("factorization.log_det_AstarA"),
            "factorization.birkhoff_factor.ms_per_item": ms("factorization.birkhoff_factor"),
            "factorization.triangular_factor.ms_per_item":
                ms("factorization.triangular_factor"),
            "factorization.a0_from_dets.ms_per_item": ms("factorization.a0_from_dets"),
            "rootsub.synthesize.calls_per_item": per_item(calls["rootsub.synthesize"]),
            "rootsub.synthesize.ms_per_item": ms("rootsub.synthesize"),
            "rootsub.torus_loop.calls_per_item": per_item(torus_calls),
            "rootsub.torus_loop.rejected_per_item": per_item(torus_rejected),
            # 0 when the workload makes no torus_loop call
            "rootsub.torus_loop.accept_ratio":
                (torus_calls - torus_rejected) / torus_calls if torus_calls else 0.0,
            "rootsub.k1_synthesize.ms_per_item": ms("rootsub.k1_synthesize"),
            "rootsub.k2_synthesize.ms_per_item": ms("rootsub.k2_synthesize"),
            "rootsub.recover_coords.ms_per_item": ms("rootsub.recover_coords"),
            "rootsub.recover_coords.nonzero_coords_per_item":
                per_item(c[("rootsub.recover_coords", "nonzero_coords")]),
            "rootsub.recover_eta0.ms_per_item": ms("rootsub.recover_eta0"),
            "measures.sample_coords.ms_per_item": ms("measures.sample_coords"),
            "measures.hellinger_vs_gaussian.ms_per_item":
                ms("measures.hellinger_vs_gaussian"),
            "transforms.mc_diagonal_transform.ms_per_item":
                ms("transforms.mc_diagonal_transform"),
            "transforms.finite_hc_check.ms_per_item": ms("transforms.finite_hc_check"),
            "transforms.partial_product.ms_per_item": ms("transforms.partial_product"),
            "wiener.sample_brownian_loop.ms_per_item": ms("wiener.sample_brownian_loop"),
            "wiener.sample_brownian_loop.resamples_per_item":
                per_item(c[("wiener.sample_brownian_loop", "resamples")]),
            "wiener.eta0_pushforward_experiment.ms_per_item":
                ms("wiener.eta0_pushforward_experiment"),
            "wiener.invariance_experiment.ms_per_item": ms("wiener.invariance_experiment"),
            "wiener.reparam_invariance_experiment.ms_per_item":
                ms("wiener.reparam_invariance_experiment"),
            "numpy.linalg.solve.calls_per_item": per_item(calls["numpy.linalg.solve"]),
            "numpy.linalg.solve.ms_per_item": ms("numpy.linalg.solve"),
            # computed from the matrix shapes, not measured
            "numpy.linalg.solve.flops_per_item":
                c[("numpy.linalg.solve", "flops3")] / 3 / n_items,
            "numpy.linalg.svd.ms_per_item": ms("numpy.linalg.svd"),
            "numpy.fft.ms_per_item": ms("numpy.fft"),
        }
        return m

    def write(self, path: str, summary: dict) -> None:
        """Spans as parallel arrays (times in ns from the first span), plus
        per-name totals and the run summary."""
        calls, self_ns = self._by_name()
        names = sorted(set(self.names))
        ids = {n: k for k, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        doc = {
            "summary": summary,
            "span_names": names,
            "spans": {
                "name": [ids[n] for n in self.names],
                "start_ns": [s - t0 for s in self.starts],
                "end_ns": [e - t0 for e in self.ends],
                "parent": self.parents,
                "item": self.items,
            },
            "totals": {n: {"calls": calls[n], "self_ms": self_ns[n] / 1e6} for n in names},
            "counts": {f"{k[0]}:{k[1]}": v for k, v in sorted(self.counts.items())},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
