"""Brownian loops on SU(2) and the invariance experiment harness.

The sampler runs a multiplicative Gaussian walk on the group, pins it into
a closed loop by a geodesic correction, and projects the grid samples onto
a band-limited Laurent loop.  The experiments report Kolmogorov-Smirnov
statistics.  The harness reads the draws it synthesized (the untranslated
stream, both power-control streams, g itself under an identity map) in
closed form from their coordinates (OBSERVABLES); h g, g o sigma^-1 and
walk loops by the Hardy read-outs of rootsub.  The eta_0 self-test's exact
stream keeps recover_eta0, as that pipeline is what it tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExperimentDegenerate, InvalidInput, LooplabError, check_count
from .loops import (LaurentLoop, fourier_project, mobius_check,
                    mobius_reparam, multiply)
from .measures import MeasureSpec, sample_coords
from .rootsub import OBSERVABLES, recover_eta0, synthesize

__all__ = [
    "WienerConfig",
    "eta0_pushforward_experiment",
    "invariance_experiment",
    "reparam_invariance_experiment",
    "Eta0Report",
    "InvarianceReport",
]

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# _su2_log_vector raises within this distance of the branch cut at -I
_BRANCH_TOL = 1e-6
# walks per stacked batch of the walk stream: 256 walks of 257 2x2 complex
# matrices at the default 256 steps, about 4 MB
_WALK_CHUNK = 256


@dataclass(frozen=True)
class WienerConfig:
    beta: float
    steps: int
    n_samples: int
    seed: int = 0
    band: int | None = None

    def __post_init__(self):
        if not self.beta > 0:    # NaN fails too
            raise InvalidInput("beta must be positive")
        check_count("steps", self.steps, 8)
        check_count("n_samples", self.n_samples, 1)
        check_count("seed", self.seed, 0)
        if self.band is not None:
            # fourier_project needs 2 band + 1 <= steps grid points
            check_count("band", self.band, 0)
            if self.band > (self.steps - 1) // 2:
                raise InvalidInput(f"band must be <= (steps - 1) // 2 = "
                                   f"{(self.steps - 1) // 2}, got {self.band}")

    @property
    def band_eff(self) -> int:
        return self.band if self.band is not None else (self.steps - 1) // 2


def _su2_exp(v: np.ndarray) -> np.ndarray:
    """exp(i v.sigma) for a real 3-vector (or batch of them)."""
    v = np.asarray(v, dtype=float)
    r = np.linalg.norm(v, axis=-1, keepdims=True)
    sinc = np.where(r > 1e-30, np.sin(r) / np.maximum(r, 1e-30), 1.0)
    c = np.cos(r)[..., 0]
    out = np.zeros(v.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = c + 1j * sinc[..., 0] * v[..., 2]
    out[..., 1, 1] = c - 1j * sinc[..., 0] * v[..., 2]
    out[..., 0, 1] = sinc[..., 0] * (1j * v[..., 0] + v[..., 1])
    out[..., 1, 0] = sinc[..., 0] * (1j * v[..., 0] - v[..., 1])
    return out


def _su2_log_vector(g: np.ndarray) -> np.ndarray:
    """Real 3-vector v with g = exp(i v.sigma); raises near the branch cut."""
    c = float(np.real(g[0, 0] + g[1, 1]) / 2.0)
    v = np.array([np.imag(g[0, 1] + g[1, 0]) / 2.0,
                  np.real(g[0, 1] - g[1, 0]) / 2.0,
                  np.imag(g[0, 0] - g[1, 1]) / 2.0])
    s = np.linalg.norm(v)
    if c < -1.0 + _BRANCH_TOL and s < _BRANCH_TOL:
        raise LooplabError("endpoint at the branch cut of the group logarithm")
    theta = float(np.arctan2(s, c))
    if s < 1e-300:
        return np.zeros(3)
    return theta * v / s


def _pinned_walks(cfg: WienerConfig, idx) -> np.ndarray:
    """Pinned walks for the sample indices idx, stacked: walk idx[j] at the
    steps + 1 grid points is values[j].  Sample j draws its increments once,
    from default_rng([seed, idx[j], 0]); the trailing 0 keeps the streams of
    earlier releases, which redrew a walk at [seed, idx[j], 1], ... when its
    endpoint hit the branch cut.  A walk whose endpoint is at the cut (about
    2e-19 per walk for a Haar endpoint) comes back as NaN.
    """
    t = 1.0 / cfg.beta
    scale = np.sqrt(t / cfg.steps) / np.sqrt(2.0)
    xi = scale * np.stack([
        np.random.default_rng([int(cfg.seed), int(i), 0])
        .standard_normal((cfg.steps, 3)) for i in idx])
    incs = _su2_exp(xi)
    values = np.empty((len(xi), cfg.steps + 1, 2, 2), dtype=complex)
    values[:, 0] = np.eye(2)
    for k in range(cfg.steps):
        np.matmul(values[:, k], incs[:, k], out=values[:, k + 1])
    v_end = np.full((len(xi), 3), np.nan)
    for j, end in enumerate(values[:, cfg.steps]):
        try:
            v_end[j] = _su2_log_vector(end)
        except LooplabError:
            pass
    ks = np.arange(cfg.steps + 1) / cfg.steps
    return np.einsum("skab,skbc->skac", values,
                     _su2_exp(-ks[None, :, None] * v_end[:, None, :]))


def _walk_loop(cfg: WienerConfig, pinned: np.ndarray) -> LaurentLoop:
    """The band-limited loop of one pinned walk of _pinned_walks.  The
    endpoint closure g(2 pi) = g(0) is exact by construction of the geodesic
    correction."""
    if np.isnan(pinned[-1]).any():
        raise ExperimentDegenerate("walk endpoint at the branch cut")
    closure = float(np.abs(pinned[-1] - pinned[0]).max())
    if closure > 1e-12:
        raise ExperimentDegenerate(f"loop failed to close: defect {closure:.1e}")
    B = cfg.band_eff
    return fourier_project(pinned[:-1], -B, B)


def _walk_stream(cfg: WienerConfig):
    """The pinned walks of the samples 0 .. n_samples - 1 in order, drawn
    _WALK_CHUNK at a time by _pinned_walks."""
    for start in range(0, cfg.n_samples, _WALK_CHUNK):
        yield from _pinned_walks(
            cfg, range(start, min(start + _WALK_CHUNK, cfg.n_samples)))


def _collect(n: int, draw):
    """The values of draw(i) for i < n, skipping draws that raise
    LooplabError, and the failure rate.  A caller's InvalidInput (and so
    InvalidLevel) propagates at once.  Raises ExperimentDegenerate when more
    than half of the draws fail."""
    vals, failures = [], 0
    for i in range(n):
        try:
            vals.append(draw(i))
        except InvalidInput:
            raise
        except LooplabError:
            failures += 1
    rate = failures / n
    if rate > 0.5:
        raise ExperimentDegenerate(f"sample failure rate {rate:.2f} > 0.5")
    return vals, rate


@dataclass(frozen=True)
class Eta0Report:
    ks: float
    pvalue: float
    n_effective: int
    failure_rate: float
    eta0: np.ndarray


def _ks_uniform(u):
    """kstest(u, "uniform") without scipy's argument wrapper: D = max(D+, D-)
    of the sorted u, read as scipy's _compute_d reads it (the uniform cdf is
    the identity on [0, 1]), and its exact p-value kstwo.sf(D, n), clipped
    to [0, 1]."""
    from scipy import stats     # 0.55-0.6 s and 40 MB to import, so only here
    u = np.sort(u)
    n = len(u)
    d_plus = np.max(np.arange(1.0, n + 1) / n - u)
    d_minus = np.max(u - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))


def eta0_pushforward_experiment(cfg: WienerConfig,
                                reference_level: float | None = None) -> Eta0Report:
    """Collect eta_0 over sampled loops and KS-test |eta0|^2/(1+|eta0|^2)
    against Uniform[0,1].

    With reference_level set, the loops come from the exact coordinate
    sampler at that level instead of the Brownian walk (harness self-test),
    and eta_0 is read from the converged Hardy solve.  The walk loops are
    read at the cutoff max(band, 16): a converged eta_0 of a rough walk loop
    needs M near 500.
    """
    if reference_level is not None:
        spec = MeasureSpec.su2(reference_level, truncation=12)
        master = np.random.default_rng([int(cfg.seed), 0xe7a])
        seeds = master.integers(0, 2 ** 62, size=cfg.n_samples)
    else:
        walks = _walk_stream(cfg)

    def draw(i):
        if reference_level is None:
            g = _walk_loop(cfg, next(walks))
            return recover_eta0(g, M=max(g.band_width, 16))
        g = synthesize(sample_coords(spec, np.random.default_rng(int(seeds[i]))))
        return recover_eta0(g)

    vals, rate = _collect(cfg.n_samples, draw)
    vals = np.asarray(vals)
    u = np.abs(vals) ** 2 / (1.0 + np.abs(vals) ** 2)
    ks, p = _ks_uniform(u)
    return Eta0Report(ks=ks, pvalue=p, n_effective=len(vals), failure_rate=rate,
                      eta0=vals)


@dataclass(frozen=True)
class InvarianceReport:
    ks: float
    pvalue: float
    n_effective: int
    failure_rate: float
    max_per_sample_diff: float


def _ks_two_sample(a, b):
    """Two-sample KS statistic D = h/n of two samples of equal size n and its
    p-value, as scipy's ks_2samp gives them: exact up to n = 10000 and
    asymptotic above.  h is the largest gap between the samples' counts of
    values <= x over the pooled x.  For h <= 1 the p-value is 1 exactly (two
    samples with no common value always reach h = 1).  Above, P(D >= h/n) is
    Hodges' alternating sum (Ark. Mat. 3, 1958) in scipy's Horner form and
    order, clipped to [0, 1]: for small h it can exceed 1 by an ulp, where
    scipy warns and takes the asymptotic value instead."""
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    pooled = np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, pooled, side="right")
                   - np.searchsorted(b, pooled, side="right")).max())
    if h <= 1:
        return h / n, 1.0
    if n > 10000:
        from scipy import stats     # on first use, as in _ks_uniform
        res = stats.ks_2samp(a, b, method="asymp")
        return float(res.statistic), float(res.pvalue)
    p = 0.0
    for k in range(n // h, -1, -1):
        q = 1.0
        for j in range(h):
            q = (n - k * h - j) * q / (n + k * h + j + 1)
        p = q * (1.0 - p)
    return h / n, min(max(2 * p, 0.0), 1.0)


def _check_su2_spec(name: str, spec) -> None:
    """The harness synthesizes SU(2) loops from the coordinates it draws."""
    if not isinstance(spec, MeasureSpec) or spec.source != "su2":
        raise InvalidInput(f"{name} must be an su2 MeasureSpec, got "
                           f"{getattr(spec, 'source', type(spec).__name__)}")


def _paired_experiment(spec: MeasureSpec, observable: str, n: int, seed: int,
                       loop=None, coords=None) -> InvarianceReport:
    """Common harness: observable law of g = synthesize(c), c drawn from
    spec, against that of a second stream at the draw's index i: the loop
    loop(g, i) (h g, g o sigma^-1), read by the Hardy solve as its
    coordinates are unknown, or else the coordinates coords(c, i), read in
    closed form (the power control's draw, or c under an identity map).
    g is read in closed form from c.  Every draw is synthesized, as
    synthesis decides whether it enters.  The eta_0 self-test keeps its
    Hardy read-out of exact draws, which it tests."""
    _check_su2_spec("spec", spec)
    if observable not in OBSERVABLES:
        raise InvalidInput(f"unknown observable {observable!r}")
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    read, closed = OBSERVABLES[observable]

    def draw(i):
        c = sample_coords(spec, np.random.default_rng([int(seed), i]))
        g = synthesize(c)
        return closed(c), read(loop(g, i)) if loop else closed(coords(c, i))

    pairs, rate = _collect(n, draw)
    ks, p = _ks_two_sample(*zip(*pairs))
    diff = max(abs(va - vb) for va, vb in pairs)
    return InvarianceReport(ks=ks, pvalue=p, n_effective=len(pairs),
                            failure_rate=rate, max_per_sample_diff=float(diff))


def invariance_experiment(spec: MeasureSpec, h: LaurentLoop | None,
                          observable: str, n: int, seed: int = 0,
                          spec_b: MeasureSpec | None = None) -> InvarianceReport:
    """Left-translation invariance check: observable law of g vs h*g.

    Passing spec_b (and h=None) runs the power control instead: stream two
    is sampled from the second measure and must be distinguishable.
    """
    if spec_b is not None and h is not None:
        raise InvalidInput("pass a translating loop h or spec_b, not both")
    if spec_b is not None:
        _check_su2_spec("spec_b", spec_b)

        def coords(c, i):
            cb = sample_coords(spec_b, np.random.default_rng([int(seed), i, 1]))
            synthesize(cb)   # unread: synthesis decides whether the draw enters
            return cb
        return _paired_experiment(spec, observable, n, seed, coords=coords)
    if h is None:
        raise InvalidInput("need a translating loop h (or spec_b)")
    if not isinstance(h, LaurentLoop):
        raise InvalidInput(f"h must be a LaurentLoop, got {type(h).__name__}")
    if h.dim != 2:
        raise InvalidInput(f"h must be a 2x2 loop, got dim {h.dim}")
    if h.band_width == 0 and np.array_equal(h.coeffs[0], np.eye(2)):
        # I g = g, whose coordinates are c
        return _paired_experiment(spec, observable, n, seed, coords=lambda c, i: c)
    # exact: no truncation, the product band is the sum of the factors'
    return _paired_experiment(spec, observable, n, seed,
                              loop=lambda g, i: multiply(h, g))


def reparam_invariance_experiment(spec: MeasureSpec, a: complex, b: complex,
                                  observable: str, n: int,
                                  seed: int = 0) -> InvarianceReport:
    """Mobius reparameterization invariance check: law of g vs g o sigma^-1."""
    mobius_check(a, b)
    if b == 0 and np.imag(a) == 0:
        # sigma = id: g o sigma^-1 = g, whose coordinates are c
        return _paired_experiment(spec, observable, n, seed, coords=lambda c, i: c)
    return _paired_experiment(spec, observable, n, seed, loop=lambda g, i:
                              mobius_reparam(g, a, b, band_out=g.band_width))
