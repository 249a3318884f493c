"""Brownian loops on SU(2) and the invariance experiment harness.

The sampler runs a multiplicative Gaussian walk on the group, pins it into
a closed loop by a geodesic correction, and projects the grid samples onto
a band-limited Laurent loop.  The experiments push loops (or exact
coordinate samples) through factorization observables and report
Kolmogorov-Smirnov statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ExperimentDegenerate, InvalidInput, LooplabError
from .factorization import _hardy_kappa_columns, _solve_hardy_columns, ldu_2x2
from .loops import LaurentLoop, fourier_project, mobius_reparam, multiply
from .measures import MeasureSpec, sample_coords
from .rootsub import recover_eta0, synthesize

__all__ = [
    "WienerConfig",
    "sample_brownian_loop",
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


@dataclass(frozen=True)
class WienerConfig:
    beta: float
    steps: int
    n_samples: int
    seed: int = 0
    band: int | None = None

    def __post_init__(self):
        if self.beta <= 0:
            raise InvalidInput("beta must be positive")
        if self.steps < 8:
            raise InvalidInput("steps must be >= 8")
        if self.n_samples < 1:
            raise InvalidInput("n_samples must be >= 1")

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


def _su2_log_vector(g: np.ndarray, branch_tol: float = 1e-6) -> np.ndarray:
    """Real 3-vector v with g = exp(i v.sigma); raises near the branch cut."""
    c = float(np.real(g[0, 0] + g[1, 1]) / 2.0)
    v = np.array([np.imag(g[0, 1] + g[1, 0]) / 2.0,
                  np.real(g[0, 1] - g[1, 0]) / 2.0,
                  np.imag(g[0, 0] - g[1, 1]) / 2.0])
    s = np.linalg.norm(v)
    if c < -1.0 + branch_tol and s < branch_tol:
        raise LooplabError("endpoint at the branch cut of the group logarithm")
    theta = float(np.arctan2(s, c))
    if s < 1e-300:
        return np.zeros(3)
    return theta * v / s


def _pinned_walk(cfg: WienerConfig, idx: int):
    """Pinned walk samples at the grid points; returns (values, resamples)."""
    t = 1.0 / cfg.beta
    scale = np.sqrt(t / cfg.steps) / np.sqrt(2.0)
    resamples = 0
    for attempt in range(64):
        rng = np.random.default_rng([int(cfg.seed), int(idx), attempt])
        xi = scale * rng.standard_normal((cfg.steps, 3))
        incs = _su2_exp(xi)
        walk = np.empty((cfg.steps + 1, 2, 2), dtype=complex)
        walk[0] = np.eye(2)
        for k in range(cfg.steps):
            walk[k + 1] = walk[k] @ incs[k]
        try:
            v_end = _su2_log_vector(walk[cfg.steps])
        except LooplabError:
            resamples += 1
            continue
        ks = np.arange(cfg.steps + 1) / cfg.steps
        corr = _su2_exp(-ks[:, None] * v_end[None, :])
        pinned = np.einsum("kab,kbc->kac", walk, corr)
        return pinned, resamples
    raise ExperimentDegenerate("persistent branch-cut failures in the walk")


def sample_brownian_loop(cfg: WienerConfig, idx: int = 0):
    """One pinned Brownian loop as a band-limited LaurentLoop.

    Returns (loop, n_resamples).  The endpoint closure g(2 pi) = g(0) is
    exact by construction of the geodesic correction.
    """
    pinned, resamples = _pinned_walk(cfg, idx)
    closure = float(np.abs(pinned[-1] - pinned[0]).max())
    if closure > 1e-12:
        raise ExperimentDegenerate(f"loop failed to close: defect {closure:.1e}")
    B = cfg.band_eff
    loop = fourier_project(pinned[:-1], -B, B)
    return loop, resamples


@dataclass(frozen=True)
class Eta0Report:
    ks: float
    pvalue: float
    n_effective: int
    failure_rate: float
    eta0: np.ndarray


def eta0_pushforward_experiment(cfg: WienerConfig,
                                reference_level: float | None = None) -> Eta0Report:
    """Collect eta_0 over sampled loops and KS-test |eta0|^2/(1+|eta0|^2)
    against Uniform[0,1].

    With reference_level set, the loops come from the exact coordinate
    sampler at that level instead of the Brownian walk (harness self-test).
    """
    vals = []
    failures = 0
    M = max(cfg.band_eff, 16)
    if reference_level is not None:
        spec = MeasureSpec.su2(reference_level, truncation=12)
        master = np.random.default_rng([int(cfg.seed), 0xe7a])
        seeds = master.integers(0, 2 ** 62, size=cfg.n_samples)
    for i in range(cfg.n_samples):
        try:
            if reference_level is not None:
                coords = sample_coords(spec, np.random.default_rng(int(seeds[i])))
                g = synthesize(coords)
                eta0 = recover_eta0(g, M=max(g.band_width, 16))
            else:
                g, _ = sample_brownian_loop(cfg, i)
                eta0 = recover_eta0(g, M=M)
        except LooplabError:
            failures += 1
            continue
        vals.append(eta0)
    n_eff = len(vals)
    rate = failures / cfg.n_samples
    if rate > 0.5:
        raise ExperimentDegenerate(f"recovery failure rate {rate:.2f} > 0.5")
    vals = np.asarray(vals)
    u = np.abs(vals) ** 2 / (1.0 + np.abs(vals) ** 2)
    ks = stats.kstest(u, "uniform")
    return Eta0Report(ks=float(ks.statistic), pvalue=float(ks.pvalue),
                      n_effective=n_eff, failure_rate=rate, eta0=vals)


def _observable_a0(g: LaurentLoop, M: int) -> float:
    """a0 through the constant Riemann-Hilbert block (cheapest exact route)."""
    X = _solve_hardy_columns(g, M)
    g0 = np.linalg.inv(X[0])
    g0 = g0 / np.sqrt(complex(np.linalg.det(g0)))
    _, _, adiag, _ = ldu_2x2(g0)
    return float(adiag[0, 0].real)


_OBSERVABLES = ("a0", "abs_eta0", "abs_zeta1")


def _observable(g: LaurentLoop, name: str, M: int) -> float:
    if name == "a0":
        return _observable_a0(g, M)
    if name == "abs_eta0":
        return abs(recover_eta0(g, M=M))
    if name == "abs_zeta1":
        w = _hardy_kappa_columns(g, M)
        return float(abs(w[1, 1] / w[0, 0]))
    raise InvalidInput(f"unknown observable {name!r}")


@dataclass(frozen=True)
class InvarianceReport:
    ks: float
    pvalue: float
    n_effective: int
    failure_rate: float
    max_per_sample_diff: float


def _paired_experiment(spec: MeasureSpec, transform, observable: str, n: int,
                       seed: int, spec_b: MeasureSpec | None = None):
    """Common harness: observable distribution of {g} vs {transform(g)}.

    With spec_b set, the second stream is instead sampled from spec_b and
    left untransformed (the deliberately-broken power control).
    """
    if observable not in _OBSERVABLES:
        raise InvalidInput(f"unknown observable {observable!r}")
    if n < 1:
        raise InvalidInput("need at least one sample")
    obs_a, obs_b = [], []
    failures = 0
    diff = 0.0
    for i in range(n):
        rng = np.random.default_rng([int(seed), i])
        try:
            g = synthesize(sample_coords(spec, rng))
            M = g.band_width + 4
            va = _observable(g, observable, M)
            if spec_b is not None:
                rng_b = np.random.default_rng([int(seed), i, 1])
                h = synthesize(sample_coords(spec_b, rng_b))
                vb = _observable(h, observable, h.band_width + 4)
            else:
                g2 = transform(g)
                vb = _observable(g2, observable, g2.band_width + 4)
        except LooplabError:
            failures += 1
            continue
        obs_a.append(va)
        obs_b.append(vb)
        diff = max(diff, abs(va - vb))
    rate = failures / n
    if rate > 0.5:
        raise ExperimentDegenerate(f"factorization failure rate {rate:.2f} > 0.5")
    if np.array_equal(obs_a, obs_b):
        ks, p = 0.0, 1.0
    else:
        res = stats.ks_2samp(obs_a, obs_b)
        ks, p = float(res.statistic), float(res.pvalue)
    return InvarianceReport(ks=ks, pvalue=p, n_effective=len(obs_a),
                            failure_rate=rate, max_per_sample_diff=diff)


def invariance_experiment(spec: MeasureSpec, h: LaurentLoop | None,
                          observable: str, n: int, seed: int = 0,
                          spec_b: MeasureSpec | None = None) -> InvarianceReport:
    """Left-translation invariance check: observable law of g vs h*g.

    Passing spec_b (and h=None) runs the power control instead: stream two
    is sampled from the second measure and must be distinguishable.
    """
    def transform(g):
        # exact: no truncation, the product band is the sum of the factors'
        return multiply(h, g)

    if spec_b is not None:
        return _paired_experiment(spec, None, observable, n, seed, spec_b=spec_b)
    if h is None:
        raise InvalidInput("need a translating loop h (or spec_b)")
    return _paired_experiment(spec, transform, observable, n, seed)


def reparam_invariance_experiment(spec: MeasureSpec, a: complex, b: complex,
                                  observable: str, n: int,
                                  seed: int = 0) -> InvarianceReport:
    """Mobius reparameterization invariance check: law of g vs g o sigma^-1."""
    def transform(g):
        return mobius_reparam(g, a, b, band_out=g.band_width)

    return _paired_experiment(spec, transform, observable, n, seed)
