"""Reference implementations the tests check the library against."""

import numpy as np

from looplab import wiener
from looplab.errors import ExperimentDegenerate, LooplabError
from looplab.loops import LaurentLoop


def evaluate_at(g: LaurentLoop, z: np.ndarray) -> np.ndarray:
    """Values of g at arbitrary points z (Horner in z and 1/z), shape
    z.shape + (dim, dim)."""
    z = np.asarray(z, dtype=complex)
    vals = np.zeros(z.shape + (g.dim, g.dim), dtype=complex)
    # positive part including 0, Horner from the top
    for n in range(g.n_max, -1, -1):
        vals *= z[..., None, None]
        vals += g.coeff(n)
    if g.n_min < 0:
        zi = 1.0 / z
        neg = np.zeros_like(vals)
        for n in range(g.n_min, 0):
            neg += g.coeff(n)
            if n < -1:
                neg *= zi[..., None, None]
        neg *= zi[..., None, None]
        vals += neg
    return vals


def raw_walk(cfg: wiener.WienerConfig, idx: int, attempt: int) -> np.ndarray:
    """The unpinned walk of sample idx at one attempt, multiplied one step
    at a time, shape (steps + 1, 2, 2)."""
    t = 1.0 / cfg.beta
    scale = np.sqrt(t / cfg.steps) / np.sqrt(2.0)
    rng = np.random.default_rng([int(cfg.seed), int(idx), attempt])
    incs = wiener._su2_exp(scale * rng.standard_normal((cfg.steps, 3)))
    walk = np.empty((cfg.steps + 1, 2, 2), dtype=complex)
    walk[0] = np.eye(2)
    for k in range(cfg.steps):
        walk[k + 1] = walk[k] @ incs[k]
    return walk


def pinned_walk(cfg: wiener.WienerConfig, idx: int):
    """Walk idx pinned by the geodesic correction, drawn on its own; returns
    (values, resamples)."""
    for attempt in range(64):
        walk = raw_walk(cfg, idx, attempt)
        try:
            v_end = wiener._su2_log_vector(walk[cfg.steps])
        except LooplabError:
            continue
        ks = np.arange(cfg.steps + 1) / cfg.steps
        corr = wiener._su2_exp(-ks[:, None] * v_end[None, :])
        return np.einsum("kab,kbc->kac", walk, corr), attempt
    raise ExperimentDegenerate("persistent branch-cut failures in the walk")
