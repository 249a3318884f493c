"""Reference implementations the tests check the library against."""

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular

from looplab import wiener
from looplab.errors import LooplabError
from looplab.factorization import hardy_columns, toeplitz
from looplab.loops import LaurentLoop, default_grid_size, evaluate


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


def birkhoff_g_plus(g: LaurentLoop, M: int) -> LaurentLoop:
    """g_plus of the splitting at cutoff M as the inverse of the series
    s = h g0, h the Hardy series of g and g0 = h_0^-1: one block
    lower-triangular Toeplitz solve of a second section, cut at M modes."""
    d = g.dim
    X = hardy_columns(g, M)[0]
    S = toeplitz(LaurentLoop(d, 0, M, X @ np.linalg.inv(X[0])), M).matrix
    gp = solve_triangular(S, np.eye(S.shape[0], d), lower=True,
                          unit_diagonal=True)
    return LaurentLoop(d, 0, M, gp.reshape(M + 1, d, d))


def product_residual(g, g_minus, g0, g_plus) -> float:
    """max over the grid of |g_minus g0 g_plus - g|, each loop evaluated on
    its own."""
    n_grid = default_grid_size(max(g.band_width, g_minus.band_width,
                                   g_plus.band_width))
    vals = evaluate(g_minus, n_grid) @ g0 @ evaluate(g_plus, n_grid)
    return float(np.abs(vals - evaluate(g, n_grid)).max())


def raw_walk(cfg: wiener.WienerConfig, idx: int) -> np.ndarray:
    """The unpinned walk of sample idx, multiplied one step at a time, shape
    (steps + 1, 2, 2)."""
    t = 1.0 / cfg.beta
    scale = np.sqrt(t / cfg.steps) / np.sqrt(2.0)
    rng = np.random.default_rng([int(cfg.seed), int(idx), 0])
    incs = wiener._su2_exp(scale * rng.standard_normal((cfg.steps, 3)))
    walk = np.empty((cfg.steps + 1, 2, 2), dtype=complex)
    walk[0] = np.eye(2)
    for k in range(cfg.steps):
        walk[k + 1] = walk[k] @ incs[k]
    return walk


def su2_log_vector(g: np.ndarray) -> np.ndarray:
    """Real 3-vector v with g = exp(i v.sigma) for one SU(2) matrix g, by
    the arc tangent of its half trace; raises LooplabError within
    wiener._BRANCH_TOL of the branch cut at -I."""
    c = float(np.real(g[0, 0] + g[1, 1]) / 2.0)
    v = np.array([np.imag(g[0, 1] + g[1, 0]) / 2.0,
                  np.real(g[0, 1] - g[1, 0]) / 2.0,
                  np.imag(g[0, 0] - g[1, 1]) / 2.0])
    s = np.linalg.norm(v)
    if c < -1.0 + wiener._BRANCH_TOL and s < wiener._BRANCH_TOL:
        raise LooplabError("endpoint at the branch cut of the group logarithm")
    theta = float(np.arctan2(s, c))
    if s < 1e-300:
        return np.zeros(3)
    return theta * v / s


def pinned_walk(cfg: wiener.WienerConfig, idx: int) -> np.ndarray:
    """Walk idx pinned by the geodesic correction, drawn on its own."""
    walk = raw_walk(cfg, idx)
    v_end = su2_log_vector(walk[cfg.steps])
    ks = np.arange(cfg.steps + 1) / cfg.steps
    corr = wiener._su2_exp(-ks[:, None] * v_end[None, :])
    return np.einsum("kab,kbc->kac", walk, corr)


def ks_two_sample(a, b):
    """Two-sample KS statistic and p-value of two samples of equal size n by
    scipy's ks_2samp: exact up to n = 10000, asymptotic above; for h = D n
    <= 1 the p-value is 1.  scipy warns (RuntimeWarning) where its exact
    p-value leaves [0, 1] and returns the asymptotic one instead."""
    n = len(a)
    res = stats.ks_2samp(a, b, method="asymp")
    h = round(res.statistic * n)
    if h <= 1:
        return h / n, 1.0
    if n <= 10000:
        res = stats.ks_2samp(a, b, method="exact")
    return float(res.statistic), float(res.pvalue)
