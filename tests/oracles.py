"""Reference implementations the tests check the library against."""

import numpy as np

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
