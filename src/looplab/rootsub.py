"""SU(2) root subgroup coordinates (eta, chi, zeta) on loops.

Synthesis builds the unitary loop g = k1^* . exp(chi) . k2 from finitely
supported coordinate sequences; recovery peels the coordinates back off a
loop from the Hardy columns of g and star(g), which
factorization.hardy_columns solves on one LU, by sparse factor stripping;
the product formulas give the closed-form truncated Toeplitz determinants.
OBSERVABLES pair each observable of the invariance experiments' Hardy
read-out with its closed form in the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, NotInTopStratum, check_level
from .factorization import hardy_columns
from .loops import LaurentLoop, default_grid_size, evaluate, star

__all__ = [
    "RootCoordsSU2",
    "synthesize",
    "product_formula",
    "log_product_formula",
    "recover_coords",
    "recover_eta0",
    "coords_max_error",
]

# recover_coords' floor on recovered coordinates
_NOISE_FLOOR = 1e-9
# synthesize keeps the modes of its loop above this modulus
_COEFF_FLOOR = 1e-14
# largest grid synthesize evaluates a loop on
_MAX_GRID = 1 << 20


@dataclass(frozen=True)
class RootCoordsSU2:
    """Coordinates (eta_i)_{i>=0}, chi_0, (chi_j)_{j>=1}, (zeta_k)_{k>=1}.

    Arrays are finitely supported truncations: eta[i] is eta_i, chi[j-1] is
    chi_j, zeta[k-1] is zeta_k.  chi0 is purely imaginary.
    """

    level: float
    eta: np.ndarray
    chi0: complex
    chi: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        check_level(self.level)
        try:
            chi0 = complex(self.chi0)
            arrays = [np.asarray(getattr(self, name), dtype=complex)
                      for name in ("eta", "chi", "zeta")]
        except (TypeError, ValueError):
            raise InvalidInput("coordinates must be complex numbers") from None
        if any(arr.ndim != 1 for arr in arrays):
            raise InvalidInput("eta, chi and zeta must be 1-D arrays")
        if abs(chi0.real) > 1e-12:
            raise InvalidInput("chi0 must be purely imaginary")
        for name, arr in zip(("eta", "chi", "zeta"), arrays):
            object.__setattr__(self, name, arr)
        if not np.isfinite(np.concatenate([[chi0], *arrays])).all():
            raise InvalidInput("coordinates must be finite")


def chi_values(chi0: complex, chi, n_grid: int) -> np.ndarray:
    """chi(theta) = chi0 + sum_j (chi_j e^{ij theta} - conj(chi_j) e^{-ij theta})
    at theta_k = 2 pi k / n_grid, k = 0..n_grid-1, by one inverse FFT."""
    chi = np.asarray(chi, dtype=complex)
    c = np.concatenate([-np.conj(chi[::-1]), [chi0], chi]).reshape(-1, 1, 1)
    return evaluate(LaurentLoop(1, -len(chi), len(chi), c), n_grid)[:, 0, 0]


def _synth_values(coords: RootCoordsSU2, n_grid: int) -> np.ndarray:
    """V[r, c, k] = (star(k1) diag(e^chi, e^-chi) k2)(z_k)[r, c] at the n_grid
    roots of unity z_k.  Each factor a [[1, q], [p, 1]] is applied in closed
    form as the column update V -> V [[1, q], [p, 1]]; the scalars a are
    applied once, as one product."""
    eta, zeta = coords.eta, coords.zeta
    # z_k^n = w[n k mod N] and z_k^-n = w[-(n k mod N)]: gathers from one table
    k = np.arange(n_grid)
    w = np.exp(2j * np.pi * k / n_grid)
    V = np.repeat(np.eye(2, dtype=complex)[:, :, None], n_grid, axis=2)
    c0, c1, buf = V[:, 0], V[:, 1], np.empty((2, n_grid), dtype=complex)

    def update(p, q):
        np.multiply(c0, q, out=buf)
        c0[...] += p * c1
        c1[...] += buf

    # star(k1) = F_0^* F_1^* ...,  F_n^* = a [[1, conj(eta) z^n], [-eta z^-n, 1]]
    for n in np.flatnonzero(eta):
        idx = n * k % n_grid
        update(-eta[n] * w[-idx], np.conj(eta[n]) * w[idx])
    scale = np.prod(1.0 / np.sqrt(1.0 + np.abs(np.concatenate([eta, zeta])) ** 2))
    ex = np.exp(chi_values(coords.chi0, coords.chi, n_grid))
    c0 *= scale * ex
    c1 *= scale / ex
    # k2 = ... G_2 G_1,  G_k = a [[1, zeta z^-k], [-conj(zeta) z^k, 1]]
    for n in np.flatnonzero(zeta)[::-1] + 1:
        idx = n * k % n_grid
        update(-np.conj(zeta[n - 1]) * w[idx], zeta[n - 1] * w[-idx])
    return V


def _band_bound(coords: RootCoordsSU2) -> float:
    """A band past which the coefficients of synthesize(coords) are about
    _COEFF_FLOOR or less.  star(k1) k2 reaches at most the top eta index plus
    the top zeta index (the factors' off-diagonal parts are nilpotent, so the
    modes of their products alternate in sign).  For e^chi, the Cauchy
    estimate on |z| = e^t bounds |c_m| by exp(S(t) - m t), where
    S(t) = sum_j 2 |chi_j| sinh(j t) bounds Re chi."""
    poly = (np.flatnonzero(coords.eta).max(initial=0)
            + np.flatnonzero(coords.zeta).max(initial=-1) + 1)
    nz = np.flatnonzero(coords.chi)
    t = np.geomspace(1e-3, 4.0, 64)
    with np.errstate(over="ignore"):
        S = 2 * np.sinh(np.outer(t, nz + 1)) @ np.abs(coords.chi[nz])
        return float(poly + np.ceil(np.min((S - np.log(_COEFF_FLOOR)) / t)))


def _next_fast_len(n: int) -> int:
    """The least m >= n >= 1 with no prime factor above 11, which is what
    scipy.fft.next_fast_len(n) gives for a complex transform: the least
    q * 2^k >= n over the odd 11-smooth q < 2n."""
    odd, top = [1], 2 * n
    for p in (3, 5, 7, 11):
        for q in odd:       # the list grows as it is read: q, q p, q p^2, ...
            if q * p < top:
                odd.append(q * p)
    return min(q << ((n - 1) // q).bit_length() for q in odd)


def synthesize(coords: RootCoordsSU2) -> LaurentLoop:
    """g = star(k1) * diag(e^chi, e^-chi) * k2 from its values on a grid.

    The loop is evaluated at N roots of unity, N from the band bound, and
    transformed once.  N doubles until every coefficient of a mode |m| > N/4
    is at most _COEFF_FLOOR; the loop is returned cut to the modes above it.
    Raises ConvergenceFailure when that needs more than _MAX_GRID points.
    """
    bound = 4 * _band_bound(coords)
    if not bound <= _MAX_GRID:
        raise ConvergenceFailure(
            f"synthesized loop needs more than {_MAX_GRID} points (bound {bound:.3g})")
    n_grid = _next_fast_len(int(bound))
    while n_grid <= _MAX_GRID:
        spec = np.fft.fft(_synth_values(coords, n_grid).reshape(4, n_grid)).T / n_grid
        q = n_grid // 4
        if np.abs(spec[q + 1:n_grid - q]).max(initial=0.0) <= _COEFF_FLOOR:
            coeffs = spec[np.arange(-q, q + 1) % n_grid].reshape(-1, 2, 2)
            return LaurentLoop(2, -q, q, coeffs).trimmed(_COEFF_FLOOR)
        n_grid = _next_fast_len(2 * n_grid)
    raise ConvergenceFailure(f"synthesized loop not resolved on {_MAX_GRID} points")


def log_product_formula(coords: RootCoordsSU2, which: str) -> float:
    """Closed-form log of the truncated-determinant limits det(A*A), det(A1*A1).

    which = 'detA':  -sum_i 2i*log(1+|eta_i|^2) - sum_j 4j|chi_j|^2
                     - sum_k 2k*log(1+|zeta_k|^2)
    which = 'detA1': the eta exponents shift up by one and the zeta exponents
                     down by one.
    which = 'a0sq':  their difference (the chi terms cancel).
    """
    i = np.arange(len(coords.eta))
    k = np.arange(1, len(coords.zeta) + 1)
    j = np.arange(1, len(coords.chi) + 1)
    le = np.log1p(np.abs(coords.eta) ** 2)
    lz = np.log1p(np.abs(coords.zeta) ** 2)
    chi_term = float(np.sum(4 * j * np.abs(coords.chi) ** 2))
    if which == "detA":
        return float(-np.sum(2 * i * le) - chi_term - np.sum(2 * k * lz))
    if which == "detA1":
        return float(-np.sum((2 * i + 1) * le) - chi_term
                     - np.sum((2 * k - 1) * lz))
    if which == "a0sq":
        return float(-np.sum(le) + np.sum(lz))
    raise InvalidInput(f"unknown product formula selector {which!r}")


def product_formula(coords: RootCoordsSU2, which: str) -> float:
    return float(np.exp(log_product_formula(coords, which)))


def random_coords(rng: np.random.Generator, level: float = 0.0) -> RootCoordsSU2:
    """Random sparse test coordinates: at most 6 nonzero entries spread over
    the three families, indices <= 8, moduli <= 0.5."""
    eta = np.zeros(9, complex)
    chi = np.zeros(8, complex)
    zeta = np.zeros(8, complex)
    arrays = (eta, chi, zeta)
    for _ in range(6):
        arr = arrays[rng.integers(0, 3)]
        idx = int(rng.integers(0, len(arr)))
        r = 0.5 * (0.2 + 0.8 * rng.random())
        arr[idx] = r * np.exp(2j * np.pi * rng.random())
    chi0 = 1j * 2 * np.pi * rng.random()
    return RootCoordsSU2(level, eta, chi0, chi, zeta)


# -- coordinate recovery -----------------------------------------------------

def _top_stratum(X: np.ndarray) -> np.ndarray:
    """Hardy columns X in the top stratum: H = X[0] = g0^-1 must have
    |H_22| >= 1e-12 max|H|, as an LDU of g0 divides by (g0)_11 = H_22 / det H.
    Raises NotInTopStratum otherwise."""
    H = X[0]
    if abs(H[1, 1]) < 1e-12 * max(abs(H).max(), 1e-300):
        raise NotInTopStratum("vanishing (2,2) entry in constant block")
    return X


def _hardy_columns(g: LaurentLoop, M: int | None = None) -> np.ndarray:
    """hardy_columns' X, checked by _top_stratum; the LU is freed on return."""
    return _top_stratum(hardy_columns(g, M)[0])


def _zeta_columns(X: np.ndarray):
    """Rows (lead, tail) for the zeta peel: the Hardy columns X of g combined
    as X @ [H_22, -H_21], proportional to e^{-chi_+} (d2, -c2)^T."""
    return (X @ np.array([X[0, 1, 1], -X[0, 1, 0]])).T


def _eta_columns(X: np.ndarray):
    """(lead, tail) for the eta peel: the second of the Hardy columns X of
    star(g), proportional to e^{-chi_+} (-b1, a1)^T."""
    return X[:, 1, 1], X[:, 0, 1]


def _peel(lead: np.ndarray, tail: np.ndarray, indices) -> np.ndarray:
    """Strip root-subgroup factors from a pair of Hardy columns.

    The z^n coefficient of tail/lead at the innermost remaining index n is
    the conjugate of that factor's coordinate; each extraction updates the
    pair by the inverse factor (overall scalar prefactors are irrelevant).
    The pair is copied once and updated in place.
    """
    M = len(lead) - 1
    lead, tail = lead.copy(), tail.copy()
    coords = []
    for n in indices:
        if abs(lead[0]) < 1e-300:
            raise NotInTopStratum("vanishing leading coefficient during peel")
        cbar = tail[n] / lead[0]
        coords.append(np.conj(cbar))
        step = cbar * lead[:M + 1 - n]
        lead[:M + 1 - n] += coords[-1] * tail[n:]
        tail[n:] -= step
    return np.array(coords, dtype=complex)


def _check_su2(g: LaurentLoop) -> None:
    if not isinstance(g, LaurentLoop):
        raise InvalidInput(f"SU(2) coordinates need a loop, got {type(g).__name__}")
    if g.dim != 2:
        raise InvalidInput(f"SU(2) coordinates need a 2x2 loop, got dim {g.dim}")


def _above_floor(c: np.ndarray) -> np.ndarray:
    """Zero the entries at or below the noise floor, then trim trailing zeros."""
    return np.trim_zeros(np.where(np.abs(c) <= _NOISE_FLOOR, 0, c), "b")


def recover_coords(g: LaurentLoop, l_hint: float = 0.0) -> RootCoordsSU2:
    """Invert synthesize: peel (eta, chi, zeta) off a unitary-valued loop.

    Contract: for g = synthesize(c) with support <= 8 and moduli <= 0.5,
    the result matches c to 1e-8 per coordinate.  Coordinates of modulus at
    or below the noise floor 1e-9 are returned as zero and trailing zeros
    dropped: the arrays have the support length of c.  One LU of T_M(g), at
    the cutoff M = max(2 * band width, 32), serves both sides: the zeta side
    solves T_M(g) X = E0 and the eta side T_M(g)^H X = E0, as
    T_M(star g) = T_M(g)^H (factorization.hardy_columns).  Raises
    InvalidInput for a loop that is not 2x2, InvalidLevel for a bad l_hint,
    NotInTopStratum outside the top stratum (_top_stratum) and
    ConvergenceFailure when the resynthesized loop misses g by more than 1e-8
    on the grid.
    """
    _check_su2(g)
    check_level(l_hint)
    n_max = g.band_width
    X, star_columns = hardy_columns(g, max(2 * n_max, 32))
    X, X_star = _top_stratum(X), _top_stratum(star_columns())
    del star_columns    # frees the LU before the chi step
    zeta = _above_floor(_peel(*_zeta_columns(X), range(1, n_max + 1)))
    eta = _above_floor(_peel(*_eta_columns(X_star), range(n_max + 1)))
    # chi: (k1 g star(k2))_00 = e^chi on the circle.  With A = star(k1) and
    # B = k2 on the synthesis grid, that entry is conj(A[:, 0]) g conj(B[0, :]).
    empty = np.zeros(0, complex)
    n_grid = default_grid_size(max(max(len(eta) - 1, 0) + n_max + len(zeta),
                                   2 * n_max + 1))
    A = _synth_values(RootCoordsSU2(l_hint, eta, 0j, empty, empty), n_grid)
    B = _synth_values(RootCoordsSU2(l_hint, empty, 0j, empty, zeta), n_grid)
    diag = np.einsum("ik,kij,jk->k", np.conj(A[:, 0]), evaluate(g, n_grid),
                     np.conj(B[0]))
    ang = np.unwrap(np.angle(diag))
    spec = np.fft.fft(1j * ang) / n_grid
    chi0 = 1j * (float(np.mean(ang)) % (2 * np.pi))
    coords = RootCoordsSU2(l_hint, eta, chi0, _above_floor(spec[1:n_max + 1]), zeta)
    resynth = synthesize(coords)
    n_grid = default_grid_size(max(n_max, resynth.band_width))
    res = float(np.abs(evaluate(resynth, n_grid) - evaluate(g, n_grid)).max())
    if res > 1e-8:
        raise ConvergenceFailure(f"recovery residual {res:.3e} exceeds tol 1.0e-08")
    return coords


def recover_eta0(g: LaurentLoop, M: int | None = None) -> complex:
    """Fast path for eta_0 alone: the first step of the eta peel, one Hardy
    solve of star(g).  eta_0 = conj of the (1,2)/(2,2) ratio of its constant
    block.  M=None is the converged solve, an integer M the literal finite
    section (_hardy_columns).  Raises InvalidInput for a loop that is not
    2x2."""
    _check_su2(g)
    return complex(_peel(*_eta_columns(_hardy_columns(star(g), M)), [0])[0])


def _a0(g: LaurentLoop, M: int | None = None) -> float:
    """The LDU's a0 of g0 / sqrt(det g0), g0 = H^-1 for the constant Hardy
    block H: as (g0)_11 = H_22 / det H, a0 = |H_22| / sqrt|det H|."""
    H = _hardy_columns(g, M)[0]
    return float(abs(H[1, 1]) / np.sqrt(abs(np.linalg.det(H))))


# observables of the invariance experiments: name -> (read-out of a loop, from
# the converged Hardy solve or the finite section at cutoff M when M is given;
# the same value in closed form from the coordinates c of synthesize(c))
OBSERVABLES = {
    "a0": (_a0, lambda c: float(np.exp(0.5 * log_product_formula(c, "a0sq")))),
    "abs_eta0": (lambda g, M=None: abs(recover_eta0(g, M=M)),
                 lambda c: float(abs(c.eta[0]))),
    "abs_zeta1": (lambda g, M=None: float(abs(
                      _peel(*_zeta_columns(_hardy_columns(g, M)), [1])[0])),
                  lambda c: float(abs(c.zeta[0]))),
}


def coords_max_error(c1: RootCoordsSU2, c2: RootCoordsSU2) -> float:
    """Max per-coordinate deviation, padding shorter arrays with zeros;
    chi0 compared modulo 2 pi i."""
    def pad(a, n):
        return np.concatenate([a, np.zeros(n - len(a), complex)])

    err = 0.0
    for name in ("eta", "chi", "zeta"):
        a, b = getattr(c1, name), getattr(c2, name)
        n = max(len(a), len(b))
        if n:
            err = max(err, float(np.abs(pad(a, n) - pad(b, n)).max()))
    d0 = np.exp(complex(c1.chi0)) - np.exp(complex(c2.chi0))
    return max(err, float(abs(d0)))
