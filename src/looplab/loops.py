"""Truncated matrix-valued Laurent loops on the unit circle.

A loop is stored as the finite family of Fourier coefficients c_n
(``dim x dim`` complex matrices) for n in a band ``n_min <= 0 <= n_max``.
All operations are pure; instances are immutable after construction.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, check_count

__all__ = [
    "LaurentLoop",
    "identity_loop",
    "multiply",
    "star",
    "evaluate",
    "fourier_project",
    "mobius_reparam",
    "unitarity_defect",
    "default_grid_size",
    "loop_to_json",
    "loop_from_json",
]


@dataclass(frozen=True)
class LaurentLoop:
    """Finite Laurent series z -> sum_n coeffs[n] z^n with matrix coefficients.

    ``coeffs`` has shape (n_max - n_min + 1, dim, dim); index 0 holds the
    coefficient of z^{n_min}.  Non-finite coefficients raise InvalidInput.
    """

    dim: int
    n_min: int
    n_max: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the band n_min <= 0 <= n_max, of integers, and a positive dim
        check_count("dim", self.dim, 1)
        check_count("n_max", self.n_max, 0)
        if isinstance(self.n_min, bool) or not isinstance(self.n_min, numbers.Integral):
            raise InvalidInput("-n_min must be an integer >= 0, got "
                               f"n_min = {self.n_min!r}")
        check_count("-n_min", -self.n_min, 0)
        # an ndarray is kept as the same object; nested lists become one
        try:
            object.__setattr__(self, "coeffs", np.asarray(self.coeffs))
        except ValueError:              # a ragged nest of lists
            raise InvalidInput("loop coefficients are not an array") from None
        if self.coeffs.dtype.kind not in "biufc":
            raise InvalidInput(f"loop coefficients of dtype {self.coeffs.dtype}")
        expected = (self.n_max - self.n_min + 1, self.dim, self.dim)
        if self.coeffs.shape != expected:
            raise InvalidInput(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )
        if not np.isfinite(self.coeffs).all():
            raise InvalidInput("loop has non-finite coefficients")
        self.coeffs.setflags(write=False)

    def coeff(self, n: int) -> np.ndarray:
        """Coefficient of z^n (zero outside the band)."""
        if n < self.n_min or n > self.n_max:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.coeffs[n - self.n_min]

    @property
    def band_width(self) -> int:
        return max(-self.n_min, self.n_max)

    def trimmed(self, tol: float = 0.0) -> "LaurentLoop":
        """Drop outer coefficients whose max-norm is <= tol (band keeps 0)."""
        norms = np.abs(self.coeffs).reshape(self.coeffs.shape[0], -1).max(axis=1)
        lo, hi = self.n_min, self.n_max
        while lo < 0 and norms[lo - self.n_min] <= tol:
            lo += 1
        while hi > 0 and norms[hi - self.n_min] <= tol:
            hi -= 1
        if (lo, hi) == (self.n_min, self.n_max):
            return self
        return LaurentLoop(self.dim, lo, hi,
                           self.coeffs[lo - self.n_min:hi - self.n_min + 1].copy())

    def with_band(self, n_min: int, n_max: int) -> "LaurentLoop":
        """Re-embed into the band [n_min, n_max], truncating or zero-padding."""
        if n_min > 0 or n_max < 0:
            raise InvalidInput("band must contain 0")
        out = np.zeros((n_max - n_min + 1, self.dim, self.dim), dtype=complex)
        lo = max(n_min, self.n_min)
        hi = min(n_max, self.n_max)
        if lo <= hi:
            out[lo - n_min:hi - n_min + 1] = self.coeffs[lo - self.n_min:hi - self.n_min + 1]
        return LaurentLoop(self.dim, n_min, n_max, out)


def identity_loop(dim: int = 2) -> LaurentLoop:
    check_count("dim", dim, 1)
    c = np.eye(dim, dtype=complex)[None, :, :].copy()
    return LaurentLoop(dim, 0, 0, c)


def from_coeff_dict(coeffs: dict, dim: int = 2) -> LaurentLoop:
    """Build a loop from a {mode: matrix} mapping."""
    check_count("dim", dim, 1)
    if not coeffs:
        return LaurentLoop(dim, 0, 0, np.zeros((1, dim, dim), dtype=complex))
    if not all(isinstance(n, numbers.Integral) for n in coeffs):
        raise InvalidInput(f"modes must be integers, got {list(coeffs)}")
    n_min = min(0, min(coeffs))
    n_max = max(0, max(coeffs))
    arr = np.zeros((n_max - n_min + 1, dim, dim), dtype=complex)
    # the matrices, stacked as the modes 0.. of a loop, pass its input checks
    arr[np.array(list(coeffs)) - n_min] = LaurentLoop(
        dim, 0, len(coeffs) - 1, list(coeffs.values())).coeffs
    return LaurentLoop(dim, n_min, n_max, arr)


def multiply(g: LaurentLoop, h: LaurentLoop) -> LaurentLoop:
    """Pointwise product gh; coefficients are the convolution of the inputs."""
    if g.dim != h.dim:
        raise InvalidInput(f"dimension mismatch: {g.dim} vs {h.dim}")
    d = g.dim
    n_min = g.n_min + h.n_min
    n_max = g.n_max + h.n_max
    out = np.zeros((n_max - n_min + 1, d, d), dtype=complex)
    # convolve (out[i+j] += g[i] @ h[j]) with one product per mode of the
    # factor with fewer modes
    n_g, n_h = g.coeffs.shape[0], h.coeffs.shape[0]
    if n_h <= n_g:
        # the rows of g stacked into one (rows x d) @ (d x d) product give
        # the same entries, bit for bit, as the batch of d x d products
        rows = g.coeffs.reshape(-1, d)
        for j in range(n_h):
            out[j:j + n_g] += (rows @ h.coeffs[j]).reshape(-1, d, d)
    else:
        for i in range(n_g):
            out[i:i + n_h] += g.coeffs[i] @ h.coeffs
    return LaurentLoop(d, n_min, n_max, out)


def star(g: LaurentLoop) -> LaurentLoop:
    """The involution g*(z) = g(z)^dagger on |z|=1, i.e. c_n -> c_{-n}^dagger."""
    out = np.conj(np.transpose(g.coeffs[::-1], (0, 2, 1))).copy()
    return LaurentLoop(g.dim, -g.n_max, -g.n_min, out)


def evaluate(g: LaurentLoop, n_grid: int) -> np.ndarray:
    """Values of g at z = exp(2 pi i k / n_grid), k = 0..n_grid-1.

    Returns an array of shape (n_grid, dim, dim).
    """
    check_count("n_grid", n_grid, 1)
    # exact on the grid for any n_grid: z^n and z^(n mod N) coincide there
    spec = np.zeros((n_grid, g.dim, g.dim), dtype=complex)
    # add.at sums repeated slots in mode order
    np.add.at(spec, np.arange(g.n_min, g.n_max + 1) % n_grid, g.coeffs)
    return n_grid * np.fft.ifft(spec, axis=0)


def fourier_project(samples: np.ndarray, n_min: int, n_max: int) -> LaurentLoop:
    """Recover band-limited coefficients from equispaced grid samples.

    ``samples`` must come from a grid strictly larger than the band width
    (n_max - n_min + 1), else the modes alias and InvalidInput is raised.
    The map is a left inverse of ``evaluate`` on band-limited loops.
    """
    check_count("n_max", n_max, 0)
    check_count("-n_min", -n_min, 0)
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
        raise InvalidInput(f"samples of shape {samples.shape}, expected (n, dim, dim)")
    n_grid = samples.shape[0]
    if n_grid < n_max - n_min + 1:
        raise InvalidInput(
            f"grid of {n_grid} points cannot resolve band [{n_min}, {n_max}]")
    dim = samples.shape[1]
    # c_n = (1/N) sum_k samples_k exp(-2 pi i n k / N); non-finite samples
    # give non-finite coefficients, which LaurentLoop rejects
    with np.errstate(invalid="ignore"):
        spec = np.fft.fft(samples, axis=0) / n_grid
    arr = spec[np.arange(n_min, n_max + 1) % n_grid]
    return LaurentLoop(dim, n_min, n_max, arr)


def default_grid_size(band_width: int) -> int:
    """Nyquist-margin grid used for projection/evaluation round trips."""
    return 4 * max(band_width, 1) + 1


def unitarity_defect(g: LaurentLoop, n_grid: int | None = None) -> float:
    """max over the grid of || g(z) g(z)^dagger - I || (spectral-ish max-abs)."""
    if n_grid is None:
        n_grid = default_grid_size(g.band_width)
    vals = evaluate(g, n_grid)
    prod = vals @ np.conj(np.transpose(vals, (0, 2, 1)))
    prod -= np.eye(g.dim)
    return float(np.abs(prod).max())


# byte budget of one grid block of mobius_reparam's power table, so that its
# memory does not grow with the band
_POWER_TABLE_BYTES = 1 << 20
# largest | |a|^2 - |b|^2 - 1 | mobius_check accepts
_MOBIUS_TOL = 1e-9


def mobius_check(a: complex, b: complex) -> None:
    # written so that NaN (and inf - inf) fails the test
    if not abs(abs(a) ** 2 - abs(b) ** 2 - 1.0) <= _MOBIUS_TOL:
        raise InvalidInput(
            "Mobius parameters must satisfy |a|^2 - |b|^2 = 1 (circle-preserving)")


def mobius_apply(a: complex, b: complex, z: np.ndarray) -> np.ndarray:
    """sigma(z) = (a z + b) / (conj(b) z + conj(a)) on the unit circle."""
    z = np.asarray(z, dtype=complex)
    return (a * z + b) / (np.conj(b) * z + np.conj(a))


def mobius_reparam(g: LaurentLoop, a: complex, b: complex,
                   band_out: int | None = None) -> LaurentLoop:
    """Precompose g with the inverse of the Mobius map sigma = (a, b).

    Returns the Fourier projection of z -> g(sigma^{-1}(z)) onto the band
    [-band_out, band_out].  Rotations (b = 0) act exactly on coefficients.
    """
    mobius_check(a, b)
    if band_out is None:
        band_out = g.band_width
    check_count("band_out", band_out, 0)
    if b == 0:
        # sigma(z) = e^{i phi} z with e^{i phi} = a / conj(a); c_n -> e^{-i n phi} c_n
        phase = a / np.conj(a)
        ns = np.arange(g.n_min, g.n_max + 1)
        arr = g.coeffs * (phase ** (-ns))[:, None, None]
        return LaurentLoop(g.dim, g.n_min, g.n_max, arr).with_band(-band_out, band_out)
    n_grid = default_grid_size(band_out)
    w = np.exp(2j * np.pi * np.arange(n_grid) / n_grid)
    # sigma^-1 = (conj(a), -b)
    z = mobius_apply(np.conj(a), -b, w)
    z /= np.abs(z)  # keep exactly on the circle against rounding
    # g at z from a table of powers z^0..z^top, one GEMM per side of the band:
    # z^-n = conj(z^n) on the circle, so the modes < 0 are conj(P @ conj(c))
    dd = g.dim * g.dim
    c = g.coeffs.reshape(-1, dd)
    pos = c[-g.n_min:]                      # c_0 .. c_{n_max}
    neg = np.conj(c[:-g.n_min][::-1])       # conj(c_-1) .. conj(c_{n_min})
    top = max(g.n_max, -g.n_min)
    vals = np.empty((n_grid, dd), dtype=complex)
    # P[n, i] = z_i^n on one block of grid points at a time
    rows = max(1, _POWER_TABLE_BYTES // (16 * (top + 1)))
    P = np.empty((top + 1, min(rows, n_grid)), dtype=complex)
    for r0 in range(0, n_grid, rows):
        zb = z[r0:r0 + rows]
        Pb = P[:, :len(zb)]
        Pb[0] = 1.0
        Pb[1:2] = zb                        # no row when top = 0
        # doubling: with z^0..z^m in hand, z^{m+j} = z^m z^j for j = 1..m
        m = 1
        while m < top:
            k = min(m, top - m)
            np.multiply(Pb[1:k + 1], Pb[m], out=Pb[m + 1:m + k + 1])
            m += k
        out = vals[r0:r0 + rows]
        np.matmul(Pb[:g.n_max + 1].T, pos, out=out)
        if g.n_min < 0:
            out += np.conj(Pb[1:1 - g.n_min].T @ neg)
    samples = vals.reshape(n_grid, g.dim, g.dim)
    return fourier_project(samples, -band_out, band_out)


# -- serialization -----------------------------------------------------------

def loop_to_json(g: LaurentLoop) -> str:
    """JSON round-trip format: {dim, n_min, n_max, coeffs} with [re, im] pairs
    row-major per mode."""
    modes = []
    for idx in range(g.coeffs.shape[0]):
        flat = g.coeffs[idx].reshape(-1)
        modes.append([[float(c.real), float(c.imag)] for c in flat])
    return json.dumps({"dim": g.dim, "n_min": g.n_min, "n_max": g.n_max,
                       "coeffs": modes})


def loop_from_json(text: str) -> LaurentLoop:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"loop JSON does not parse: {exc}") from None
    try:
        dim, n_min, n_max, modes = (obj[k] for k in ("dim", "n_min", "n_max", "coeffs"))
    except (KeyError, TypeError):
        raise InvalidInput("loop JSON needs the keys dim, n_min, n_max, coeffs") from None
    if not all(isinstance(v, int) for v in (dim, n_min, n_max)) or dim < 1:
        raise InvalidInput("loop JSON needs integers dim >= 1, n_min and n_max")
    try:
        arr = np.array([[re + 1j * im for re, im in flat] for flat in modes],
                       dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInput("loop JSON modes must be lists of [re, im] pairs") from None
    shape = (n_max - n_min + 1, dim * dim)
    if arr.shape != shape:
        raise InvalidInput(f"loop JSON needs {shape[0]} modes of {shape[1]} "
                           f"[re, im] pairs, got shape {arr.shape[:2]}")
    return LaurentLoop(dim, n_min, n_max, arr.reshape(-1, dim, dim))
