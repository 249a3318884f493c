"""Block Toeplitz compressions, truncated determinants, and factorization.

Implements the Riemann-Hilbert splitting g = g_minus * g0 * g_plus for
banded loops with zero winding, the 2x2 LDU refinement, and the determinant
route to the positive diagonal a0.  hardy_columns is the one place a finite
section is factored for Hardy columns: of g, for g_minus, and of star(g) on
the same LU, for g_plus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import zgesv, zgetrs

from .errors import ConvergenceFailure, InvalidInput, NotInTopStratum, check_count
from .loops import LaurentLoop, default_grid_size, star

__all__ = [
    "ToeplitzBlock",
    "TriangularFactors",
    "toeplitz",
    "log_det_AstarA",
    "birkhoff_factor",
    "ldu_2x2",
    "triangular_factor",
    "a0_from_dets",
]

# largest grid residual birkhoff_factor accepts for g = g_minus g0 g_plus
_RESIDUAL_TOL = 1e-8
# ldu_2x2 rejects a (1,1) entry at or below this times the largest entry
_LDU_TOL = 1e-13
# hardy_columns' converged solve: tail floor, indicator, least start, cap factor
_TAIL_FLOOR = 1e-8
_INDICATOR_TOL = 1e-12
_MIN_CUTOFF = 8
_CAP_FACTOR = 4


@dataclass(frozen=True)
class ToeplitzBlock:
    """Compression of multiplication-by-g to the truncated Hardy space.

    Unshifted: basis {z^n e_i : 0 <= n <= M, i = 1..dim}, block (j, k) = c_{j-k}.
    Shifted (dim >= 2): the constant e_2 mode is dropped from rows and columns.
    """

    matrix: np.ndarray = field(repr=False)


def toeplitz(g: LaurentLoop, M: int, shifted: bool = False) -> ToeplitzBlock:
    """The finite section of T(g) at the cutoff M, an integer >= 0 taken as
    given: only the c_n with |n| <= M enter, whatever the band of g."""
    check_count("M", M, 0)
    d = g.dim
    if shifted and d < 2:
        raise InvalidInput("the shifted section needs an e_2 mode: dim >= 2")
    n = d * (M + 1)
    # A is written in Fortran order, which LAPACK solves in place.  Its
    # column (k, b) is the run c_{j-k}[:, b], j = 0..M: lay the c_n with
    # |n| <= M out once as R[b, m, a] = c_{m-M}[a, b], zero-padded, so that
    # each column is the contiguous window R[b, M-k:2M-k+1] read flat
    lo, hi = max(g.n_min, -M), min(g.n_max, M)
    R = np.zeros((d, 2 * M + 1, d), dtype=complex)
    R[:, M + lo:M + hi + 1] = (
        g.coeffs[lo - g.n_min:hi - g.n_min + 1].transpose(2, 0, 1))
    s = R.itemsize
    # win[i, b] is the window of column (M - i, b)
    win = np.lib.stride_tricks.as_strided(
        R, shape=(M + 1, d, n), strides=(d * s, (2 * M + 1) * d * s, s),
        writeable=False)
    A = np.empty((n, n), dtype=complex, order="F")
    A.T.reshape(M + 1, d, n)[...] = win[::-1]
    if shifted:
        # drop the (mode 0, e_2) row and column (global index 1)
        B = np.empty((n - 1, n - 1), dtype=complex, order="F")
        B[:1, :1] = A[:1, :1]
        B[:1, 1:] = A[:1, 2:]
        B[1:, :1] = A[2:, :1]
        B[1:, 1:] = A[2:, 2:]
        A = B
    return ToeplitzBlock(A)


def log_det_AstarA(T: ToeplitzBlock) -> float:
    """log det(A* A) = 2 log |det A| = 2 sum_i log |U_ii|, read off the LU of
    A by zgesv, the factorization the Hardy solve uses.  Exactly singular
    truncations return -inf.

    OpenBLAS does not thread zgesv at these sizes, so the value does not
    depend on the BLAS thread count, as that of a threaded getrf would.
    """
    A = np.array(T.matrix, dtype=complex, order="F")
    lu, _, _, info = zgesv(A, np.zeros((A.shape[0], 1), dtype=complex),
                           overwrite_a=True, overwrite_b=True)
    if info > 0:
        return -np.inf
    return float(2.0 * np.log(np.abs(np.diagonal(lu))).sum())


def hardy_columns(g: LaurentLoop, M: int | None = None):
    """Hardy columns X of g, of shape (M+1, dim, dim), from one LU of the
    finite section: T_M(g) X = E0 stacks the blocks of (g0 g_plus)^-1.

    An integer M is the literal section.  M=None is the converged solve: M
    starts at the largest |n| with max|c_n| > _TAIL_FLOOR, at least
    _MIN_CUTOFF, and grows to max(M + 1, ceil(1.25 M)), at most to the cap
    _CAP_FACTOR * max(band width, 16), until max|X_M(M)|^2 <= _INDICATOR_TOL
    (Gohberg-Feldman; Boettcher-Silbermann).  X comes with a function of no
    argument that solves for star(g)'s columns on the same LU, as
    T_M(star g) = T_M(g)^H; the LU lives as long as that function.  Raises
    ConvergenceFailure for a singular section or a miss at the cap.
    """
    d = g.dim
    converge = M is None
    if converge:
        cap = _CAP_FACTOR * max(g.band_width, 16)
        M = max(g.trimmed(_TAIL_FLOOR).band_width, _MIN_CUTOFF)
    while True:
        # LU in place: no copy of the matrix beside the one toeplitz built
        A = toeplitz(g, M).matrix
        lu, piv, X, info = zgesv(A, np.eye(A.shape[0], d, dtype=complex, order="F"),
                                 overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise ConvergenceFailure(
                "block Toeplitz truncation is singular (loop outside the top "
                "stratum or nonzero winding)")
        X = X.reshape(M + 1, d, d)
        if not converge or np.abs(X[M]).max() ** 2 <= _INDICATOR_TOL:
            return X, lambda: zgetrs(
                lu, piv, np.eye(lu.shape[0], d, dtype=complex, order="F"),
                trans=2, overwrite_b=True)[0].reshape(-1, d, d)
        if M >= cap:
            raise ConvergenceFailure(
                f"Hardy solve misses the indicator at the cap M = {cap}")
        del A, lu, X    # frees this LU before the next section is built
        M = min(max(M + 1, math.ceil(1.25 * M)), cap)


def birkhoff_factor(g: LaurentLoop, M: int):
    """Riemann-Hilbert splitting g = g_minus * g0 * g_plus.

    g_minus is a series in 1/z with value I at infinity, g_plus a series in z
    with value I at 0, g0 a constant matrix, all from one LU of T_M(g):
    g_minus spans [max(n_min, -M), 0] and g_plus [0, min(n_max, M)].

    Returns them with the max-grid residual of the product.  Raises
    ConvergenceFailure if the section is singular or that exceeds _RESIDUAL_TOL.
    """
    check_count("M", M, 0)    # M=None would be hardy_columns' converged cutoff
    X, star_columns = hardy_columns(g, M)
    # X holds the power-series coefficients of h = (g0 g_plus)^{-1}; g h = g_minus
    if abs(np.linalg.det(X[0])) < 1e-300:
        raise ConvergenceFailure("constant term of the Hardy solve is singular")
    g0 = np.linalg.inv(X[0])
    g_minus = _minus_part(g, X)
    # star(g) = star(g_plus) g0^dagger star(g_minus) is star(g)'s splitting:
    # star(g_plus) is its minus factor, read off the adjoint solve on that LU
    g_plus = star(_minus_part(star(g), star_columns()))
    res = _product_residual(g, g_minus, g0, g_plus)
    if not np.isfinite(res) or res > _RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"factorization residual {res:.3e} exceeds tol {_RESIDUAL_TOL:.1e} "
            "(not in the top stratum, or cutoff M too small)")
    return g_minus, g0, g_plus, res


def _minus_part(g: LaurentLoop, X: np.ndarray) -> LaurentLoop:
    """g h mod z, h = sum_j X_j z^j: mode lo+i is sum_j c_{lo+i-j} X_j, one
    GEMM of the block Hankel section (c_{lo-M+i} .. c_{lo+i}) with X_M .. X_0."""
    d, M = g.dim, X.shape[0] - 1
    lo = max(g.n_min, -M)
    R = np.ascontiguousarray(g.with_band(lo - M, 0).coeffs.transpose(1, 0, 2))
    H = np.lib.stride_tricks.sliding_window_view(R, M + 1, axis=1)
    gm = H.transpose(1, 0, 3, 2).reshape(-1, (M + 1) * d) @ X[::-1].reshape(-1, d)
    return LaurentLoop(d, lo, 0, gm.reshape(-1, d, d))


def _product_residual(g, g_minus, g0, g_plus) -> float:
    n_grid = default_grid_size(max(g.band_width, g_minus.band_width,
                                   g_plus.band_width))
    # the three loops on the grid by one inverse FFT; no slot repeats, as the
    # grid outnumbers each loop's modes
    spec = np.zeros((n_grid, 3) + g0.shape, dtype=complex)
    for i, f in enumerate((g_minus, g_plus, g)):
        spec[:f.n_max + 1, i] = f.coeffs[-f.n_min:]
        spec[n_grid + f.n_min:, i] = f.coeffs[:-f.n_min]
    vals = n_grid * np.fft.ifft(spec, axis=0)
    vm = (vals[:, 0].reshape(-1, g.dim) @ g0).reshape(vals[:, 0].shape)
    prod = np.einsum("nab,nbc->nac", vm, vals[:, 1])
    return float(np.abs(prod - vals[:, 2]).max())


_J = np.complex128(1j)


def _mul(x, y):
    """x * y with each real product rounded on its own, as numpy's complex
    scalar product does; its array loop may fuse them, an ulp away."""
    return (x.real * y.real - x.imag * y.imag) + _J * (x.real * y.imag + x.imag * y.real)


def ldu_2x2(g0: np.ndarray):
    """Unique decomposition g0 = l * m * a * u of a 2x2 invertible matrix, or
    of each matrix of a (..., 2, 2) stack.

    l lower unipotent, u upper unipotent, m = diag of unit modulus,
    a = positive diagonal.  Requires (g0)_11 != 0 in every matrix.  A stack
    gives bitwise the matrices that one call per matrix gives.
    """
    g0 = np.asarray(g0, dtype=complex)
    if g0.shape[-2:] != (2, 2):
        raise InvalidInput(f"ldu_2x2 needs 2x2 matrices, got shape {g0.shape}")
    if not np.isfinite(g0).all():
        raise InvalidInput("ldu_2x2 needs finite matrices")
    # numpy scalars for one matrix (fast scalar arithmetic), arrays for a stack
    a, b, c, d = g0.reshape(g0.shape[:-2] + (4,)).transpose(-1, *range(g0.ndim - 2))
    abs_a = np.hypot(a.real, a.imag)    # rounds as abs() of a complex scalar
    scale = np.abs(g0).max(axis=(-2, -1), initial=1.0)
    if np.count_nonzero(abs_a <= _LDU_TOL * scale):
        raise NotInTopStratum("vanishing (1,1) entry: no LDU at this point")
    d2 = (_mul(a, d) - _mul(b, c)) / a
    abs_d2 = np.hypot(d2.real, d2.imag)
    l, m, adiag, u = np.zeros((4,) + g0.shape, dtype=complex)
    l[..., 0, 0] = l[..., 1, 1] = u[..., 0, 0] = u[..., 1, 1] = 1.0
    l[..., 1, 0] = c / a
    u[..., 0, 1] = b / a
    m[..., 0, 0] = a / abs_a
    m[..., 1, 1] = d2 / abs_d2
    adiag[..., 0, 0] = abs_a
    adiag[..., 1, 1] = abs_d2
    return l, m, adiag, u


@dataclass(frozen=True)
class TriangularFactors:
    """g = l * m * a * u with l(inf) lower unipotent and u(0) upper unipotent."""

    l: LaurentLoop
    m: np.ndarray
    a: np.ndarray
    u: LaurentLoop
    residual: float

    @property
    def a0(self) -> float:
        return float(self.a[0, 0].real)


def triangular_factor(g: LaurentLoop, M: int) -> TriangularFactors:
    g_minus, g0, g_plus, res = birkhoff_factor(g, M)
    ldot, m, a, udot = ldu_2x2(g0)
    l = LaurentLoop(g.dim, g_minus.n_min, 0, g_minus.coeffs @ ldot)
    u = LaurentLoop(g.dim, 0, g_plus.n_max, udot @ g_plus.coeffs)
    return TriangularFactors(l=l, m=m, a=a, u=u, residual=res)


def a0_from_dets(g: LaurentLoop, M: int) -> float:
    """a0 through the determinant ratio a0^2 = det(A1* A1) / det(A* A)."""
    ld = log_det_AstarA(toeplitz(g, M, shifted=False))
    ld1 = log_det_AstarA(toeplitz(g, M, shifted=True))
    if not np.isfinite(ld) or not np.isfinite(ld1):
        raise ConvergenceFailure("singular Toeplitz truncation in a0 ratio")
    return float(np.exp(0.5 * (ld1 - ld)))
