"""Block Toeplitz compressions, truncated determinants, and factorization.

Implements the Riemann-Hilbert splitting g = g_minus * g0 * g_plus for
banded loops with zero winding, the 2x2 LDU refinement, and the determinant
route to the positive diagonal a0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import zgesv

from .errors import ConvergenceFailure, InvalidInput, NotInTopStratum, check_count
from .loops import LaurentLoop, default_grid_size, evaluate, multiply

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


@dataclass(frozen=True)
class ToeplitzBlock:
    """Compression of multiplication-by-g to the truncated Hardy space.

    Unshifted: basis {z^n e_i : 0 <= n <= M, i = 1..dim}, block (j, k) = c_{j-k}.
    Shifted: the constant e_2 mode is dropped from rows and columns.
    """

    matrix: np.ndarray = field(repr=False)


def toeplitz(g: LaurentLoop, M: int, shifted: bool = False) -> ToeplitzBlock:
    """The finite section of T(g) at the cutoff M, an integer >= 0 taken as
    given: only the c_n with |n| <= M enter, whatever the band of g."""
    check_count("M", M, 0)
    d = g.dim
    # block (j, k) is c_{j-k}: lay the c_n with |n| <= M out in one zero-padded
    # array, rev[M - n] = c_n, and read block row j as a sliding window
    lo, hi = max(g.n_min, -M), min(g.n_max, M)
    rev = np.zeros((2 * M + 1, d, d), dtype=complex)
    rev[M - hi:M - lo + 1] = g.coeffs[lo - g.n_min:hi - g.n_min + 1][::-1]
    win = np.lib.stride_tricks.sliding_window_view(rev, M + 1, axis=0)
    A4 = win[M::-1]                        # (M+1, d, d, M+1): [j, a, b, k]
    # written straight into Fortran order, which LAPACK solves in place:
    # A.T is C-ordered, with A.T[(k, b), (j, a)] = c_{j-k}[a, b]
    A = np.empty((d * (M + 1),) * 2, dtype=complex, order="F")
    A.T.reshape(M + 1, d, M + 1, d)[...] = A4.transpose(3, 2, 0, 1)
    if shifted:
        # drop the (mode 0, e_2) row and column (global index 1)
        keep = np.ones(A.shape[0], dtype=bool)
        keep[1] = False
        A = A[np.ix_(keep, keep)]
    return ToeplitzBlock(A)


def log_det_AstarA(T: ToeplitzBlock) -> float:
    """log det(A* A) = 2 log |det A|, read off the LU of A (the factorization
    the Hardy solve uses).  Exactly singular truncations return -inf.
    """
    return float(2.0 * np.linalg.slogdet(T.matrix)[1])


def _solve_hardy_columns(g: LaurentLoop, M: int) -> np.ndarray:
    """Solve A(g) X = E0 for the (M+1) stacked 2x2 blocks of (g0 g_plus)^-1.

    Returns X of shape (M+1, dim, dim).
    """
    d = g.dim
    A = toeplitz(g, M, shifted=False).matrix
    E = np.zeros((A.shape[0], d), dtype=complex, order="F")
    E[:d, :d] = np.eye(d)
    # LU in place: no copy of the matrix beside the one toeplitz built
    _, _, X, info = zgesv(A, E, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise ConvergenceFailure(
            "block Toeplitz truncation is singular (loop outside the top "
            "stratum or nonzero winding)")
    return X.reshape(M + 1, d, d)


def birkhoff_factor(g: LaurentLoop, M: int):
    """Riemann-Hilbert splitting g = g_minus * g0 * g_plus.

    g_minus is a series in 1/z with value I at infinity, g_plus a series in z
    with value I at 0, g0 a constant matrix.  Factors are truncated at M modes
    and the max-grid residual of the product is reported.

    Raises ConvergenceFailure if the truncated system is singular or the
    residual exceeds _RESIDUAL_TOL.
    """
    d = g.dim
    X = _solve_hardy_columns(g, M)
    # X holds the power-series coefficients of h = (g0 g_plus)^{-1}; g h = g_minus
    h0 = X[0]
    if abs(np.linalg.det(h0)) < 1e-300:
        raise ConvergenceFailure("constant term of the Hardy solve is singular")
    g0 = np.linalg.inv(h0)
    # g_plus = (h g0)^{-1}: one block lower-triangular Toeplitz solve, as the
    # series s = h g0 has unit constant term
    S = toeplitz(LaurentLoop(d, 0, M, X @ g0), M).matrix
    gp = solve_triangular(S, np.eye(S.shape[0], d), lower=True,
                          unit_diagonal=True)
    g_plus = LaurentLoop(d, 0, M, gp.reshape(M + 1, d, d))
    gm_full = multiply(g, LaurentLoop(d, 0, M, X.copy()))
    g_minus = gm_full.with_band(max(gm_full.n_min, -M), 0)
    res = _product_residual(g, g_minus, g0, g_plus)
    if not np.isfinite(res) or res > _RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"factorization residual {res:.3e} exceeds tol {_RESIDUAL_TOL:.1e} "
            "(not in the top stratum, or cutoff M too small)")
    return g_minus, g0, g_plus, res


def _product_residual(g, g_minus, g0, g_plus) -> float:
    n_grid = default_grid_size(max(g.band_width, g_minus.band_width,
                                   g_plus.band_width))
    vals = evaluate(g_minus, n_grid) @ g0 @ evaluate(g_plus, n_grid)
    return float(np.abs(vals - evaluate(g, n_grid)).max())


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
