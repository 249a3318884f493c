"""Closed-form and Monte Carlo evaluation of the diagonal-distribution
transform: the sine formula, its per-coordinate marginal factors, the
general sine product, the finite spherical-function check over Haar SU(2),
and the Gamma-product transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError, InvalidInput, InvalidLevel
from .factorization import ldu_2x2
from .measures import MeasureSpec, sample_radial_sq

__all__ = [
    "TransformResult",
    "sine_formula_su2",
    "marginal_factor",
    "partial_product",
    "mc_diagonal_transform",
    "general_sine_formula",
    "finite_hc_check",
    "hc_gamma_transform",
]

# samples mc_diagonal_transform draws per batch
_MC_CHUNK = 2048


@dataclass(frozen=True)
class TransformResult:
    value: complex
    stderr: float
    n_samples: int
    truncation: int
    method: str


def _check_level(l):
    if not l > -1.0:
        raise InvalidLevel(f"level {l} <= -1")


def sine_formula_su2(l: float, lam: float) -> complex:
    """sin(pi/(2+l)) / sin((pi/(2+l)) (1 - i lam))."""
    _check_level(l)
    c = np.pi / (2.0 + l)
    den = np.sin(c * (1.0 - 1j * lam))
    if abs(den) < 1e-300:
        raise DomainError("sine denominator vanishes")
    return complex(np.sin(c) / den)


def marginal_factor(kind: str, index: int, l: float, lam: float) -> complex:
    """Exact one-coordinate expectation of (1+|w|^2)^{+i lam} (eta) or
    (1+|w|^2)^{-i lam} (zeta) under the corresponding measure factor."""
    _check_level(l)
    s = l + 2.0
    if kind == "eta":
        if index < 0:
            raise InvalidInput("eta index must be >= 0")
        p1 = s * index + 1.0
        return complex(p1 / (p1 - 1j * lam))
    if kind == "zeta":
        if index < 1:
            raise InvalidInput("zeta index must be >= 1")
        p1 = s * index - 1.0
        return complex(p1 / (p1 + 1j * lam))
    raise InvalidInput(f"unknown coordinate kind {kind!r}")


def partial_product(l: float, lam: float, N: int) -> complex:
    """Product of the first N eta factors and first N zeta factors, in the
    paired order (eta_j with zeta_{j+1}) that keeps partial products bounded."""
    _check_level(l)
    if N == 0:
        return 1.0 + 0.0j
    out = complex(marginal_factor("eta", 0, l, lam))
    for j in range(1, N):
        out *= marginal_factor("eta", j, l, lam) * marginal_factor("zeta", j, l, lam)
    out *= marginal_factor("zeta", N, l, lam)
    return out


def mc_diagonal_transform(spec: MeasureSpec, lam: float, n: int,
                          seed: int = 0) -> TransformResult:
    """Monte Carlo mean of prod (1+|eta_i|^2)^{i lam} (1+|zeta_k|^2)^{-i lam}.

    By independence the exact mean equals partial_product at the spec's
    truncation.  Deterministic given the seed.
    """
    if not spec.source.startswith("su2"):
        raise InvalidInput("diagonal transform requires an su2 measure spec")
    if n < 1:
        raise InvalidInput("need at least one sample")
    if lam == 0.0:
        return TransformResult(1.0 + 0j, 0.0, n, spec.truncation, "mc")
    rng = np.random.default_rng([int(seed), 0x10f])
    total = 0.0 + 0.0j
    total_sq = 0.0
    done = 0
    while done < n:
        m = min(_MC_CHUNK, n - done)
        le = np.log1p(sample_radial_sq(spec.eta_exponents[None, :], rng,
                                       (m, spec.truncation)))
        lz = np.log1p(sample_radial_sq(spec.zeta_exponents[None, :], rng,
                                       (m, spec.truncation)))
        vals = np.exp(1j * lam * (le.sum(axis=1) - lz.sum(axis=1)))
        total += vals.sum()
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
    mean = total / n
    var = max(total_sq / n - abs(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var / n))
    return TransformResult(complex(mean), stderr, n, spec.truncation, "mc")


def general_sine_formula(rs, l: float, lam) -> complex:
    """Product over positive roots of sin(c R_a) / sin(c (R_a - i L_a)) with
    c = pi/(l+g), R_a = rho(h_a) and L_a = <lam, a>/<a, a>.

    lam is given by its coefficients in the simple-root basis.  The value is
    invariant under rescaling the bilinear form.
    """
    _check_level(l)
    g = float(rs.dual_coxeter)
    c = np.pi / (l + g)
    lam = [float(v) for v in lam]
    out = 1.0 + 0.0j
    for beta in rs.positive_roots:
        R = float(rs.rho_pairing(beta))
        bb = float(rs.inner(beta, beta))
        L = sum(lam[i] * float(rs.inner(rs._alpha(i), beta))
                for i in range(rs.rank)) / bb
        den = np.sin(c * (R - 1j * L))
        if abs(den) < 1e-300:
            raise DomainError(f"sine pole at root {beta}")
        out *= np.sin(c * R) / den
    return complex(out)


def finite_hc_check(lam: float, n: int, seed: int = 0) -> TransformResult:
    """Monte Carlo of a0^(-2 i lam) over Haar-random SU(2), a0 = |g_11|
    extracted through the 2x2 LDU; the exact value is 1/(1 - i lam)."""
    if n < 1:
        raise InvalidInput("need at least one sample")
    rng = np.random.default_rng([int(seed), 0x5c])
    vals = np.empty(n, dtype=complex)
    for m in range(n):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        a, b = x[0] + 1j * x[1], x[2] + 1j * x[3]
        gmat = np.array([[a, b], [-np.conj(b), np.conj(a)]])
        _, _, adiag, _ = ldu_2x2(gmat)
        a0 = float(adiag[0, 0].real)
        vals[m] = np.exp(-2j * lam * np.log(a0))
    mean = vals.mean()
    var = max(float(np.mean(np.abs(vals) ** 2)) - abs(mean) ** 2, 0.0)
    return TransformResult(complex(mean), float(np.sqrt(var / n)), n, 0,
                           "haar-mc")


def hc_gamma_transform(rs, l: float, lam) -> complex:
    """Product over positive roots of Gamma(1 + (i pi/(l+g)) <lam,a>/<a,a>)."""
    _check_level(l)
    g = float(rs.dual_coxeter)
    lam = [float(v) for v in lam]
    out = 1.0 + 0.0j
    for beta in rs.positive_roots:
        bb = float(rs.inner(beta, beta))
        L = sum(lam[i] * float(rs.inner(rs._alpha(i), beta))
                for i in range(rs.rank)) / bb
        val = _gamma(1.0 + 1j * np.pi * L / (l + g))
        if not np.isfinite(val):
            raise DomainError(f"Gamma pole at root {beta}")
        out *= val
    return complex(out)
