"""Closed-form and Monte Carlo evaluation of the diagonal-distribution
transform: the sine formula, its per-coordinate marginal factors, the
general sine product, the finite spherical-function check over Haar SU(2),
and the Gamma-product transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInput, check_count, check_level
from .factorization import ldu_2x2
from .measures import MeasureSpec

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


def _check_lambda(lam) -> np.ndarray:
    """lam as a float array; InvalidInput unless it holds finite real numbers."""
    try:
        arr = np.asarray(lam)
        ok = arr.dtype.kind in "biuf" and np.isfinite(arr).all()
    except ValueError:                  # a ragged nest of sequences
        ok = False
    if not ok:
        raise InvalidInput(f"lambda must be finite real numbers, got {lam!r}")
    return arr.astype(float, copy=False)


def _mc_estimate(total, total_sq, n: int):
    """Mean and standard error of n samples from their sum and the sum of
    their squared moduli."""
    mean = total / n
    var = max(total_sq / n - abs(mean) ** 2, 0.0)
    return complex(mean), float(np.sqrt(var / n))


def sine_formula_su2(l: float, lam: float) -> complex:
    """sin(pi/(2+l)) / sin((pi/(2+l)) (1 - i lam))."""
    check_level(l)
    _check_lambda(lam)
    c = np.pi / (2.0 + l)
    den = np.sin(c * (1.0 - 1j * lam))
    if abs(den) < 1e-300:
        raise DomainError("sine denominator vanishes")
    return complex(np.sin(c) / den)


def marginal_factor(kind: str, index: int, l: float, lam: float) -> complex:
    """Exact one-coordinate expectation of (1+|w|^2)^{+i lam} (eta) or
    (1+|w|^2)^{-i lam} (zeta) under the corresponding measure factor."""
    check_level(l)
    _check_lambda(lam)
    s = l + 2.0
    if kind == "eta":
        check_count("eta index", index, 0)
        p1 = s * index + 1.0
        return complex(p1 / (p1 - 1j * lam))
    if kind == "zeta":
        check_count("zeta index", index, 1)
        p1 = s * index - 1.0
        return complex(p1 / (p1 + 1j * lam))
    raise InvalidInput(f"unknown coordinate kind {kind!r}")


def partial_product(l: float, lam: float, N: int) -> complex:
    """Product of the first N eta factors and first N zeta factors, in the
    paired order (eta_j with zeta_{j+1}) that keeps partial products bounded,
    multiplied left to right as eta_0 (eta_1 zeta_1) ... (eta_{N-1} zeta_{N-1}) zeta_N."""
    check_level(l)
    _check_lambda(lam)
    check_count("N", N, 0)
    if N == 0:
        return 1.0 + 0.0j
    s = l + 2.0
    j = np.arange(N, dtype=float)
    eta = (s * j + 1.0) / (s * j + 1.0 - 1j * lam)                # eta_0 .. eta_{N-1}
    zeta = (s * (j + 1.0) - 1.0) / (s * (j + 1.0) - 1.0 + 1j * lam)  # zeta_1 .. zeta_N
    eta[1:] *= zeta[:-1]
    return complex(np.prod(eta) * zeta[-1])


def mc_diagonal_transform(spec: MeasureSpec, lam, n: int, seed: int = 0):
    """Monte Carlo mean of prod (1+|eta_i|^2)^{i lam} (1+|zeta_k|^2)^{-i lam}.

    By independence the exact mean equals partial_product at the spec's
    truncation.  Deterministic given the seed.  lam is a number, giving one
    TransformResult, or a 1-D array, giving a list of them from one set of
    draws; each equals bitwise the scalar call with the same seed.
    """
    if not spec.source.startswith("su2"):
        raise InvalidInput("diagonal transform requires an su2 measure spec")
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    lams = _check_lambda(lam).reshape(-1)
    if np.ndim(lam) > 1 or lams.size == 0:
        raise InvalidInput("lambda must be a number or a non-empty 1-D array")
    live = np.flatnonzero(lams)         # lambda = 0 gives exactly 1, with no draws
    total = np.zeros(lams.size, dtype=complex)
    total_sq = np.zeros(lams.size)
    if live.size:
        # sample_radial_sq draws s = (1-u)^{-1/(p-1)} - 1, so each row sum of
        # log(1+s) is log1p(-u) . (-1/(p-1)), from the same uniforms u
        ce = -1.0 / (spec.eta_exponents - 1.0)
        cz = -1.0 / (spec.zeta_exponents - 1.0)
        rng = np.random.default_rng([int(seed), 0x10f])
        buf = np.empty((min(_MC_CHUNK, n), spec.truncation))
        for done in range(0, n, _MC_CHUNK):
            u = buf[:min(_MC_CHUNK, n - done)]
            le = np.log1p(np.negative(rng.random(out=u), out=u), out=u) @ ce
            lz = np.log1p(np.negative(rng.random(out=u), out=u), out=u) @ cz
            vals = np.exp(1j * lams[live, None] * (le - lz))
            total[live] += vals.sum(axis=1)
            total_sq[live] += np.sum(np.abs(vals) ** 2, axis=1)
    out = [TransformResult(*(_mc_estimate(t, t_sq, n) if lam_i else (1.0 + 0j, 0.0)),
                           n, spec.truncation, "mc")
           for lam_i, t, t_sq in zip(lams, total, total_sq)]
    return out if np.ndim(lam) else out[0]


def _root_lambda_terms(rs, lam):
    """<lam, a>/<a, a> for each positive root a, lam given by its
    coefficients in the simple-root basis."""
    _check_lambda(lam)
    if np.shape(lam) != (rs.rank,):
        raise InvalidInput(f"lambda needs {rs.rank} simple-root coefficients, "
                           f"got {lam!r}")
    lam = [float(v) for v in lam]
    # <alpha_i, a> is row i of the form applied to a, exactly
    return [sum(v * float(sum(f * b for f, b in zip(row, beta)))
                for v, row in zip(lam, rs.form)) / float(rs.inner(beta, beta))
            for beta in rs.positive_roots]


def general_sine_formula(rs, l: float, lam) -> complex:
    """Product over positive roots of sin(c R_a) / sin(c (R_a - i L_a)) with
    c = pi/(l+g), R_a = rho(h_a) and L_a = <lam, a>/<a, a>.

    lam is given by its coefficients in the simple-root basis.  The value is
    invariant under rescaling the bilinear form.
    """
    check_level(l)
    c = np.pi / (l + float(rs.dual_coxeter))
    out = 1.0 + 0.0j
    for beta, L in zip(rs.positive_roots, _root_lambda_terms(rs, lam)):
        R = float(rs.rho_pairing(beta))
        den = np.sin(c * (R - 1j * L))
        if abs(den) < 1e-300:
            raise DomainError(f"sine pole at root {beta}")
        out *= np.sin(c * R) / den
    return complex(out)


def finite_hc_check(lam: float, n: int, seed: int = 0) -> TransformResult:
    """Monte Carlo of a0^(-2 i lam) over Haar-random SU(2), a0 = |g_11|
    extracted through the 2x2 LDU; the exact value is 1/(1 - i lam)."""
    _check_lambda(lam)
    check_count("n", n, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng([int(seed), 0x5c])
    x = rng.standard_normal((n, 4))     # the stream of n draws of 4
    x /= np.sqrt(np.vecdot(x, x))[:, None]
    a, b = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    gmat = np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(n, 2, 2)
    _, _, adiag, _ = ldu_2x2(gmat)
    vals = np.exp(-2j * lam * np.log(adiag[:, 0, 0].real))
    mean, stderr = _mc_estimate(vals.sum(), np.sum(np.abs(vals) ** 2), n)
    return TransformResult(mean, stderr, n, 0, "haar-mc")


def hc_gamma_transform(rs, l: float, lam) -> complex:
    """Product over positive roots of Gamma(1 + (i pi/(l+g)) <lam,a>/<a,a>)."""
    from scipy.special import gamma     # loaded on first use, not at import
    check_level(l)
    g = float(rs.dual_coxeter)
    out = 1.0 + 0.0j
    for beta, L in zip(rs.positive_roots, _root_lambda_terms(rs, lam)):
        val = gamma(1.0 + 1j * np.pi * L / (l + g))
        if not np.isfinite(val):
            raise DomainError(f"Gamma pole at root {beta}")
        out *= val
    return complex(out)
