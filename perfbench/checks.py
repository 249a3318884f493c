"""Correctness checks of the benchmark, with closed forms written apart from looplab.

Every check takes the program's output and the inputs it was given, and
returns a list of failure messages (empty when the output is right).  The
references are the paper's closed forms, coded here again so that a fault in
looplab's own copy of a formula cannot hide a fault in the computation it
checks.  Nothing here imports looplab.
"""

from __future__ import annotations

import math

import numpy as np

# per-item tolerances
COORD_TOL = 1e-8          # recovered vs drawn coordinates
LOG_DET_REL_TOL = 1e-6    # det(A*A), det(A1*A1) vs the product formulas
A0_TOL = 1e-6             # a0 from the LDU vs closed form and vs the det ratio
RESIDUAL_TOL = 1e-8       # Birkhoff residual
ETA0_TOL = 1e-8           # recover_eta0 on the benchmark's own draws
ROTATION_TOL = 1e-9       # a0 of g vs a0 of a rotated g
A0_DETS_TOL = 1e-8        # a0_from_dets vs closed form on dense draws
POWER_P_MAX = 0.01        # level 0 vs level 2 must be told apart
MC_SIGMAS = 5.0           # Monte Carlo means vs exact values
SINE_TOL = 1e-3           # partial_product at N = 1e5 vs the sine formula
HELLINGER_TOL = 1e-9      # Hellinger terms vs the Tricomi closed form
# KS critical value for sqrt(n) * D at false-alarm rate 1e-6:
# P(sqrt(n) D > x) ~ 2 exp(-2 x^2)
KS_ALPHA = 1e-6
KS_CRITICAL = math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0)


# -- closed forms --------------------------------------------------------------

def _log1p_sq(a) -> np.ndarray:
    return np.log1p(np.abs(np.asarray(a, dtype=complex)) ** 2)


def log_det_closed_form(eta, chi, zeta, shifted: bool) -> float:
    """log det(A*A) (shifted=False) or log det(A1*A1) (shifted=True) of the
    loop with root subgroup coordinates eta_0.., chi_1.., zeta_1..:

        log det(A*A)   = -sum 2i log(1+|eta_i|^2) - sum 4j |chi_j|^2
                         - sum 2k log(1+|zeta_k|^2)
        log det(A1*A1) = the same with 2i -> 2i+1 and 2k -> 2k-1.
    """
    i = np.arange(len(eta))
    j = np.arange(1, len(chi) + 1)
    k = np.arange(1, len(zeta) + 1)
    shift = 1 if shifted else 0
    chi_term = np.sum(4 * j * np.abs(np.asarray(chi, dtype=complex)) ** 2)
    return float(-np.sum((2 * i + shift) * _log1p_sq(eta)) - chi_term
                 - np.sum((2 * k - shift) * _log1p_sq(zeta)))


def a0_closed_form(eta, zeta) -> float:
    """a0 = exp(a0sq / 2) with a0sq = sum log(1+|zeta_k|^2) - sum log(1+|eta_i|^2)."""
    return math.exp(0.5 * float(np.sum(_log1p_sq(zeta)) - np.sum(_log1p_sq(eta))))


def coords_distance(c1, c2) -> float:
    """Max deviation over eta, chi, zeta (zero-padded) and e^{chi0}."""
    err = abs(np.exp(complex(c1.chi0)) - np.exp(complex(c2.chi0)))
    for name in ("eta", "chi", "zeta"):
        a = np.asarray(getattr(c1, name), dtype=complex)
        b = np.asarray(getattr(c2, name), dtype=complex)
        n = max(len(a), len(b))
        if n:
            pa = np.zeros(n, complex)
            pb = np.zeros(n, complex)
            pa[:len(a)] = a
            pb[:len(b)] = b
            err = max(err, float(np.abs(pa - pb).max()))
    return float(err)


def diagonal_transform_exact(level: float, lam: float, truncation: int) -> complex:
    """E prod (1+|eta_i|^2)^{i lam} (1+|zeta_k|^2)^{-i lam} over i < T, k <= T.

    Per coordinate, (1+s)^{i lam} under the density (p-1)(1+s)^{-p} has mean
    (p-1)/(p-1-i lam); the eta exponents are p = 2 + s i and the zeta ones
    p = s k, with s = level + 2.
    """
    s = level + 2.0
    pe = s * np.arange(truncation) + 1.0          # p - 1 for eta_i
    pz = s * np.arange(1, truncation + 1) - 1.0   # p - 1 for zeta_k
    logs = (np.sum(np.log(pe) - np.log(pe - 1j * lam))
            + np.sum(np.log(pz) - np.log(pz + 1j * lam)))
    return complex(np.exp(logs))


def sine_formula(level: float, lam: float) -> complex:
    """sin(c) / sin(c (1 - i lam)), c = pi / (2 + level)."""
    c = np.pi / (2.0 + level)
    return complex(np.sin(c) / np.sin(c * (1.0 - 1j * lam)))


def haar_transform_exact(lam: float) -> complex:
    """E a0^{-2 i lam} over Haar SU(2): a0^2 = |g_11|^2 is uniform on [0, 1]."""
    return 1.0 / (1.0 - 1j * lam)


def _scaled_expint(nu: float, x: float) -> float:
    """e^x E_nu(x) for x >= 1 by the continued fraction (modified Lentz)."""
    tiny = 1e-300
    b = x + nu
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (nu - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError("continued fraction for E_nu did not converge")


def hellinger_sq_closed_form(p: float) -> float:
    """Squared Hellinger distance of the radial law (p-1)(1+s)^{-p} from the
    exponential law p e^{-p s}:

        H^2 = 2 - 2 sqrt((p-1) p) U(1, 2 - p/2, p/2),

    with Tricomi's U(1, b, z) = e^z E_{2-b}(z), here e^{p/2} E_{p/2}(p/2).
    """
    bc = math.sqrt((p - 1.0) * p) * _scaled_expint(0.5 * p, 0.5 * p)
    return 2.0 - 2.0 * bc


def kl_bound(p: float) -> float:
    """KL divergence of the radial law from the exponential law, for p > 2;
    it bounds H^2 from above."""
    return math.log(1.0 - 1.0 / p) + p / ((p - 1.0) * (p - 2.0))


def ks_uniform_statistic(u) -> float:
    """Kolmogorov-Smirnov distance of the sample u from Uniform[0, 1]."""
    u = np.sort(np.asarray(u, dtype=float))
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


# -- checks ----------------------------------------------------------------------

def check_roundtrip(coords, recovered, residual, a0_tri, a0_dets, ld, ld1) -> list:
    """One roundtrip item: recovery, Birkhoff residual, a0 and both log dets."""
    out = []
    err = coords_distance(coords, recovered)
    if not err <= COORD_TOL:
        out.append(f"recovered coordinates off by {err:.3e} > {COORD_TOL:.0e}")
    if not residual <= RESIDUAL_TOL:
        out.append(f"Birkhoff residual {residual:.3e} > {RESIDUAL_TOL:.0e}")
    for name, got, shifted in (("det(A*A)", ld, False), ("det(A1*A1)", ld1, True)):
        want = log_det_closed_form(coords.eta, coords.chi, coords.zeta, shifted)
        rel = abs(math.expm1(got - want)) if math.isfinite(got) else math.inf
        if not rel <= LOG_DET_REL_TOL:
            out.append(f"{name} relative error {rel:.3e} > {LOG_DET_REL_TOL:.0e}")
    a0 = a0_closed_form(coords.eta, coords.zeta)
    if not abs(a0_tri - a0) <= A0_TOL:
        out.append(f"a0 from triangular_factor {a0_tri!r} vs closed form {a0!r}")
    if not abs(a0_tri - a0_dets) <= A0_TOL:
        out.append(f"a0 from triangular_factor {a0_tri!r} vs a0_from_dets {a0_dets!r}")
    return out


def check_report(report, n: int, label: str) -> list:
    """Every sample of an experiment call made it through."""
    out = []
    if report.n_effective != n:
        out.append(f"{label}: n_effective {report.n_effective} != {n}")
    if report.failure_rate != 0.0:
        out.append(f"{label}: failure rate {report.failure_rate}")
    return out


def check_eta0_uniform(eta0) -> list:
    """|eta0|^2 / (1 + |eta0|^2) is Uniform[0, 1] under the level-0 measure
    (eta_0 has exponent p = 2 at every level)."""
    s = np.abs(np.asarray(eta0, dtype=complex)) ** 2
    if len(s) == 0 or not np.all(np.isfinite(s)):
        return ["eta0 sample is empty or not finite"]
    u = s / (1.0 + s)
    stat = math.sqrt(len(u)) * ks_uniform_statistic(u)
    if not stat <= KS_CRITICAL:
        return [f"exact-stream eta0: sqrt(n) KS = {stat:.3f} > {KS_CRITICAL:.3f} "
                f"(n = {len(u)})"]
    return []


def check_eta0_recovery(drawn: complex, recovered: complex) -> list:
    err = abs(complex(recovered) - complex(drawn))
    if not err <= ETA0_TOL:
        return [f"recover_eta0 off by {err:.3e} > {ETA0_TOL:.0e}"]
    return []


def check_rotation_report(report) -> list:
    d = report.max_per_sample_diff
    if not d <= ROTATION_TOL:
        return [f"rotation changed a0 by {d:.3e} > {ROTATION_TOL:.0e}"]
    return []


def check_rotation_coeffs(coeffs, n_min: int, rotated, rot_n_min: int,
                          phase: complex) -> list:
    """A rotation sigma(z) = phase z acts on coefficients as c_n -> phase^-n c_n.

    Both coefficient stacks start at their own lowest mode; they are compared
    on the union of their bands, zero outside each.
    """
    coeffs = np.asarray(coeffs)
    rotated = np.asarray(rotated)
    lo = min(n_min, rot_n_min)
    hi = max(n_min + coeffs.shape[0], rot_n_min + rotated.shape[0])
    want = np.zeros((hi - lo,) + coeffs.shape[1:], dtype=complex)
    got = np.zeros_like(want)
    ns = np.arange(n_min, n_min + coeffs.shape[0])
    want[n_min - lo:n_min - lo + len(ns)] = coeffs * (phase ** (-ns))[:, None, None]
    got[rot_n_min - lo:rot_n_min - lo + rotated.shape[0]] = rotated
    err = float(np.abs(got - want).max())
    if not err <= 1e-12 * max(1.0, float(np.abs(want).max())):
        return [f"rotated coefficients off by {err:.3e}"]
    return []


def check_power(pvalue: float) -> list:
    if not pvalue < POWER_P_MAX:
        return [f"power control p = {pvalue:.3e} is not < {POWER_P_MAX}"]
    return []


def check_a0_dets(eta, zeta, a0_dets: float) -> list:
    a0 = a0_closed_form(eta, zeta)
    if not abs(a0_dets - a0) <= A0_DETS_TOL:
        return [f"a0_from_dets {a0_dets!r} vs closed form {a0!r}"]
    return []


def check_mc_mean(mean: complex, exact: complex, n: int, label: str) -> list:
    """Monte Carlo mean of unit-modulus values within MC_SIGMAS standard errors.

    The values have modulus 1, so their variance is 1 - |exact|^2.
    """
    se = math.sqrt(max(1.0 - abs(exact) ** 2, 0.0) / n)
    dev = abs(complex(mean) - exact)
    if not dev <= MC_SIGMAS * se:
        return [f"{label}: mean off by {dev:.3e} > {MC_SIGMAS:g} x {se:.3e}"]
    return []


def check_sine_limit(level: float, lam: float, pp: complex) -> list:
    sf = sine_formula(level, lam)
    dev = abs(complex(pp) - sf)
    if not dev <= SINE_TOL:
        return [f"partial_product off the sine formula by {dev:.3e}"]
    return []


def check_hellinger(p: float, h: float) -> list:
    """0 < h, h <= KL(p) for p > 2, and h matches the Tricomi closed form."""
    out = []
    if not h > 0.0:
        out.append(f"Hellinger term {h!r} at p = {p} is not positive")
    if p > 2.0 and not h <= kl_bound(p):
        out.append(f"Hellinger term {h!r} at p = {p} exceeds KL {kl_bound(p)!r}")
    want = hellinger_sq_closed_form(p)
    if not abs(h - want) <= HELLINGER_TOL:
        out.append(f"Hellinger term {h!r} at p = {p} vs closed form {want!r}")
    return out
