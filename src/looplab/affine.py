"""Finite root systems, the affine Weyl group, reduced periodic words, and
the exponent tables feeding the general product measure.

Everything here is exact: roots are integer vectors in the simple-root
basis, the affine Weyl group acts on them through integer matrices, points
and pairings are Fractions, and no floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (InvalidInput, InvalidLevel, NonReducedSequence,
                     check_count, check_level)

__all__ = [
    "RootSystem",
    "AffineRoot",
    "ReducedSequence",
    "ExponentTable",
    "build_root_system",
    "affine_weyl_apply",
    "simple_affine_root",
    "build_periodic_sequence",
    "tau_sequence",
    "exponent_table",
]


# Cartan matrices in the convention a[i][j] = alpha_j(h_i); standard labelings
# (B_r: last root short; C_r: last root long; E-series: node 2 on the branch).
def _cartan(family: str, rank: int):
    def base(r):
        return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                 for j in range(r)] for i in range(r)]

    if family == "A" and rank >= 1:
        return base(rank)
    if family == "B" and rank >= 2:
        a = base(rank)
        a[rank - 1][rank - 2] = -2
        return a
    if family == "C" and rank >= 2:
        a = base(rank)
        a[rank - 2][rank - 1] = -2
        return a
    if family == "D" and rank >= 3:
        a = base(rank)
        a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
        return a
    if family == "E" and rank in (6, 7, 8):
        # Bourbaki: node 2 attaches to node 4; chain 1-3-4-5-...-rank
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [1, 3, 4] + list(range(5, rank + 1))
        pairs = list(zip(chain, chain[1:])) + [(2, 4)]
        for i, j in pairs:
            a[i - 1][j - 1] = a[j - 1][i - 1] = -1
        return a
    if family == "F" and rank == 4:
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    if family == "G" and rank == 2:
        return [[2, -1], [-3, 2]]
    raise InvalidInput(f"unknown root system {family}{rank}")


def _parse_label(label: str):
    label = label.strip().replace("_", "")
    if len(label) < 2 or label[0].upper() not in "ABCDEFG":
        raise InvalidInput(f"bad root system label {label!r}")
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise InvalidInput(f"bad root system label {label!r}") from exc
    return label[0].upper(), rank


def _solve_fraction(A, b):
    """Exact Gaussian elimination over Fractions: solve A x = b."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise InvalidInput("singular exact system")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[col])]
    return tuple(M[i][n] for i in range(n))


@dataclass(frozen=True)
class RootSystem:
    """Finite root system data over exact rationals.

    Roots are integer coefficient tuples in the simple-root basis.  The
    bilinear form matrix is normalized so the highest root has squared
    length 2.  ``reflections[i]`` is the integer matrix of the simple affine
    reflection r_i on the coordinates (q, beta) of q*delta + beta.  Entries
    of a word's matrix grow with its horizon, far inside int64: at most 202
    for A1 at horizon 200, 6 for E8 at horizon 2.
    """

    label: str
    rank: int
    cartan: tuple                      # cartan[i][j] = alpha_j(h_i)
    positive_roots: tuple = field(repr=False)
    form: tuple = field(repr=False)    # form[i][j] = <alpha_i, alpha_j>
    theta: tuple
    theta_vee: tuple                   # (alpha_j(h_theta))_j, integers
    rho: tuple                         # coefficients of rho-dot in simple roots
    comarks: tuple
    dual_coxeter: Fraction
    reflections: np.ndarray = field(repr=False, compare=False)

    def pairing(self, beta, x):
        """beta(x) for x given by its simple-root values (alpha_i(x))_i."""
        return sum(Fraction(b) * Fraction(v) for b, v in zip(beta, x))

    def inner(self, beta, gamma):
        """<beta, gamma> in the normalized form."""
        return sum(Fraction(beta[i]) * self.form[i][j] * Fraction(gamma[j])
                   for i in range(self.rank) for j in range(self.rank))

    def rho_pairing(self, beta):
        """rho-dot(h_beta) = 2 <rho-dot, beta> / <beta, beta>."""
        return 2 * self.inner(self.rho, beta) / self.inner(beta, beta)


def build_root_system(label: str) -> RootSystem:
    family, rank = _parse_label(label)
    A = _cartan(family, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank))
              for i in range(rank)]

    # r_i (i >= 1): beta -> beta - beta(h_{i-1}) alpha_{i-1}, i.e. the
    # identity with Cartan row i-1 subtracted from the row of beta_{i-1}
    R = np.repeat(np.eye(rank + 1, dtype=np.int64)[None], rank + 1, axis=0)
    nodes = np.arange(1, rank + 1)
    R[nodes, nodes, 1:] -= np.array(A, dtype=np.int64)

    roots = set(simple)
    frontier = set(simple)
    while frontier:
        # row i of R[1:, 1:, 1:] @ beta is r_{i+1}(beta)
        frontier = {tuple(im) for beta in frontier
                    for im in (R[1:, 1:, 1:] @ beta).tolist()} - roots
        roots |= frontier
    positive = sorted(b for b in roots if all(c >= 0 for c in b))

    # symmetrizer d_i with d_i A_ij = d_j A_ji, then scale so <theta,theta> = 2
    d = [None] * rank
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(rank):
                if A[i][j] != 0 and d[i] is not None and d[j] is None:
                    d[j] = d[i] * A[i][j] / A[j][i]
                    changed = True
    form = [[d[i] * A[i][j] for j in range(rank)] for i in range(rank)]

    theta = max(positive, key=lambda b: sum(b))
    if sum(sum(b) == sum(theta) for b in positive) != 1:
        raise InvalidInput("highest root is not unique (bad Cartan data)")
    tt = sum(Fraction(theta[i]) * form[i][j] * theta[j]
             for i in range(rank) for j in range(rank))
    scale = Fraction(2) / tt
    form = tuple(tuple(scale * form[i][j] for j in range(rank))
                 for i in range(rank))

    # alpha_j(h_theta) = 2 <alpha_j, theta> / <theta, theta> = <alpha_j, theta>
    theta_vee = [sum(f * t for f, t in zip(row, theta)) for row in form]
    if any(v.denominator != 1 for v in theta_vee):
        raise InvalidInput("non-integral coroot pairing")
    theta_vee = tuple(int(v) for v in theta_vee)
    # r_0: (q, beta) -> (q + beta(h_theta), beta - beta(h_theta) theta)
    R[0, 0, 1:] = theta_vee
    R[0, 1:, 1:] -= np.outer(theta, theta_vee)
    R.setflags(write=False)

    # rho-dot = sum_i f_i alpha_i with rho(h_j) = sum_i f_i A[j][i] = 1
    rho = _solve_fraction(A, [1] * rank)
    # comarks c_j: sum_j c_j alpha_i(h_j) = alpha_i(h_theta), where
    # alpha_i(h_j) = A[j][i]
    P = [[A[j][i] for j in range(rank)] for i in range(rank)]
    comarks = _solve_fraction(P, theta_vee)
    return RootSystem(label=f"{family}{rank}", rank=rank,
                      cartan=tuple(tuple(row) for row in A),
                      positive_roots=tuple(positive), form=form, theta=theta,
                      theta_vee=theta_vee, rho=rho, comarks=comarks,
                      dual_coxeter=1 + sum(comarks), reflections=R)


@dataclass(frozen=True)
class AffineRoot:
    """Real affine root q*delta + beta (beta a finite root; q >= 1 when beta
    is negative, q >= 0 when positive)."""

    q: int
    beta: tuple

    def is_positive(self, rs: RootSystem) -> bool:
        if self.q > 0:
            return True
        if self.q < 0:
            return False
        return tuple(self.beta) in set(rs.positive_roots)


def simple_affine_root(rs: RootSystem, i: int) -> AffineRoot:
    if i == 0:
        return AffineRoot(1, tuple(-c for c in rs.theta))
    return AffineRoot(0, tuple(1 if j == i - 1 else 0 for j in range(rs.rank)))


def affine_weyl_apply(rs: RootSystem, word, x):
    """Apply the word of simple affine reflections (leftmost applied last)
    to a point x of the affine slice, given by its values (alpha_i(x))_i.

    r_i (i >= 1) reflects in the wall alpha_i = 0; r_0 reflects in theta = 1.
    """
    x = tuple(Fraction(v) for v in x)
    for i in reversed(list(word)):
        x = _point_reflect(rs, i, x)
    return x


def _point_reflect(rs: RootSystem, i: int, x):
    if i >= 1:
        # (alpha_j(h_{i-1}))_j is Cartan row i-1
        xi = x[i - 1]
        return tuple(v - xi * a for v, a in zip(x, rs.cartan[i - 1]))
    shift = 1 - rs.pairing(rs.theta, x)
    return tuple(v + shift * t for v, t in zip(x, rs.theta_vee))


@dataclass(frozen=True)
class ReducedSequence:
    """Infinite reduced word: a finite prefix whose tail repeats with the
    stated period length (letters satisfy i_{n+L} = i_n beyond the prefix)."""

    rs: RootSystem
    prefix: tuple                 # simple-reflection indices i_1, i_2, ...
    period_length: int
    period_coroot: tuple          # the translation lattice point, coroot basis

    def index(self, n: int) -> int:
        """The n-th letter (1-based)."""
        if n < 1:
            raise InvalidInput("letters are indexed from 1")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        L = self.period_length
        base = len(self.prefix) - L
        return self.prefix[base + (n - 1 - base) % L]

    def word(self, n: int) -> tuple:
        return tuple(self.index(m) for m in range(1, n + 1))


def _dominant_values(rs: RootSystem, coroot_coeffs):
    """Value-coordinates of lambda = sum c_j h_j, as alpha_a(h_j) = cartan[j][a]."""
    return tuple(sum(Fraction(c) * row[a]
                     for c, row in zip(coroot_coeffs, rs.cartan))
                 for a in range(rs.rank))


def default_period(rs: RootSystem):
    """The smallest-denominator strictly dominant coroot-lattice point with
    equal simple-root values: clear denominators in the solve of
    sum_j c_j alpha_i(h_j) = 1."""
    r = rs.rank
    A = rs.cartan
    M = [[A[j][i] for j in range(r)] for i in range(r)]
    x = _solve_fraction(M, [1] * r)
    from math import lcm
    mult = lcm(*[f.denominator for f in x]) if r > 1 else x[0].denominator
    return tuple(int(f * mult) for f in x)


def _generic_basepoints(rs: RootSystem):
    """Points strictly inside the fundamental alcove, scaled so that theta
    evaluates to 1/2, with alpha_i values proportional to 1 + (i+1)*tau and
    then, as the linear family has arithmetic coincidences from rank 3 on,
    to 1 + tau^(i+1)."""
    r = rs.rank
    for power in (False, True):
        for tau_denom in (97, 101, 103, 107, 109):
            tau = Fraction(1, tau_denom)
            raw = [1 + (tau ** (i + 1) if power else (i + 1) * tau)
                   for i in range(r)]
            S = 2 * sum(Fraction(rs.theta[i]) * raw[i] for i in range(r))
            yield tuple(raw[i] / S for i in range(r))


def build_periodic_sequence(rs: RootSystem, period, horizon: int) -> ReducedSequence:
    """Reduced affine-periodic word from the wall-crossing order of the ray
    x0 + t*lambda, lambda the requested strictly dominant coroot point.

    The walls beta = m (beta > 0 finite, m >= 1) are crossed at the exact
    times t = (m - beta(x0)) / beta(lambda); sorting all crossings up to the
    time covering delta-coefficient `horizon` for every root gives the word:
    crossing j carries tau_j = m delta - beta, and pushing tau_j through the
    prefix built so far must land on a simple affine root, whose index is
    the next letter.
    """
    check_count("horizon", horizon, 1)
    period = tuple(int(c) for c in period)
    if len(period) != rs.rank:
        raise InvalidInput("period must have one coroot coefficient per node")
    lam = _dominant_values(rs, period)
    if any(v <= 0 for v in lam):
        raise InvalidInput("period must be strictly dominant "
                           "(all simple-root values positive)")
    for x0 in _generic_basepoints(rs):
        t_end = max((Fraction(horizon + 1) - rs.pairing(b, x0))
                    / rs.pairing(b, lam) for b in rs.positive_roots)
        events = []
        for beta in rs.positive_roots:
            b0 = rs.pairing(beta, x0)
            bl = rs.pairing(beta, lam)
            m = 1
            while (Fraction(m) - b0) / bl <= t_end:
                events.append(((Fraction(m) - b0) / bl, m, beta))
                m += 1
        events.sort(key=lambda e: e[0])
        if len({e[0] for e in events}) == len(events):
            break
    else:
        raise NonReducedSequence("could not find a tie-free basepoint")

    prefix = []
    W = np.eye(rs.rank + 1, dtype=np.int64)     # root action of w_{j-1}
    for _, m, beta in events:
        gamma = (W @ np.array((m, *(-c for c in beta)))).tolist()
        idx = _match_simple(rs, AffineRoot(gamma[0], tuple(gamma[1:])))
        if idx is None:
            raise NonReducedSequence(
                f"crossing {m}*delta - {beta} did not map to a simple root")
        W = rs.reflections[idx] @ W
        prefix.append(idx)
    L = int(sum(rs.pairing(beta, lam) for beta in rs.positive_roots))
    if len(prefix) < L:
        raise NonReducedSequence("horizon too small to cover one full period")
    return ReducedSequence(rs=rs, prefix=tuple(prefix),
                           period_length=L, period_coroot=period)


def _match_simple(rs: RootSystem, gamma: AffineRoot):
    return next((i for i in range(rs.rank + 1)
                 if simple_affine_root(rs, i) == gamma), None)


def tau_sequence(seq: ReducedSequence, horizon: int):
    """tau_j = w_{j-1}^{-1} . gamma_j recomputed from the letters alone.

    Raises NonReducedSequence when some tau_j fails to be positive.  Returns
    the roots with delta-coefficient q <= horizon (complete: iteration
    continues far enough that no further letters can contribute).
    """
    rs = seq.rs
    n_pos = len(rs.positive_roots)
    limit = (horizon + 1) * seq.period_length + len(seq.prefix) + n_pos
    taus = []
    # root action of w_{n-1}^{-1} = r_{i_1}...r_{i_{n-1}}
    Winv = np.eye(rs.rank + 1, dtype=np.int64)
    for n in range(1, limit + 1):
        i = seq.index(n)
        alpha = simple_affine_root(rs, i)
        img = (Winv @ np.array((alpha.q, *alpha.beta))).tolist()
        tau = AffineRoot(img[0], tuple(img[1:]))
        if not tau.is_positive(rs):
            raise NonReducedSequence(
                f"letter {n}: tau = {tau.q}*delta + {tau.beta} is negative")
        if tau.q <= horizon:
            taus.append(tau)
        Winv = Winv @ rs.reflections[i]
    return taus


@dataclass(frozen=True)
class ExponentTable:
    """Radial exponents and Gaussian rates of the general product measure.

    zeta_rows: (q, beta, 1 + (l+g)q - rho(h_beta)) for roots q*delta - beta;
    eta_rows:  (q, beta, 1 + (l+g)q + rho(h_beta)) for roots q*delta + beta;
    chi_rates: (j, (l+g) j).  All entries exact Fractions.
    """

    label: str
    level: Fraction
    gdual: Fraction
    zeta_rows: tuple
    eta_rows: tuple
    chi_rates: tuple


def exponent_table(rs: RootSystem, seq: ReducedSequence, level,
                   horizon: int) -> ExponentTable:
    check_level(level)
    check_count("horizon", horizon, 1)
    level = Fraction(level)
    g = rs.dual_coxeter
    rho_h = [rs.rho_pairing(beta) for beta in rs.positive_roots]
    # the zeta rows are q*delta - beta for every beta > 0 and 1 <= q <= horizon;
    # as l + g > 0, their exponents 1 + (l+g)q - rho(h_beta) all exceed 1
    # iff those at q = 1 do
    bound = max(rho_h) - g
    if not level > bound:
        raise InvalidLevel(f"{rs.label} needs level > {bound}, got {level}")
    shift = level + g
    zeta_rows = []
    for tau in tau_sequence(seq, horizon):
        beta = tuple(-c for c in tau.beta)
        zeta_rows.append((tau.q, beta, 1 + shift * tau.q - rs.rho_pairing(beta)))
    eta_rows = [(q, beta, 1 + shift * q + r)
                for q in range(0, horizon + 1)
                for beta, r in zip(rs.positive_roots, rho_h)]
    chi = tuple((j, shift * j) for j in range(1, horizon + 1))
    return ExponentTable(label=rs.label, level=level, gdual=g,
                         zeta_rows=tuple(zeta_rows), eta_rows=tuple(eta_rows),
                         chi_rates=chi)
