"""Finite root systems, the affine Weyl group, reduced periodic words, and
the exponent tables feeding the general product measure.

Everything here is exact: roots and coroots are integer vectors in the
simple-root and simple-coroot bases, the affine Weyl group acts on roots
and on points through the same integer matrices, and pairings are integers;
points are Fractions, and no floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

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


@dataclass(frozen=True)
class RootSystem:
    """Finite root system data, read off one integer coroot table.

    Roots are integer coefficient tuples in the simple-root basis.  Row k of
    ``coroots`` holds the coefficients of h_beta in the simple coroots h_i
    for beta = positive_roots[k]; the comarks, g, theta_vee and every
    rho(h_beta) are read off it.  The bilinear form matrix is normalized so
    the highest root has squared length 2.  Row i of ``simple_affine`` is
    the simple affine root alpha_i and ``reflections[i]`` the integer matrix
    of its reflection r_i, both on the coordinates (q, beta) of
    q*delta + beta.  Entries of a word's matrix grow with its horizon, far
    inside int64: at most 202 for A1 at horizon 200, 6 for E8 at horizon 2.
    """

    label: str
    rank: int
    cartan: tuple                      # cartan[i][j] = alpha_j(h_i)
    positive_roots: tuple = field(repr=False)
    form: tuple = field(repr=False)    # form[i][j] = <alpha_i, alpha_j>
    coroots: np.ndarray = field(repr=False, compare=False)
    theta: tuple
    theta_vee: tuple                   # (alpha_j(h_theta))_j
    comarks: tuple                     # h_theta = sum_i comarks[i] h_i
    dual_coxeter: int
    simple_affine: np.ndarray = field(repr=False, compare=False)
    reflections: np.ndarray = field(repr=False, compare=False)

    def inner(self, beta, gamma):
        """<beta, gamma> in the normalized form."""
        return sum(Fraction(beta[i]) * self.form[i][j] * Fraction(gamma[j])
                   for i in range(self.rank) for j in range(self.rank))

    def rho_pairing(self, beta):
        """rho-dot(h_beta) for a positive root beta: the height of h_beta."""
        beta = tuple(beta)
        if beta not in self.positive_roots:
            raise InvalidInput(f"{beta} is not a positive root of {self.label}")
        return int(self.coroots[self.positive_roots.index(beta)].sum())


def build_root_system(label: str) -> RootSystem:
    family, rank = _parse_label(label)
    A = _cartan(family, rank)
    cartan = np.array(A, dtype=np.int64)
    simple = [tuple(1 if j == i else 0 for j in range(rank))
              for i in range(rank)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        # row i of beta - diag(A beta) is r_i(beta) = beta - beta(h_i) alpha_i
        frontier = {tuple(im) for beta in frontier for im in
                    (np.array(beta) - np.diag(cartan @ beta)).tolist()} - roots
        roots |= frontier
    positive = sorted(b for b in roots if all(c >= 0 for c in b))

    # symmetrizer d_i with d_i A_ij = d_j A_ji, spread along the connected
    # Dynkin diagram, then cleared to integers
    d = {0: Fraction(1)}
    while len(d) < rank:
        d.update({j: d[i] * A[i][j] / A[j][i] for i in list(d)
                  for j in range(rank) if A[i][j] and j not in d})
    den = lcm(*(f.denominator for f in d.values()))
    d = np.array([int(d[i] * den) for i in range(rank)], dtype=np.int64)
    B = d[:, None] * cartan            # <alpha_i, alpha_j> up to scale

    theta = max(positive, key=lambda b: sum(b))
    if sum(sum(b) == sum(theta) for b in positive) != 1:
        raise InvalidInput("highest root is not unique (bad Cartan data)")
    # h_beta = 2 beta / <beta, beta> = sum_i 2 beta_i d_i / <beta, beta> h_i
    P = np.array(positive, dtype=np.int64)
    norms = np.einsum("ki,ij,kj->k", P, B, P)[:, None]
    if (2 * P * d % norms).any():
        raise InvalidInput("non-integral coroot pairing")
    coroots = 2 * P * d // norms
    k = positive.index(theta)
    form = tuple(tuple(Fraction(2 * int(v), int(norms[k, 0])) for v in row)
                 for row in B)
    comarks = coroots[k]
    theta_vee = comarks @ cartan       # alpha_j(h_theta) = sum_i c_i A_ij

    # alpha_0 = delta - theta and alpha_i = beta_{i-1}; row i of H is
    # gamma -> gamma(h_i) on (q, beta), with h_0 = -h_theta there
    S = np.eye(rank + 1, dtype=np.int64)
    S[0, 1:] = -P[k]
    H = np.zeros_like(S)
    H[0, 1:] = -theta_vee
    H[1:, 1:] = cartan
    # r_i(gamma) = gamma - gamma(h_i) alpha_i
    R = np.eye(rank + 1, dtype=np.int64) - S[:, :, None] * H[:, None, :]
    for table in (coroots, S, R):
        table.setflags(write=False)
    return RootSystem(label=f"{family}{rank}", rank=rank,
                      cartan=tuple(tuple(row) for row in A),
                      positive_roots=tuple(positive), form=form,
                      coroots=coroots, theta=theta,
                      theta_vee=tuple(theta_vee.tolist()),
                      comarks=tuple(comarks.tolist()),
                      dual_coxeter=1 + int(comarks.sum()),
                      simple_affine=S, reflections=R)


@dataclass(frozen=True)
class AffineRoot:
    """Real affine root q*delta + beta (beta a finite root; q >= 1 when beta
    is negative, q >= 0 when positive)."""

    q: int
    beta: tuple

    def is_positive(self) -> bool:
        # the coefficients of a finite root share one sign
        return self.q > 0 or (self.q == 0 and max(self.beta) > 0)


def _check_letter(rs: RootSystem, i) -> None:
    check_count("letter", i, 0)
    if i > rs.rank:
        raise InvalidInput(f"letter must be <= {rs.rank} for {rs.label}, got {i}")


def simple_affine_root(rs: RootSystem, i: int) -> AffineRoot:
    _check_letter(rs, i)
    q, *beta = rs.simple_affine[i].tolist()
    return AffineRoot(q, tuple(beta))


def affine_weyl_apply(rs: RootSystem, word, x):
    """Apply the word of simple affine reflections (leftmost applied last)
    to a point x of the affine slice, given by its values (alpha_i(x))_i.

    r_i (i >= 1) reflects in the wall alpha_i = 0; r_0 reflects in theta = 1.
    The affine root f = (q, beta) takes the value f . v(x) at x, with
    v(x) = (1, alpha_1(x), ..., alpha_r(x)); f(r_i x) = (r_i f)(x) gives
    v(r_i x) = R_i^T v(x) for the root action R_i = rs.reflections[i].
    """
    word = list(word)
    for i in word:
        _check_letter(rs, i)
    try:
        x = tuple(Fraction(v) for v in x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"point must have rational values, got {x!r}") from exc
    if len(x) != rs.rank:
        raise InvalidInput(f"point needs {rs.rank} simple-root values, got {len(x)}")
    v = np.array((Fraction(1), *x), dtype=object)
    for i in reversed(word):
        v = rs.reflections[i].T @ v
    return tuple(v[1:])


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
        check_count("letter index", n, 1)
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        L = self.period_length
        base = len(self.prefix) - L
        return self.prefix[base + (n - 1 - base) % L]

    def word(self, n: int) -> tuple:
        check_count("word length", n, 0)
        return tuple(self.index(m) for m in range(1, n + 1))


def default_period(rs: RootSystem):
    """rho-check = half the sum of the positive coroots, in the simple
    coroots, whose simple-root values all equal 1; twice it when that is not
    a coroot-lattice point."""
    s = rs.coroots.sum(axis=0)
    return tuple((s if (s % 2).any() else s // 2).tolist())


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

    The walls beta = m (beta > 0 finite, m >= 1) are crossed at the times
    t = (m - beta(x0)) / beta(lambda), compared exactly as the integers
    t*D*N, D the common denominator of x0 and N the lcm of the beta(lambda);
    sorting all crossings up to the time covering delta-coefficient
    `horizon` for every root gives the word: crossing j carries
    tau_j = m delta - beta, and pushing tau_j through the prefix built so
    far must land on a simple affine root, whose index is the next letter.
    """
    check_count("horizon", horizon, 1)
    period = tuple(period)
    if len(period) != rs.rank:
        raise InvalidInput("period must have one coroot coefficient per node")
    for c in period:
        check_count("period coefficient", c, 0)
    period = tuple(int(c) for c in period)
    # alpha_a(lambda) = sum_j p_j alpha_a(h_j) = sum_j p_j cartan[j][a]
    lam = [sum(p * row[a] for p, row in zip(period, rs.cartan))
           for a in range(rs.rank)]
    if any(v <= 0 for v in lam):
        raise InvalidInput("period must be strictly dominant "
                           "(all simple-root values positive)")
    bl = [sum(b * v for b, v in zip(beta, lam)) for beta in rs.positive_roots]
    N = lcm(*bl)
    for x0 in _generic_basepoints(rs):
        D = lcm(*(v.denominator for v in x0))
        X = [int(v * D) for v in x0]
        # D*beta(x0) and N/beta(lambda) per root: key(m) = (m D - b0) s
        roots = [(beta, sum(b * v for b, v in zip(beta, X)), N // l)
                 for beta, l in zip(rs.positive_roots, bl)]
        key_end = max(((horizon + 1) * D - b0) * s for _, b0, s in roots)
        events = []
        for beta, b0, s in roots:
            m = 1
            while (m * D - b0) * s <= key_end:
                events.append(((m * D - b0) * s, m, beta))
                m += 1
        if len({e[0] for e in events}) == len(events):
            break
    else:
        raise NonReducedSequence("could not find a tie-free basepoint")
    events.sort()

    letter = {tuple(row): i for i, row in enumerate(rs.simple_affine.tolist())}
    prefix = []
    W = np.eye(rs.rank + 1, dtype=np.int64)     # root action of w_{j-1}
    for _, m, beta in events:
        gamma = (W @ np.array((m, *(-c for c in beta)))).tolist()
        idx = letter.get(tuple(gamma))
        if idx is None:
            raise NonReducedSequence(
                f"crossing {m}*delta - {beta} did not map to a simple root")
        W = rs.reflections[idx] @ W
        prefix.append(idx)
    L = sum(bl)
    if len(prefix) < L:
        raise NonReducedSequence("horizon too small to cover one full period")
    return ReducedSequence(rs=rs, prefix=tuple(prefix),
                           period_length=L, period_coroot=period)


def tau_sequence(seq: ReducedSequence, horizon: int):
    """tau_j = w_{j-1}^{-1} . gamma_j recomputed from the letters alone.

    Raises NonReducedSequence when some tau_j fails to be positive.  Returns
    the roots with delta-coefficient q <= horizon (complete: iteration
    continues far enough that no further letters can contribute).
    """
    check_count("horizon", horizon, 1)
    rs = seq.rs
    n_pos = len(rs.positive_roots)
    limit = (horizon + 1) * seq.period_length + len(seq.prefix) + n_pos
    taus = []
    # root action of w_{n-1}^{-1} = r_{i_1}...r_{i_{n-1}}
    Winv = np.eye(rs.rank + 1, dtype=np.int64)
    for n in range(1, limit + 1):
        i = seq.index(n)
        q, *beta = (Winv @ rs.simple_affine[i]).tolist()
        tau = AffineRoot(q, tuple(beta))
        if not tau.is_positive():
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
    chi_rates: (j, (l+g) j).  All entries exact Fractions; g is an integer.
    """

    label: str
    level: Fraction
    gdual: int
    zeta_rows: tuple
    eta_rows: tuple
    chi_rates: tuple


def exponent_table(rs: RootSystem, seq: ReducedSequence, level,
                   horizon: int) -> ExponentTable:
    check_level(level)
    check_count("horizon", horizon, 1)
    if seq.rs.label != rs.label:
        raise InvalidInput(f"a word of {seq.rs.label} cannot index a table "
                           f"of {rs.label}")
    level = Fraction(level)
    g = rs.dual_coxeter
    rho_h = dict(zip(rs.positive_roots, rs.coroots.sum(axis=1).tolist()))
    # the zeta rows are q*delta - beta for every beta > 0 and 1 <= q <= horizon;
    # as l + g > 0, their exponents 1 + (l+g)q - rho(h_beta) all exceed 1
    # iff those at q = 1 do
    bound = max(rho_h.values()) - g
    if not level > bound:
        raise InvalidLevel(f"{rs.label} needs level > {bound}, got {level}")
    shift = level + g
    zeta_rows = []
    for tau in tau_sequence(seq, horizon):
        beta = tuple(-c for c in tau.beta)
        zeta_rows.append((tau.q, beta, 1 + shift * tau.q - rho_h[beta]))
    eta_rows = [(q, beta, 1 + shift * q + r)
                for q in range(0, horizon + 1) for beta, r in rho_h.items()]
    chi = tuple((j, shift * j) for j in range(1, horizon + 1))
    return ExponentTable(label=rs.label, level=level, gdual=g,
                         zeta_rows=tuple(zeta_rows), eta_rows=tuple(eta_rows),
                         chi_rates=chi)
