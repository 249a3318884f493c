"""Finite root systems, the affine Weyl group, reduced periodic words, and
the exponent tables feeding the general product measure.

Everything here is exact: roots are integer vectors in the simple-root
basis, points and pairings are Fractions, and no floating point enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInput, InvalidLevel, NonReducedSequence

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
    length 2.
    """

    label: str
    rank: int
    cartan: tuple                      # cartan[i][j] = alpha_j(h_i)
    positive_roots: tuple = field(repr=False)
    form: tuple = field(repr=False)    # form[i][j] = <alpha_i, alpha_j>
    theta: tuple
    rho: tuple                         # coefficients of rho-dot in simple roots
    comarks: tuple
    dual_coxeter: Fraction

    def pairing(self, beta, x):
        """beta(x) for x given by its simple-root values (alpha_i(x))_i."""
        return sum(Fraction(b) * Fraction(v) for b, v in zip(beta, x))

    def inner(self, beta, gamma):
        """<beta, gamma> in the normalized form."""
        return sum(Fraction(beta[i]) * self.form[i][j] * Fraction(gamma[j])
                   for i in range(self.rank) for j in range(self.rank))

    def coroot_values(self, beta):
        """(alpha_i(h_beta))_i, the value-coordinates of the coroot of beta."""
        bb = self.inner(beta, beta)
        return tuple(2 * self.inner(self._alpha(i), beta) / bb
                     for i in range(self.rank))

    def rho_pairing(self, beta):
        """rho-dot(h_beta) = 2 <rho-dot, beta> / <beta, beta>."""
        return 2 * self.inner(self.rho, beta) / self.inner(beta, beta)

    def _alpha(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def reflect_root(self, i, beta):
        """r_i(beta) = beta - beta(h_i) alpha_i."""
        pair = sum(beta[j] * self.cartan[i][j] for j in range(self.rank))
        return tuple(beta[j] - (pair if j == i else 0) for j in range(self.rank))


def build_root_system(label: str) -> RootSystem:
    family, rank = _parse_label(label)
    A = _cartan(family, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank))
              for i in range(rank)]

    def reflect(i, beta):
        pair = sum(beta[j] * A[i][j] for j in range(rank))
        return tuple(beta[j] - (pair if j == i else 0) for j in range(rank))

    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(rank):
                im = reflect(i, beta)
                if im not in roots:
                    new.add(im)
        roots |= new
        frontier = new
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

    rs = RootSystem(label=f"{family}{rank}", rank=rank,
                    cartan=tuple(tuple(row) for row in A),
                    positive_roots=tuple(positive),
                    form=form, theta=theta, rho=(0,) * rank,
                    comarks=(), dual_coxeter=Fraction(0))

    # rho-dot = sum_i f_i alpha_i with rho(h_j) = sum_i f_i A[j][i] = 1
    rho = _solve_fraction(A, [1] * rank)
    # comarks c_j: sum_j c_j alpha_i(h_j) = alpha_i(h_theta), where
    # alpha_i(h_j) = A[j][i]
    P = [[A[j][i] for j in range(rank)] for i in range(rank)]
    comarks = _solve_fraction(P, list(rs.coroot_values(theta)))
    gdual = 1 + sum(comarks)
    object.__setattr__(rs, "rho", rho)
    object.__setattr__(rs, "comarks", comarks)
    object.__setattr__(rs, "dual_coxeter", gdual)
    return rs


@dataclass(frozen=True)
class AffineRoot:
    """Real affine root q*delta + beta (beta a finite root; q >= 1 when beta
    is negative, q >= 0 when positive)."""

    q: int
    beta: tuple

    @property
    def imaginary(self) -> bool:
        return all(c == 0 for c in self.beta)

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


def _root_reflect_affine(rs: RootSystem, i: int, root: AffineRoot) -> AffineRoot:
    """Action of the affine simple reflection r_i on real affine roots."""
    if i >= 1:
        return AffineRoot(root.q, rs.reflect_root(i - 1, root.beta))
    # r_0: (q, beta) -> (q + beta(h_theta), r_theta(beta))
    bh = sum(Fraction(b) * v
             for b, v in zip(root.beta, rs.coroot_values(rs.theta)))
    if bh.denominator != 1:
        raise InvalidInput("non-integral coroot pairing")
    bh = int(bh)
    new_beta = tuple(root.beta[j] - bh * rs.theta[j] for j in range(rs.rank))
    return AffineRoot(root.q + bh, new_beta)


def _root_matrix(rs: RootSystem, i: int):
    """The (rank+1) x (rank+1) integer matrix of r_i on (q, beta) vectors."""
    r = rs.rank
    cols = []
    for b in range(r + 1):
        if b == 0:
            src = AffineRoot(1, (0,) * r)
        else:
            src = AffineRoot(0, tuple(1 if j == b - 1 else 0 for j in range(r)))
        im = _root_reflect_affine(rs, i, src)
        cols.append((im.q,) + tuple(im.beta))
    return tuple(tuple(cols[b][a] for b in range(r + 1)) for a in range(r + 1))


def _mat_mul(X, Y):
    n = len(X)
    return tuple(tuple(sum(X[a][c] * Y[c][b] for c in range(n))
                       for b in range(n)) for a in range(n))


def _mat_apply(X, v):
    n = len(X)
    return tuple(sum(X[a][c] * v[c] for c in range(n)) for a in range(n))


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
        xi = x[i - 1]
        hi_vals = rs.coroot_values(rs._alpha(i - 1))
        return tuple(x[j] - xi * hi_vals[j] for j in range(rs.rank))
    tv = rs.pairing(rs.theta, x)
    ht = rs.coroot_values(rs.theta)
    return tuple(x[j] + (1 - tv) * ht[j] for j in range(rs.rank))


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

    def point_isometry(self, n: int):
        """(matrix M, shift t) of w_n = r_{i_n} ... r_{i_1} acting on
        value-coordinates: x -> M x + t."""
        r = self.rs.rank
        M = [[Fraction(1 if a == b else 0) for b in range(r)] for a in range(r)]
        t = [Fraction(0)] * r
        for m in range(1, n + 1):
            i = self.index(m)
            zero_im = _point_reflect(self.rs, i, (Fraction(0),) * r)
            cols = [_point_reflect(self.rs, i,
                                   tuple(Fraction(1 if a == b else 0)
                                         for a in range(r)))
                    for b in range(r)]
            R = [[cols[b][a] - zero_im[a] for b in range(r)] for a in range(r)]
            newM = [[sum(R[a][c] * M[c][b] for c in range(r))
                     for b in range(r)] for a in range(r)]
            newt = [sum(R[a][c] * t[c] for c in range(r)) + zero_im[a]
                    for a in range(r)]
            M, t = newM, newt
        return tuple(tuple(row) for row in M), tuple(t)


def _dominant_values(rs: RootSystem, coroot_coeffs):
    """Value-coordinates of lambda = sum c_j h_j."""
    r = rs.rank
    vals = [Fraction(0)] * r
    for j, cj in enumerate(coroot_coeffs):
        hj = rs.coroot_values(rs._alpha(j))
        for a in range(r):
            vals[a] += Fraction(cj) * hj[a]
    return tuple(vals)


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


def _generic_basepoint(rs: RootSystem, tau: Fraction):
    """A point strictly inside the fundamental alcove with no arithmetic
    coincidences: alpha_i values proportional to 1 + i*tau, scaled so that
    theta evaluates to 1/2."""
    r = rs.rank
    raw = [1 + (i + 1) * tau for i in range(r)]
    S = 2 * sum(Fraction(rs.theta[i]) * raw[i] for i in range(r))
    return tuple(raw[i] / S for i in range(r))


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
    period = tuple(int(c) for c in period)
    if len(period) != rs.rank:
        raise InvalidInput("period must have one coroot coefficient per node")
    lam = _dominant_values(rs, period)
    if any(v <= 0 for v in lam):
        raise InvalidInput("period must be strictly dominant "
                           "(all simple-root values positive)")
    for tau_denom in (97, 101, 103, 107, 109):
        x0 = _generic_basepoint(rs, Fraction(1, tau_denom))
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
    W = None     # root-action matrix of w_{j-1}
    for _, m, beta in events:
        sigma = (m,) + tuple(-c for c in beta)
        gamma = sigma if W is None else _mat_apply(W, sigma)
        idx = _match_simple(rs, AffineRoot(gamma[0], tuple(gamma[1:])))
        if idx is None:
            raise NonReducedSequence(
                f"crossing {m}*delta - {beta} did not map to a simple root")
        R = _root_matrix(rs, idx)
        W = R if W is None else _mat_mul(R, W)
        prefix.append(idx)
    L = int(sum(rs.pairing(beta, lam) for beta in rs.positive_roots))
    if len(prefix) < L:
        raise NonReducedSequence("horizon too small to cover one full period")
    return ReducedSequence(rs=rs, prefix=tuple(prefix),
                           period_length=L, period_coroot=period)


def _match_simple(rs: RootSystem, gamma: AffineRoot):
    if gamma.q == 0:
        for i in range(rs.rank):
            if gamma.beta == rs._alpha(i):
                return i + 1
        return None
    if gamma.q == 1 and gamma.beta == tuple(-c for c in rs.theta):
        return 0
    return None


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
    Winv = None    # root-action matrix of w_{n-1}^{-1} = r_{i_1}...r_{i_{n-1}}
    for n in range(1, limit + 1):
        i = seq.index(n)
        alpha = simple_affine_root(rs, i)
        vec = (alpha.q,) + tuple(alpha.beta)
        img = vec if Winv is None else _mat_apply(Winv, vec)
        tau = AffineRoot(img[0], tuple(img[1:]))
        if not tau.is_positive(rs):
            raise NonReducedSequence(
                f"letter {n}: tau = {tau.q}*delta + {tau.beta} is negative")
        if tau.q <= horizon:
            taus.append(tau)
        R = _root_matrix(rs, i)
        Winv = R if Winv is None else _mat_mul(Winv, R)
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
    level = Fraction(level)
    if not level > -1:
        raise InvalidLevel(f"level {level} <= -1")
    g = rs.dual_coxeter
    shift = level + g
    zeta_rows = []
    for tau in tau_sequence(seq, horizon):
        beta = tuple(-c for c in tau.beta)
        zeta_rows.append((tau.q, beta, 1 + shift * tau.q - rs.rho_pairing(beta)))
    eta_rows = []
    for q in range(0, horizon + 1):
        for beta in rs.positive_roots:
            eta_rows.append((q, beta, 1 + shift * q + rs.rho_pairing(beta)))
    chi = tuple((j, shift * j) for j in range(1, horizon + 1))
    table = ExponentTable(label=rs.label, level=level, gdual=g,
                          zeta_rows=tuple(zeta_rows), eta_rows=tuple(eta_rows),
                          chi_rates=chi)
    for (_, _, e) in table.zeta_rows:
        if e <= 1:
            raise InvalidLevel(f"zeta exponent {e} <= 1 at level {level}")
    return table
