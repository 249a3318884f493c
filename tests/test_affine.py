import time
from fractions import Fraction

import numpy as np
import pytest

from looplab.affine import (affine_weyl_apply, build_periodic_sequence,
                            build_root_system, default_period, exponent_table,
                            simple_affine_root, tau_sequence)
from looplab.errors import InvalidInput, InvalidLevel

F = Fraction

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9, "D4": 12,
    "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
}

DUAL_COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "B2": 3, "B3": 5, "C3": 4, "D4": 6,
    "G2": 4, "F4": 9, "E6": 12, "E7": 18, "E8": 30,
}


@pytest.mark.parametrize("label", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(label):
    rs = build_root_system(label)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[label]


@pytest.mark.parametrize("label", sorted(DUAL_COXETER))
def test_dual_coxeter_numbers(label):
    rs = build_root_system(label)
    assert rs.dual_coxeter == DUAL_COXETER[label]
    # and the defining relation g = 1 + sum of comarks, exactly
    assert rs.dual_coxeter == 1 + sum(rs.comarks)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_rho_pairs_to_one_on_simple_coroots(label):
    rs = build_root_system(label)
    for i in range(rs.rank):
        simple = tuple(1 if j == i else 0 for j in range(rs.rank))
        assert rs.rho_pairing(simple) == 1
    # theta normalized to squared length 2
    assert rs.inner(rs.theta, rs.theta) == 2


def test_unknown_label():
    with pytest.raises(InvalidInput):
        build_root_system("H3")


def test_g2_cartan_matrix():
    rs = build_root_system("G2")
    assert rs.cartan == ((2, -1), (-3, 2))


@pytest.mark.parametrize("label", sorted(POSITIVE_COUNTS))
def test_reflection_matrices_are_the_geometric_reflections(label):
    # r_alpha(gamma) = gamma - 2 <gamma, alpha>/<alpha, alpha> alpha on the
    # basis vectors delta and alpha_j; delta is null, so r_0, with
    # alpha_0 = delta - theta, shifts q by <gamma, theta> (<theta, theta> = 2)
    rs = build_root_system(label)
    r = rs.rank
    basis = [(1, (0,) * r)] + [(0, tuple(int(j == k) for j in range(r)))
                               for k in range(r)]
    for i in range(r + 1):
        R = rs.reflections[i]
        a = simple_affine_root(rs, i)
        for col, (q, beta) in enumerate(basis):
            c = 2 * rs.inner(beta, a.beta) / rs.inner(a.beta, a.beta)
            want = [q - c * a.q] + [b - c * ab for b, ab in zip(beta, a.beta)]
            assert R[:, col].tolist() == want
        assert (R @ R == np.eye(r + 1, dtype=int)).all()


def test_reflection_involution():
    rs = build_root_system("B2")
    x = (F(1, 5), F(1, 7))
    for i in range(rs.rank + 1):
        assert affine_weyl_apply(rs, [i, i], x) == x


def test_a1_r0_hand_value():
    # x = (1/4) h_alpha has alpha(x) = 1/2; reflecting in the wall theta = 1
    # lands on (3/4) h_alpha, i.e. alpha-value 3/2
    rs = build_root_system("A1")
    assert affine_weyl_apply(rs, [0], (F(1, 2),)) == (F(3, 2),)


def test_a1_walk_word_and_period():
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=4)
    assert seq.period_length == 2
    assert tuple(seq.index(n) for n in range(1, 7)) == (0, 1, 0, 1, 0, 1)


def test_a1_tau_sequence_closed_form():
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=6)
    taus = tau_sequence(seq, 6)
    assert taus[0] == simple_affine_root(rs, 0)
    assert [(t.q, t.beta) for t in taus] == [(k, (-1,)) for k in range(1, 7)]


@pytest.mark.parametrize("label,horizon", [
    ("A1", 3), ("A2", 3), ("B2", 3), ("G2", 3),
    # rank >= 3 needs the second basepoint family of build_periodic_sequence
    ("A3", 2), ("B3", 2), ("C3", 2), ("D4", 2), ("A4", 2), ("B4", 2),
    ("D5", 1), ("F4", 1), ("E6", 1), ("E7", 1), ("E8", 1)])
def test_tau_set_is_q_delta_minus_positive(label, horizon):
    rs = build_root_system(label)
    t0 = time.perf_counter()
    seq = build_periodic_sequence(rs, default_period(rs), horizon)
    taus = tau_sequence(seq, horizon)
    assert time.perf_counter() - t0 < 2.0
    got = {(t.q, t.beta) for t in taus}
    want = {(q, tuple(-b for b in beta))
            for q in range(1, horizon + 1) for beta in rs.positive_roots}
    assert got == want
    assert len(taus) == len(got)  # no repeats: reduced


def test_period_isometry_is_translation():
    # the length-L prefix acts on points as a pure lattice translation
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=3)
    L = seq.period_length
    x1, x2 = (F(1, 5),), (F(2, 7),)
    d1 = affine_weyl_apply(rs, seq.word(L), x1)[0] - x1[0]
    d2 = affine_weyl_apply(rs, seq.word(L), x2)[0] - x2[0]
    assert d1 == d2            # constant shift: no rotational part
    assert abs(d1) == 2        # alpha(h_alpha) = 2


def test_exponent_table_a1_exact():
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=100)
    for l in (F(0), F(1), F(7, 2)):
        t = exponent_table(rs, seq, l, 100)
        assert [e for (_, _, e) in t.zeta_rows] == [(l + 2) * k
                                                    for k in range(1, 101)]
        assert [e for (_, _, e) in t.eta_rows] == [2 + (l + 2) * i
                                                   for i in range(0, 101)]
        assert [r for (_, r) in t.chi_rates] == [(l + 2) * j
                                                 for j in range(1, 101)]


def test_exponent_table_a2_simple_root_value():
    rs = build_root_system("A2")
    seq = build_periodic_sequence(rs, default_period(rs), 2)
    t = exponent_table(rs, seq, F(0), 2)
    simple_rows = [e for (q, beta, e) in t.zeta_rows
                   if q == 1 and sum(abs(b) for b in beta) == 1]
    assert simple_rows and all(e == 3 for e in simple_rows)


def test_exponent_table_invalid_level():
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=4)
    with pytest.raises(InvalidLevel):
        exponent_table(rs, seq, F(-3, 2), 4)
    # B2 at level 0 has a marginal (exponent-1) zeta factor
    rs2 = build_root_system("B2")
    seq2 = build_periodic_sequence(rs2, default_period(rs2), 2)
    with pytest.raises(InvalidLevel):
        exponent_table(rs2, seq2, F(0), 2)


# max rho(h_beta) - g: h - 1 - g, with h the Coxeter number
LEVEL_BOUNDS = {"A1": -1, "A2": -1, "B2": 0, "C2": 0, "G2": 1, "A3": -1,
                "B3": 0, "C3": 1, "D4": -1, "F4": 2, "B4": 0, "C4": 2,
                "E6": -1, "E7": -1, "E8": -1}


@pytest.mark.parametrize("label", sorted(LEVEL_BOUNDS))
def test_level_bound_matches_zeta_rows(label):
    # the up-front bound rejects exactly the levels at which some zeta row
    # 1 + (l+g)q - rho(h_beta) of the horizon-1 table is <= 1
    rs = build_root_system(label)
    seq = build_periodic_sequence(rs, default_period(rs), 1)
    rows = [(t.q, rs.rho_pairing(tuple(-b for b in t.beta)))
            for t in tau_sequence(seq, 1)]
    for level in (F(k, 4) for k in range(-3, 13)):
        by_rows = all(1 + (level + rs.dual_coxeter) * q - rho_h > 1
                      for q, rho_h in rows)
        try:
            exponent_table(rs, seq, level, 1)
            accepted = True
        except InvalidLevel as exc:
            assert str(exc) == (f"{label} needs level > {LEVEL_BOUNDS[label]}"
                                f", got {level}")
            accepted = False
        assert accepted == by_rows, level


@pytest.mark.parametrize("horizon", [2.5, 0, -1, True])
def test_horizon_must_be_a_positive_integer(horizon):
    rs = build_root_system("A2")
    with pytest.raises(InvalidInput, match="horizon"):
        build_periodic_sequence(rs, default_period(rs), horizon)
    seq = build_periodic_sequence(rs, default_period(rs), 2)
    with pytest.raises(InvalidInput, match="horizon"):
        exponent_table(rs, seq, 0, horizon)
    with pytest.raises(InvalidInput, match="horizon"):
        tau_sequence(seq, horizon)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan")])
def test_exponent_table_non_finite_level(level):
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=4)
    with pytest.raises(InvalidLevel):
        exponent_table(rs, seq, level, 4)


def test_period_must_be_strictly_dominant():
    rs = build_root_system("B2")
    with pytest.raises(InvalidInput):
        build_periodic_sequence(rs, (0, 1), horizon=2)


def test_periodicity_of_isometries():
    # letters repeat with period L, so w_{s+L} == w_L o w_s as isometries
    rs = build_root_system("A2")
    seq = build_periodic_sequence(rs, default_period(rs), 3)
    L = seq.period_length
    x = (F(1, 11), F(1, 13))
    for s in (1, 2, 5):
        lhs = affine_weyl_apply(rs, seq.word(s + L), x)
        mid = affine_weyl_apply(rs, seq.word(s), x)
        rhs = affine_weyl_apply(rs, seq.word(L), mid)
        assert lhs == rhs


ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_coroot_table_matches_its_definitions(label):
    rs = build_root_system(label)
    r = rs.rank
    simple = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    for beta, h in zip(rs.positive_roots, rs.coroots.tolist()):
        # beta(h_beta) = sum_i h_i beta(h_i), beta(h_i) through Cartan row i
        assert sum(c * sum(a * b for a, b in zip(row, beta))
                   for c, row in zip(h, rs.cartan)) == 2
        # h_beta = sum_i c_i h_i = 2 beta/<beta, beta> with
        # h_i = 2 alpha_i/<alpha_i, alpha_i>: c_i <beta, beta> = beta_i <alpha_i, alpha_i>
        bb = rs.inner(beta, beta)
        assert all(c * bb == b * rs.inner(a, a)
                   for c, b, a in zip(h, beta, simple))
        assert rs.rho_pairing(beta) == sum(h)
    # alpha_j(h_theta) = 2 <alpha_j, theta>/<theta, theta>, <theta, theta> = 2
    assert rs.theta_vee == tuple(rs.inner(a, rs.theta) for a in simple)
    period = default_period(rs)
    values = {sum(p * row[a] for p, row in zip(period, rs.cartan))
              for a in range(r)}
    assert len(values) == 1 and values.pop() > 0
    assert any(p % 2 for p in period)


def test_period_coefficients_must_be_integers():
    rs = build_root_system("A2")
    for period in ((1.5, 1), (float("nan"), 1), (True, 1), (1, -1)):
        with pytest.raises(InvalidInput, match="period"):
            build_periodic_sequence(rs, period, 2)


@pytest.mark.parametrize("i", [3, 9, -1, 1.0, True])
def test_letters_must_name_a_simple_affine_root(i):
    rs = build_root_system("A2")
    with pytest.raises(InvalidInput, match="letter"):
        simple_affine_root(rs, i)
    with pytest.raises(InvalidInput, match="letter"):
        affine_weyl_apply(rs, [1, i], (F(1, 5), F(1, 7)))


@pytest.mark.parametrize("x", [(F(1, 5),), (F(1, 5), F(1, 7), F(1, 3)),
                               (float("nan"), 0.5)])
def test_point_needs_one_rational_value_per_node(x):
    rs = build_root_system("A2")
    with pytest.raises(InvalidInput, match="point"):
        affine_weyl_apply(rs, [0, 1], x)


def test_exponent_table_rejects_a_word_of_another_type():
    a2 = build_root_system("A2")
    seq = build_periodic_sequence(a2, default_period(a2), 2)
    with pytest.raises(InvalidInput, match="A2"):
        exponent_table(build_root_system("B2"), seq, 1, 2)
