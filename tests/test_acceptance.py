"""End-to-end gates, one test per criterion, each printing a PASS/FAIL line.

Gates A1-A6 check identities that hold exactly (up to numerics).  A7
certifies Kakutani's criterion: it brackets the Hellinger^2 series S(inf) of
the measure against its Gaussian background to within 1e-3, using an analytic
tail bound.  A8 ties the exponent tables of every root system type to the
general sine formula through the 1/H rate of their truncated products.  B1
and B2 are Monte Carlo conjecture-checks.  The B1 walk statistic and the B2
translation/reparameterization p-values are reported rather than asserted;
their harness self-tests (exact-sampler KS, power check, rotation equality)
are asserted.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from looplab.affine import (build_periodic_sequence, build_root_system,
                            default_period, exponent_table, tau_sequence)
from looplab.factorization import (a0_from_dets, birkhoff_factor,
                                   log_det_AstarA, toeplitz, triangular_factor)
from looplab.measures import MeasureSpec, hellinger_vs_gaussian
from looplab.rootsub import (coords_max_error, log_product_formula,
                             random_coords, recover_coords, synthesize)
from looplab.transforms import (finite_hc_check, general_sine_formula,
                                marginal_factor, mc_diagonal_transform,
                                partial_product, sine_formula_su2)
from looplab.wiener import (WienerConfig, eta0_pushforward_experiment,
                            invariance_experiment,
                            reparam_invariance_experiment)

LEVELS = (0.0, 1.0, 3.5)


def _report(name, ok, detail):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


@pytest.fixture(scope="module")
def ensemble():
    """20 sparse coordinate draws (support <= 8, moduli <= 0.5), levels
    cycling through {0, 1, 3.5}, with their synthesized loops."""
    out = []
    for trial in range(20):
        level = LEVELS[trial % 3]
        rng = np.random.default_rng([7, trial])
        c = random_coords(rng, level=level)
        out.append((c, synthesize(c)))
    return out


def test_A1_determinant_identities(ensemble):
    t0 = time.time()
    worst = 0.0
    for c, g in ensemble:
        M = max(64, g.band_width)
        ld = log_det_AstarA(toeplitz(g, M, shifted=False))
        ld1 = log_det_AstarA(toeplitz(g, M, shifted=True))
        # relative error of the determinant = expm1 of the log mismatch
        worst = max(worst,
                    abs(np.expm1(ld - log_product_formula(c, "detA"))),
                    abs(np.expm1(ld1 - log_product_formula(c, "detA1"))),
                    abs(np.expm1((ld1 - ld) - log_product_formula(c, "a0sq"))))
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 60
    _report("A1", ok, f"worst rel err {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-6
    assert dt < 60


def test_A2_factorization_round_trip(ensemble):
    t0 = time.time()
    worst_rt = worst_res = worst_a0 = 0.0
    for c, g in ensemble:
        rec = recover_coords(g, l_hint=c.level)
        worst_rt = max(worst_rt, coords_max_error(c, rec))
        M = max(64, g.band_width)
        _, _, _, res = birkhoff_factor(g, M)
        worst_res = max(worst_res, res)
        worst_a0 = max(worst_a0,
                       abs(triangular_factor(g, M).a0 - a0_from_dets(g, M)))
    dt = time.time() - t0
    ok = worst_rt < 1e-8 and worst_res < 1e-8 and worst_a0 < 1e-6 and dt < 60
    _report("A2", ok, f"roundtrip {worst_rt:.2e}, residual {worst_res:.2e}, "
                      f"a0 {worst_a0:.2e}, {dt:.1f}s")
    assert worst_rt < 1e-8
    assert worst_res < 1e-8
    assert worst_a0 < 1e-6
    assert dt < 60


def _quad_marginal(kind, index, l, lam):
    """Independent oracle: E[(1+s)^{+i lam}] (eta) / E[(1+s)^{-i lam}] (zeta)
    under the radial density (p-1)(1+s)^{-p}."""
    s = l + 2.0
    p = (2.0 + s * index) if kind == "eta" else s * index
    sgn = 1.0 if kind == "eta" else -1.0
    re, _ = quad(lambda x: (p - 1) * (1 + x) ** (-p)
                 * np.cos(sgn * lam * np.log1p(x)), 0, np.inf, limit=200)
    im, _ = quad(lambda x: (p - 1) * (1 + x) ** (-p)
                 * np.sin(sgn * lam * np.log1p(x)), 0, np.inf, limit=200)
    return re + 1j * im


def test_A3_marginal_closed_forms():
    t0 = time.time()
    worst = 0.0
    lams = np.linspace(-4.0, 4.0, 17)
    for l in LEVELS:
        for lam in lams:
            for i in range(6):
                worst = max(worst, abs(marginal_factor("eta", i, l, lam)
                                       - _quad_marginal("eta", i, l, lam)))
            for k in range(1, 6):
                worst = max(worst, abs(marginal_factor("zeta", k, l, lam)
                                       - _quad_marginal("zeta", k, l, lam)))
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 10
    _report("A3", ok, f"worst dev {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 10


def test_A4_sine_formula_convergence():
    t0 = time.time()
    worst_pp = 0.0
    worst_z = 0.0
    lams = (0.5, 1.0, 2.0)
    for l in (0.0, 1.0):
        spec = MeasureSpec.su2(l, 512)
        # one set of draws serves the three lambdas, each as if drawn alone
        mcs = mc_diagonal_transform(spec, np.array(lams), 10 ** 5, seed=11)
        for lam, mc in zip(lams, mcs):
            pp = partial_product(l, lam, 10 ** 5)
            worst_pp = max(worst_pp, abs(pp - sine_formula_su2(l, lam)))
            target = partial_product(l, lam, 512)
            worst_z = max(worst_z, abs(mc.value - target) / (3 * mc.stderr))
    dt = time.time() - t0
    ok = worst_pp < 1e-3 and worst_z < 1.0 and dt < 120
    _report("A4", ok, f"|product - sine| {worst_pp:.2e}, "
                      f"mc dev {worst_z:.2f}x(3se), {dt:.1f}s")
    assert worst_pp < 1e-3
    assert worst_z < 1.0
    assert dt < 120


def test_A5_finite_spherical_check():
    t0 = time.time()
    worst_z = 0.0
    for lam in (0.5, 1.0, 2.0):
        res = finite_hc_check(lam, 10 ** 5, seed=13)
        worst_z = max(worst_z,
                      abs(res.value - 1 / (1 - 1j * lam)) / (3 * res.stderr))
    dt = time.time() - t0
    ok = worst_z < 1.0 and dt < 30
    _report("A5", ok, f"worst dev {worst_z:.2f}x(3se), {dt:.1f}s")
    assert worst_z < 1.0
    assert dt < 30


def test_A6_affine_combinatorics():
    t0 = time.time()
    horizon = 3
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label)
        seq = build_periodic_sequence(rs, default_period(rs), horizon)
        # periodicity of the letters, exactly
        L = seq.period_length
        for n in range(1, 3 * L):
            assert seq.index(n + L) == seq.index(n)
        # tau_sequence raises if any prefix fails to be reduced
        taus = tau_sequence(seq, horizon)
        got = [(t.q, t.beta) for t in taus]
        assert len(set(got)) == len(got)
        want = {(q, tuple(-b for b in beta))
                for q in range(1, horizon + 1) for beta in rs.positive_roots}
        assert set(got) == want
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, (1,), horizon=100)
    for l in (Fraction(0), Fraction(1), Fraction(7, 2)):
        t = exponent_table(rs, seq, l, 100)
        assert [e for (_, _, e) in t.zeta_rows] == [(l + 2) * k
                                                    for k in range(1, 101)]
        assert [e for (_, _, e) in t.eta_rows] == [2 + (l + 2) * i
                                                   for i in range(0, 101)]
        assert [r for (_, r) in t.chi_rates] == [(l + 2) * j
                                                 for j in range(1, 101)]
    dt = time.time() - t0
    _report("A6", dt < 10, f"all exact, {dt:.1f}s")
    assert dt < 10


def _kl_vs_gaussian(p):
    """KL divergence of the radial law (p-1)(1+s)^{-p} from the Gaussian
    background of rate p, for p > 2.  Under the radial law log(1+s) is
    Exp(p-1) and E s = 1/(p-2), which gives the closed form."""
    return np.log1p(-1.0 / p) + p / ((p - 1.0) * (p - 2.0))


def _kl_tail_integral(P):
    """int_P^inf KL(p) dp in closed form, for P > 2."""
    return -1.0 - P * np.log1p(-1.0 / P) - 2.0 * np.log1p(-1.0 / (P - 1.0))


def test_A7_equivalence_diagnostic():
    # Kakutani (1948): the product measure is equivalent to its Gaussian
    # background iff S(inf) = sum of H^2 over all coordinates is finite.
    # S(N) sums eta_0..eta_{N-1} and zeta_1..zeta_N.  Every term is positive,
    # and H^2 = 2 - 2 BC <= -2 log BC <= KL (BC the Bhattacharyya
    # coefficient), so S(inf) lies in [S(N), S(N) + T(N)].  The omitted
    # exponents of each family are P + s, P + 2s, ... past its last kept
    # exponent P, and KL decreases for p > 2, so T(N) = sum over both families
    # of (1/s) int_P^inf KL bounds the omitted terms.  N is the smallest
    # multiple of 100 with T(N) < 1e-3: T = 9.62e-4 at l = 0, 9.27e-4 at l = 1.
    # H^2 = 5/(4p^2) + O(p^-3); evaluated from its Tricomi closed form (see
    # test_measures), |p(p^2 H^2 - 5/4)| stays below 1/4 on p in [2, 1e6] and
    # tends to 1/4.  The decay pin fails for a 1/p series or for a wrong
    # Gaussian reference rate.
    t0 = time.time()
    parts = []
    worst_T = worst_pin = 0.0
    for l, N in ((0.0, 1300), (1.0, 600)):
        spec = MeasureSpec.su2(l, N)
        h = np.array([hellinger_vs_gaussian(spec, i, "eta") for i in range(N)]
                     + [hellinger_vs_gaussian(spec, k, "zeta")
                        for k in range(1, N + 1)])
        p = np.concatenate([spec.eta_exponents, spec.zeta_exponents])
        assert np.all(h > 0)
        finite_kl = p > 2
        assert np.all(h[finite_kl] <= _kl_vs_gaussian(p[finite_kl]))
        S = float(h.sum())
        T = float(_kl_tail_integral(spec.eta_exponents[-1])
                  + _kl_tail_integral(spec.zeta_exponents[-1])) / (l + 2.0)
        worst_T = max(worst_T, T)
        pin = float(np.max(p * np.abs(p ** 2 * h - 1.25)))
        worst_pin = max(worst_pin, pin)
        parts.append(f"l={l:g}: N={N}, S(N)={S:.6f}, T(N)={T:.2e}, "
                     f"S(inf) in [{S:.6f}, {S + T:.6f}]")
    dt = time.time() - t0
    ok = worst_T < 1e-3 and worst_pin <= 0.3 and dt < 10
    _report("A7", ok, "; ".join(parts)
            + f"; decay pin {worst_pin:.3f} (gate 0.3), {dt:.1f}s")
    assert worst_T < 1e-3
    assert worst_pin <= 0.3
    assert dt < 10


A8_TYPES = ("A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4", "C4", "F4",
            "E6", "E7", "E8")


def _table_product(rs, lam, level, H):
    """Product of the marginal factors of the table at horizon H:
    (p-1)/(p-1-iL) over the eta rows with q < H and (p-1)/(p-1+iL) over all
    zeta rows, L = <lam, beta>/<beta, beta> for the row's root beta."""
    seq = build_periodic_sequence(rs, default_period(rs), H)
    table = exponent_table(rs, seq, level, H)
    L = {b: float(rs.inner(lam, b) / rs.inner(b, b)) for b in rs.positive_roots}
    out = 1.0 + 0.0j
    for q, beta, p in table.eta_rows:
        if q < H:
            out *= float(p - 1) / (float(p - 1) - 1j * L[beta])
    for _, beta, p in table.zeta_rows:
        out *= float(p - 1) / (float(p - 1) + 1j * L[beta])
    return out


def test_A8_exponent_tables_meet_the_general_sine_formula():
    # With p - 1 = (l+g)q -+ R_beta the table product P(H) is a ratio of
    # Gamma products; by the reflection formula it tends to the sine formula
    # at rate 1/H, so err(32)/err(16) -> 1/2 and the Richardson value
    # 2 P(32) - P(16) cancels the 1/H term.  A wrong exponent, root or
    # pairing convention leaves an O(1) gap and a ratio near 1.  Bounds from
    # the measured margins at l = 5/2 and these seeds: the ratio lies in
    # [0.4934, 0.5001] (gate [0.49, 0.51]) and the gap is at most 9.9e-6, on
    # G2 (gate 2e-5).
    t0 = time.time()
    level = Fraction(5, 2)
    ratios, gaps = [], []
    for k, label in enumerate(A8_TYPES):
        rs = build_root_system(label)
        rng = np.random.default_rng([41, k])
        lam = tuple(Fraction(int(v), 8) for v in rng.integers(-16, 17, rs.rank))
        f = general_sine_formula(rs, float(level), [float(v) for v in lam])
        p16, p32 = (_table_product(rs, lam, level, H) for H in (16, 32))
        ratios.append(abs(p32 - f) / abs(p16 - f))
        gaps.append(abs(2 * p32 - p16 - f))
    dt = time.time() - t0
    ok = all(0.49 <= r <= 0.51 for r in ratios) and max(gaps) <= 2e-5 and dt < 10
    _report("A8", ok, f"{len(A8_TYPES)} types, err ratio in "
                      f"[{min(ratios):.4f}, {max(ratios):.4f}], Richardson gap "
                      f"{max(gaps):.2e}, {dt:.1f}s")
    assert all(0.49 <= r <= 0.51 for r in ratios)
    assert max(gaps) <= 2e-5
    assert dt < 10


def test_B1_diagonal_law_of_brownian_loops():
    t0 = time.time()
    cfg = WienerConfig(beta=0.05, steps=256, n_samples=10 ** 4, seed=17)
    # harness self-test on the exact sampler first: build-breaking
    self_rep = eta0_pushforward_experiment(cfg, reference_level=0.0)
    assert self_rep.ks < 0.02, f"self-test KS {self_rep.ks:.4f}"
    walk_rep = eta0_pushforward_experiment(cfg)
    dt = time.time() - t0
    ok = walk_rep.ks < 0.05 and dt < 600
    _report("B1", ok, f"walk KS {walk_rep.ks:.4f} (gate 0.05, reported only), "
                      f"p={walk_rep.pvalue:.1e}, "
                      f"self-test KS {self_rep.ks:.4f}, "
                      f"failure rate {walk_rep.failure_rate:.3f}, {dt:.0f}s")
    # the conjecture-check itself is reported, not asserted
    assert dt < 600


def test_B2_invariance_experiments():
    t0 = time.time()
    spec = MeasureSpec.su2(0.0, 24)

    from looplab.loops import from_coeff_dict
    c, s = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, s], [-s, c]], dtype=complex)})
    trans = invariance_experiment(spec, h, "a0", 800, seed=19)

    rot = reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", 300,
                                        seed=19)
    hyp = reparam_invariance_experiment(spec, np.cosh(0.2), np.sinh(0.2),
                                        "a0", 800, seed=19)
    power = invariance_experiment(spec, None, "a0", 500, seed=19,
                                  spec_b=MeasureSpec.su2(2.0, 24))
    dt = time.time() - t0
    ok = (trans.pvalue > 0.01 and hyp.pvalue > 0.01
          and rot.max_per_sample_diff < 1e-9 and power.pvalue < 0.01
          and dt < 600)
    _report("B2", ok,
            f"translate p={trans.pvalue:.3f}, hyperbolic p={hyp.pvalue:.3f} "
            f"(reported), rotation max diff {rot.max_per_sample_diff:.1e}, "
            f"power p={power.pvalue:.1e}, {dt:.0f}s")
    # build-breaking pieces: exact rotation equality and the power check
    assert rot.max_per_sample_diff < 1e-9
    assert power.pvalue < 0.01
    assert dt < 600
