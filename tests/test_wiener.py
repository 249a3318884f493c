import numpy as np
import pytest
from scipy import stats

from looplab.errors import (ExperimentDegenerate, InvalidInput, LooplabError,
                            NotInTopStratum)
from looplab.factorization import _solve_hardy_columns, triangular_factor
from looplab.loops import (LaurentLoop, evaluate, from_coeff_dict, star,
                           unitarity_defect)
from looplab.measures import MeasureSpec, sample_coords
from looplab.rootsub import (log_product_formula, recover_coords, recover_eta0,
                             synthesize)
from looplab.wiener import (_OBSERVABLES, WienerConfig, _collect, _ks_two_sample,
                            _pinned_walk, eta0_pushforward_experiment,
                            invariance_experiment, reparam_invariance_experiment,
                            sample_brownian_loop)


def test_config_validation():
    for bad in (dict(beta=0.0), dict(beta=np.nan), dict(steps=4),
                dict(steps=16.5), dict(steps=True), dict(n_samples=0),
                dict(n_samples=2.0), dict(steps=16, band=2.5),
                dict(steps=16, band=-1), dict(steps=16, band=8)):
        with pytest.raises(InvalidInput):
            WienerConfig(**{"beta": 1.0, "steps": 64, "n_samples": 1, **bad})


def test_eta0_experiment_zero_samples_rejected():
    with pytest.raises(InvalidInput):
        eta0_pushforward_experiment(
            WienerConfig(beta=1.0, steps=32, n_samples=0, seed=2),
            reference_level=0.0)


def test_walk_closes_exactly():
    cfg = WienerConfig(beta=1.0, steps=64, n_samples=1, seed=11)
    pinned, _ = _pinned_walk(cfg, 0)
    assert np.abs(pinned[-1] - pinned[0]).max() < 1e-12
    # every grid value stays in the unitary group
    prods = np.einsum("kab,kcb->kac", pinned, pinned.conj())
    assert np.abs(prods - np.eye(2)).max() < 1e-10


def test_sample_deterministic():
    cfg = WienerConfig(beta=0.5, steps=32, n_samples=1, seed=7)
    a, _ = sample_brownian_loop(cfg, 3)
    b, _ = sample_brownian_loop(cfg, 3)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_low_temperature_stays_near_constant():
    # beta large => tiny diffusion: the loop hugs its starting point
    cfg = WienerConfig(beta=100.0, steps=64, n_samples=1, seed=0)
    sups = []
    for i in range(20):
        g, _ = sample_brownian_loop(cfg, i)
        vals = evaluate(g, 64)
        sups.append(np.abs(vals - vals[0]).max())
    assert np.median(sups) < 0.5


def test_projection_defect_controlled():
    cfg = WienerConfig(beta=2.0, steps=128, n_samples=1, seed=5)
    g, _ = sample_brownian_loop(cfg, 0)
    # band-limited projection of a unitary path: defect small at moderate beta
    assert unitarity_defect(g, 256) < 0.05


def test_self_test_exact_sampler():
    cfg = WienerConfig(beta=1.0, steps=32, n_samples=400, seed=2)
    rep = eta0_pushforward_experiment(cfg, reference_level=0.0)
    assert rep.n_effective > 350
    assert rep.ks < 0.07          # n=400: KS crit at 1% is ~0.0815
    assert rep.failure_rate < 0.1


def test_self_test_deterministic():
    cfg = WienerConfig(beta=1.0, steps=32, n_samples=50, seed=2)
    a = eta0_pushforward_experiment(cfg, reference_level=0.0)
    b = eta0_pushforward_experiment(cfg, reference_level=0.0)
    np.testing.assert_array_equal(a.eta0, b.eta0)
    assert a.ks == b.ks


def test_walk_pushforward_small_n():
    cfg = WienerConfig(beta=0.05, steps=128, n_samples=60, seed=1)
    rep = eta0_pushforward_experiment(cfg)
    assert rep.n_effective > 40
    # very loose smoke gate at this n; the acceptance run uses n = 10^4
    assert rep.ks < 0.25


def test_invariance_identity_translation_is_exact():
    spec = MeasureSpec.su2(0.0, 8)
    h = from_coeff_dict({0: np.eye(2)})
    rep = invariance_experiment(spec, h, "a0", 40, seed=0)
    assert rep.ks == 0.0 and rep.pvalue == 1.0


def test_invariance_requires_h_or_control():
    spec = MeasureSpec.su2(0.0, 8)
    with pytest.raises(InvalidInput):
        invariance_experiment(spec, None, "a0", 10, seed=0)


def test_reparam_rotation_per_sample_exact():
    spec = MeasureSpec.su2(0.0, 8)
    rep = reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", 30,
                                        seed=4)
    assert rep.max_per_sample_diff < 1e-9


def test_power_control_rejects():
    # note: abs_eta0 has no power here -- the eta_0 law is level-independent
    spec = MeasureSpec.su2(0.0, 12)
    spec_b = MeasureSpec.su2(2.0, 12)
    rep = invariance_experiment(spec, None, "a0", 300, seed=9,
                                spec_b=spec_b)
    assert rep.pvalue < 0.01


def test_invariance_zero_samples_rejected():
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput):
        invariance_experiment(MeasureSpec.su2(0.0, 4), h, "a0", 0)


def test_reparam_zero_samples_rejected():
    with pytest.raises(InvalidInput):
        reparam_invariance_experiment(MeasureSpec.su2(0.0, 4), np.exp(0.35j),
                                      0.0, "a0", 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)])
def test_reparam_non_finite_mobius_rejected(a, b):
    with pytest.raises(InvalidInput):
        reparam_invariance_experiment(MeasureSpec.su2(0.0, 4), a, b, "a0", 3)


def test_steep_chi_draw_is_kept():
    # this pair of truncation-24 draws holds one whose torus factor needs a
    # band above 256; a band-capped synthesis dropped it as failed
    s = int(np.random.SeedSequence([23, 30, 0]).generate_state(1)[0])
    c, sn = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, sn], [-sn, c]], dtype=complex)})
    rep = invariance_experiment(MeasureSpec.su2(0.0, 24), h, "a0", 2, seed=s)
    assert rep.n_effective == 2 and rep.failure_rate == 0.0


def test_invariance_rejects_a_3x3_translation():
    h = from_coeff_dict({0: np.eye(3)}, dim=3)
    with pytest.raises(InvalidInput, match="2x2"):
        invariance_experiment(MeasureSpec.su2(0.0, 4), h, "a0", 5, seed=0)


def test_unknown_observable():
    spec = MeasureSpec.su2(0.0, 4)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput):
        invariance_experiment(spec, h, "bogus", 5, seed=0)


def _synthesized_draws():
    """(coords, loop) for three draws at each truncation 12, 24 and level 0, 1."""
    for truncation in (12, 24):
        for level in (0.0, 1.0):
            spec = MeasureSpec.su2(level, truncation)
            for j in range(3):
                c = sample_coords(spec, np.random.default_rng([41, truncation,
                                                               int(level), j]))
                yield c, synthesize(c)


def test_observables_match_independent_routes():
    for c, g in _synthesized_draws():
        M = g.band_width + 4
        a0 = _OBSERVABLES["a0"](g, M)
        assert abs(a0 - triangular_factor(g, 2 * g.band_width).a0) <= 1e-10
        # a0 is read from g0 normalized to determinant 1: blind to a scalar
        g2 = LaurentLoop(2, g.n_min, g.n_max, 2.0 * g.coeffs)
        assert abs(_OBSERVABLES["a0"](g2, M) - a0) <= 1e-10
        assert abs(a0 - np.exp(0.5 * log_product_formula(c, "a0sq"))) <= 1e-10
        assert abs(_OBSERVABLES["abs_eta0"](g, M) - abs(c.eta[0])) <= 1e-10
        assert abs(_OBSERVABLES["abs_zeta1"](g, M) - abs(c.zeta[0])) <= 1e-10


def _rotation_plus_z(eps):
    """R + 0.1 z with R the rotation whose (1,1) entry is sin(eps): g0 = R,
    and eps = 0 gives J + 0.1 z with J = [[0, 1], [-1, 0]]."""
    c, s = np.sin(eps), np.cos(eps)
    return from_coeff_dict({0: np.array([[c, s], [-s, c]], dtype=complex),
                            1: 0.1 * np.eye(2)})


@pytest.mark.parametrize("eps", [0.0, 1e-13])
def test_one_top_stratum_rule_for_every_hardy_read_out(eps):
    # (g0)_11 = sin(eps) is below 1e-12 of the largest entry: no Hardy read-out
    # exists; at eps = 0, abs_zeta1 used to return 0.1
    g = _rotation_plus_z(eps)
    for obs in _OBSERVABLES.values():
        with pytest.raises(NotInTopStratum):
            obs(g, g.band_width + 4)
    with pytest.raises(NotInTopStratum):
        recover_eta0(g)
    with pytest.raises(NotInTopStratum):
        recover_coords(g)


def test_top_stratum_rule_admits_a_small_entry_above_it():
    g = _rotation_plus_z(1e-11)
    for obs in _OBSERVABLES.values():
        assert np.isfinite(obs(g, g.band_width + 4))
    assert np.isfinite(recover_eta0(g))


def _eta0_constant_block(g, M):
    """recover_eta0 as it read the constant block before the eta peel did."""
    H = _solve_hardy_columns(star(g), M)[0]
    return complex(np.conj(H[0, 1] / H[1, 1]))


def test_recover_eta0_is_the_constant_block_formula_bitwise():
    for c, g in _synthesized_draws():
        for M in (None, g.band_width + 4):
            ref = _eta0_constant_block(g, max(g.band_width, 8) if M is None else M)
            assert recover_eta0(g, M=M) == ref


def test_collect_counts_failures():
    def draw(i):
        if i % 3 == 0:
            raise LooplabError("failed draw")
        return i

    assert _collect(10, draw) == ([1, 2, 4, 5, 7, 8], 0.4)
    assert _collect(10, lambda i: draw(0) if i < 5 else i) == ([5, 6, 7, 8, 9], 0.5)
    with pytest.raises(ExperimentDegenerate):
        _collect(10, lambda i: draw(0) if i < 6 else i)


def test_ks_two_sample_at_one_step_is_exact_one():
    # interleaved samples reach D = 1/n, whose p-value is exactly 1
    n = 30
    a = np.arange(n, dtype=float)
    assert _ks_two_sample(a, a + 0.5) == (1.0 / n, 1.0)
    assert _ks_two_sample(a, a[::-1]) == (0.0, 1.0)
    # one step further, D = 2/n, scipy's exact routine succeeds
    res = stats.ks_2samp(a, a + 1.5)
    assert res.statistic == 2.0 / n
    assert _ks_two_sample(a, a + 1.5) == (res.statistic, res.pvalue)


@pytest.mark.parametrize("n", [40, 300, 10001])
def test_ks_two_sample_matches_scipy_default(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n) + 0.1
    res = stats.ks_2samp(a, b)
    assert _ks_two_sample(a, b) == (res.statistic, res.pvalue)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2.5, True, np.nan])
def test_experiment_sample_count_must_be_an_integer(n):
    spec = MeasureSpec.su2(0.0, 4)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput, match="n must be"):
        invariance_experiment(spec, h, "a0", n)
    with pytest.raises(InvalidInput, match="n must be"):
        reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", n)
