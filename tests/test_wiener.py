import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from looplab import wiener
from looplab.affine import (build_periodic_sequence, build_root_system,
                            default_period, exponent_table)
from looplab.errors import (ConvergenceFailure, ExperimentDegenerate,
                            InvalidInput, InvalidLevel, LooplabError,
                            NotInTopStratum)
from looplab.factorization import hardy_columns, triangular_factor
from looplab.loops import (LaurentLoop, evaluate, from_coeff_dict,
                           mobius_reparam, multiply, star, unitarity_defect)
from looplab.measures import MeasureSpec, sample_coords
from looplab.rootsub import (OBSERVABLES, _a0, _hardy_columns,
                             log_product_formula, recover_coords,
                             recover_eta0, synthesize)
from looplab.wiener import (WienerConfig, _collect, _ks_two_sample,
                            _ks_uniform, _pinned_walks, _walk_loop, _walk_stream,
                            eta0_pushforward_experiment, invariance_experiment,
                            reparam_invariance_experiment)

from oracles import ks_two_sample, pinned_walk, raw_walk, su2_log_vector


def test_config_validation():
    for bad in (dict(beta=0.0), dict(beta=np.nan), dict(steps=4),
                dict(steps=16.5), dict(steps=True), dict(n_samples=0),
                dict(n_samples=2.0), dict(steps=16, band=2.5),
                dict(steps=16, band=-1), dict(steps=16, band=8),
                dict(seed=-1), dict(seed=np.nan), dict(seed=2.5)):
        with pytest.raises(InvalidInput):
            WienerConfig(**{"beta": 1.0, "steps": 64, "n_samples": 1, **bad})


@pytest.mark.parametrize("beta", [np.inf, -np.inf])
def test_config_rejects_a_non_finite_beta(beta):
    # t = 1/beta = 0 would make every walk the constant identity
    with pytest.raises(InvalidInput, match="beta must be a finite number > 0"):
        WienerConfig(beta=beta, steps=16, n_samples=2)


def test_eta0_experiment_zero_samples_rejected():
    with pytest.raises(InvalidInput):
        eta0_pushforward_experiment(
            WienerConfig(beta=1.0, steps=32, n_samples=0, seed=2),
            reference_level=0.0)


def test_walk_closes_exactly():
    cfg = WienerConfig(beta=1.0, steps=64, n_samples=1, seed=11)
    pinned = _pinned_walks(cfg, [0])[0]
    assert np.abs(pinned[-1] - pinned[0]).max() < 1e-12
    # every grid value stays in the unitary group
    prods = np.einsum("kab,kcb->kac", pinned, pinned.conj())
    assert np.abs(prods - np.eye(2)).max() < 1e-10


def test_pinned_walks_match_the_oracle_bitwise():
    # 300 samples cross the stream's chunk boundary at 256
    cfg = WienerConfig(beta=0.05, steps=256, n_samples=300, seed=3)
    stream = list(_walk_stream(cfg))
    assert len(stream) == 300
    for i, values in enumerate(stream):
        assert values.tobytes() == pinned_walk(cfg, i).tobytes()
    values = _pinned_walks(cfg, [299, 0, 257])
    for j, i in enumerate([299, 0, 257]):
        assert values[j].tobytes() == stream[i].tobytes()


def _branch_cut_at(monkeypatch, endpoints):
    """Make _su2_log report the branch cut (a NaN row) at the given
    endpoints."""
    real = wiener._su2_log

    def log(g):
        out = real(g)
        for j, end in enumerate(g):
            if any(np.array_equal(end, e) for e in endpoints):
                out[j] = np.nan
        return out

    monkeypatch.setattr(wiener, "_su2_log", log)


def _su2_stack(n, seed):
    """n SU(2) matrices exp(i v.sigma), |v| spread over [0, pi)."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    v *= (np.pi * rng.random(n) / np.linalg.norm(v, axis=-1))[:, None]
    return wiener._su2_exp(v)


def test_stacked_log_matches_the_per_matrix_log_bitwise():
    g = np.concatenate([_su2_stack(500, 4), [np.diag([1j, -1j])]])
    out = wiener._su2_log(g)
    assert out.shape == (501, 3)
    for j in range(501):
        assert out[j].tobytes() == su2_log_vector(g[j]).tobytes()
    # a 2-D stack keeps its leading axes
    assert wiener._su2_log(g[:500].reshape(25, 20, 2, 2)).tobytes() == out[:500].tobytes()


def test_stacked_log_is_nan_at_the_branch_cut_and_zero_at_the_identity():
    near = wiener._su2_exp(np.array([0.0, 0.0, np.pi - 1e-7]))
    assert abs(near + np.eye(2)).max() < 2e-7
    g = np.stack([-np.eye(2, dtype=complex), near, np.eye(2, dtype=complex),
                  _su2_stack(1, 8)[0]])
    for cut in g[:2]:
        with pytest.raises(LooplabError, match="branch cut"):
            su2_log_vector(cut)
    out = wiener._su2_log(g)
    assert np.isnan(out[:2]).all()
    assert out[2].tobytes() == np.zeros(3).tobytes()
    assert out[3].tobytes() == su2_log_vector(g[3]).tobytes()


def test_branch_cut_hit_redraws_only_that_sample(monkeypatch):
    cfg = WienerConfig(beta=1.0, steps=32, n_samples=5, seed=11)
    clean = _pinned_walks(cfg, range(5))
    # sample 3's endpoint hits the cut: it is not redrawn, its walk comes back
    # NaN, and every other sample keeps its bits
    _branch_cut_at(monkeypatch, [raw_walk(cfg, 3)[-1]])
    values = _pinned_walks(cfg, range(5))
    assert np.isnan(values[3]).all()
    for i in (0, 1, 2, 4):
        assert values[i].tobytes() == clean[i].tobytes()
        assert values[i].tobytes() == pinned_walk(cfg, i).tobytes()
    with pytest.raises(ExperimentDegenerate, match="branch cut"):
        _walk_loop(cfg, values[3])


def test_walk_failing_every_attempt_fails_only_its_draw(monkeypatch):
    cfg = WienerConfig(beta=1.0, steps=32, n_samples=5, seed=11)
    clean = eta0_pushforward_experiment(cfg)
    assert clean.n_effective == 5
    # each walk gets one attempt; sample 2's fails at the cut
    _branch_cut_at(monkeypatch, [raw_walk(cfg, 2)[-1]])
    assert np.isnan(_pinned_walks(cfg, [2])[0]).all()
    rep = eta0_pushforward_experiment(cfg)
    assert rep.n_effective == 4 and rep.failure_rate == 0.2
    assert np.delete(clean.eta0, 2).tobytes() == rep.eta0.tobytes()


def _walk_loop_at(cfg, i):
    return _walk_loop(cfg, _pinned_walks(cfg, [i])[0])


def test_sample_deterministic():
    cfg = WienerConfig(beta=0.5, steps=32, n_samples=1, seed=7)
    a = _walk_loop_at(cfg, 3)
    b = _walk_loop_at(cfg, 3)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_low_temperature_stays_near_constant():
    # beta large => tiny diffusion: the loop hugs its starting point
    cfg = WienerConfig(beta=100.0, steps=64, n_samples=1, seed=0)
    sups = []
    for i in range(20):
        g = _walk_loop_at(cfg, i)
        vals = evaluate(g, 64)
        sups.append(np.abs(vals - vals[0]).max())
    assert np.median(sups) < 0.5


def test_projection_defect_controlled():
    cfg = WienerConfig(beta=2.0, steps=128, n_samples=1, seed=5)
    g = _walk_loop_at(cfg, 0)
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


def test_invariance_rejects_both_h_and_control():
    # the power control used to drop h without a word
    spec = MeasureSpec.su2(0.0, 8)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput, match="not both"):
        invariance_experiment(spec, h, "a0", 5, seed=1,
                              spec_b=MeasureSpec.su2(2.0, 8))


def test_reparam_rotation_per_sample_exact():
    spec = MeasureSpec.su2(0.0, 8)
    rep = reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", 30,
                                        seed=4)
    assert rep.max_per_sample_diff < 1e-9


@pytest.mark.parametrize("truncation", [12, 24])
@pytest.mark.parametrize("s", [0.2, 0.5])
def test_hyperbolic_a0_is_the_constant_factor_of_the_composition(s, truncation):
    # phi = sigma^-1 = (cosh s, -sinh s) maps the disc onto itself, so with
    # g = g_- g0 g_+ the loop g o phi = (g_- o phi) g0 (g_+ o phi) has the
    # constant factor g_-(phi(inf)) g0 g_+(phi(0)), whose a0 is |G_11|/sqrt|det G|
    a, b = np.cosh(s), np.sinh(s)
    p0, pinf = -b / a, -a / b              # phi(0), phi(inf)
    for i in range(3):
        g = synthesize(sample_coords(MeasureSpec.su2(0.0, truncation),
                                     np.random.default_rng([41, truncation, i])))
        M = 2 * g.band_width
        # X holds the series h = (g0 g_+)^-1: g0 = X[0]^-1, g_+ = X[0] h^-1,
        # so g0 g_+(p0) = h(p0)^-1, and g_- = g h, read off its modes <= 0
        X = hardy_columns(g, M)[0]
        h_p0 = np.tensordot(p0 ** np.arange(M + 1), X, axes=1)
        gm = multiply(g, LaurentLoop(2, 0, M, X))
        gm_inf = np.tensordot(pinf ** np.arange(gm.n_min, 1),
                              gm.coeffs[:1 - gm.n_min], axes=1)
        G = gm_inf @ np.linalg.inv(h_p0)
        expected = abs(G[0, 0]) / np.sqrt(abs(np.linalg.det(G)))
        got = _a0(mobius_reparam(g, a, b, band_out=2 * g.band_width))
        assert abs(got - expected) <= 1e-10 * expected


def test_power_control_rejects():
    # note: abs_eta0 has no power here -- the eta_0 law is level-independent
    spec = MeasureSpec.su2(0.0, 12)
    spec_b = MeasureSpec.su2(2.0, 12)
    rep = invariance_experiment(spec, None, "a0", 300, seed=9,
                                spec_b=spec_b)
    assert rep.pvalue < 0.01


def _closed_form_runs():
    """The runs whose two streams are both read from their coordinates: the
    power control and the two identity modes."""
    spec = MeasureSpec.su2(0.0, 12)
    return {
        "power": lambda: invariance_experiment(
            spec, None, "a0", 40, seed=9, spec_b=MeasureSpec.su2(2.0, 12)),
        "identity": lambda: invariance_experiment(
            spec, from_coeff_dict({0: np.eye(2)}), "abs_zeta1", 40, seed=9),
        "reparam-identity": lambda: reparam_invariance_experiment(
            spec, 1.0, 0.0, "abs_eta0", 40, seed=9),
    }


def _translate_run():
    c, sn = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, sn], [-sn, c]], dtype=complex)})
    return invariance_experiment(MeasureSpec.su2(0.0, 12), h, "a0", 6, seed=9)


def _synthesis_fails(monkeypatch):
    def synthesize(c):
        raise ConvergenceFailure("synthesis rejects every draw")
    monkeypatch.setattr(wiener, "synthesize", synthesize)


@pytest.mark.parametrize("name", sorted(_closed_form_runs()))
def test_closed_form_streams_are_not_synthesized(monkeypatch, name):
    # a synthesis that rejects every draw leaves these runs as they were
    run = _closed_form_runs()[name]
    clean = run()
    _synthesis_fails(monkeypatch)
    rep = run()
    assert rep == clean and rep.n_effective == 40 and rep.failure_rate == 0.0


def test_translation_drops_every_draw_synthesis_rejects(monkeypatch):
    _synthesis_fails(monkeypatch)
    with pytest.raises(ExperimentDegenerate, match="failure rate 1.00"):
        _translate_run()


def test_only_the_loop_streams_call_synthesize(monkeypatch):
    calls, real = [], wiener.synthesize

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(wiener, "synthesize", counted)
    assert _translate_run().n_effective == 6
    assert len(calls) == 6
    for run in _closed_form_runs().values():
        run()
    assert len(calls) == 6


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


def _a2_spec():
    rs = build_root_system("A2")
    table = exponent_table(rs, build_periodic_sequence(rs, default_period(rs), 4),
                           Fraction(0), 4)
    return MeasureSpec.from_exponent_table(table, 4)


def test_translation_rejects_a_general_source_spec():
    # the harness would synthesize SU(2) loops from the flat A2 coordinates
    c, sn = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, sn], [-sn, c]], dtype=complex)})
    with pytest.raises(InvalidInput, match="spec must be an su2 MeasureSpec"):
        invariance_experiment(_a2_spec(), h, "a0", 3, seed=0)


def test_reparam_rejects_a_general_source_spec():
    with pytest.raises(InvalidInput, match="spec must be an su2 MeasureSpec"):
        reparam_invariance_experiment(_a2_spec(), np.cosh(0.3), np.sinh(0.3),
                                      "a0", 3, seed=0)


def test_power_control_rejects_a_general_source_spec_b():
    with pytest.raises(InvalidInput, match="spec_b must be an su2 MeasureSpec"):
        invariance_experiment(MeasureSpec.su2(0.0, 4), None, "a0", 3, seed=0,
                              spec_b=_a2_spec())


def test_invariance_rejects_a_matrix_for_h():
    with pytest.raises(InvalidInput, match="h must be a LaurentLoop"):
        invariance_experiment(MeasureSpec.su2(0.0, 4), np.eye(2), "a0", 3)


@pytest.mark.parametrize("run", [
    lambda: invariance_experiment("su2", from_coeff_dict({0: np.eye(2)}),
                                  "a0", 3),
    lambda: invariance_experiment(MeasureSpec.su2(0.0, 4), None, "a0", 3,
                                  spec_b="su2"),
    lambda: reparam_invariance_experiment("su2", np.cosh(0.3), np.sinh(0.3),
                                          "a0", 3),
], ids=["translate", "power", "reparam"])
def test_experiments_reject_a_string_spec(run):
    with pytest.raises(InvalidInput, match="su2 MeasureSpec, got str"):
        run()


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
        a0 = OBSERVABLES["a0"][0](g, M)
        assert abs(a0 - triangular_factor(g, 2 * g.band_width).a0) <= 1e-10
        # a0 is read from g0 normalized to determinant 1: blind to a scalar
        g2 = LaurentLoop(2, g.n_min, g.n_max, 2.0 * g.coeffs)
        assert abs(OBSERVABLES["a0"][0](g2, M) - a0) <= 1e-10
        assert abs(a0 - np.exp(0.5 * log_product_formula(c, "a0sq"))) <= 1e-10
        assert abs(OBSERVABLES["abs_eta0"][0](g, M) - abs(c.eta[0])) <= 1e-10
        assert abs(OBSERVABLES["abs_zeta1"][0](g, M) - abs(c.zeta[0])) <= 1e-10
        for read, closed in OBSERVABLES.values():
            assert abs(read(g, M) - closed(c)) <= 1e-10


def _harness_values(monkeypatch, run):
    """(i, first value, second value) of every draw i the harness kept in
    run(), as _paired_experiment's draw returned them."""
    kept, real = [], wiener._collect

    def collect(n, draw):
        def recorded(i):
            va, vb = draw(i)
            kept.append((i, va, vb))
            return va, vb
        return real(n, recorded)

    monkeypatch.setattr(wiener, "_collect", collect)
    run()
    return kept


@pytest.mark.parametrize("observable", sorted(OBSERVABLES))
@pytest.mark.parametrize("truncation", [12, 24])
@pytest.mark.parametrize("level", [0.0, 2.0])
def test_harness_reads_synthesized_draws_as_the_hardy_read_out(
        monkeypatch, observable, truncation, level):
    # oracle: the converged Hardy read-out of synthesize(c) for each draw c
    # the harness read in closed form, in the translation and in both
    # streams of the power control (against the other level)
    read = OBSERVABLES[observable][0]
    spec = MeasureSpec.su2(level, truncation)
    spec_b = MeasureSpec.su2(2.0 - level, truncation)

    def oracle(s, key):
        return read(synthesize(sample_coords(s, np.random.default_rng(key))))

    c, sn = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, sn], [-sn, c]], dtype=complex)})
    kept = _harness_values(monkeypatch, lambda: invariance_experiment(
        spec, h, observable, 4, seed=5))
    assert len(kept) == 4
    for i, va, _ in kept:
        assert abs(va - oracle(spec, [5, i])) <= 1e-10
    kept = _harness_values(monkeypatch, lambda: invariance_experiment(
        spec, None, observable, 4, seed=5, spec_b=spec_b))
    assert len(kept) == 4
    for i, va, vb in kept:
        assert abs(va - oracle(spec, [5, i])) <= 1e-10
        assert abs(vb - oracle(spec_b, [5, i, 1])) <= 1e-10


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
    for read, _ in OBSERVABLES.values():
        with pytest.raises(NotInTopStratum):
            read(g, g.band_width + 4)
    with pytest.raises(NotInTopStratum):
        recover_eta0(g)
    with pytest.raises(NotInTopStratum):
        recover_coords(g)


def test_top_stratum_rule_admits_a_small_entry_above_it():
    g = _rotation_plus_z(1e-11)
    for read, _ in OBSERVABLES.values():
        assert np.isfinite(read(g, g.band_width + 4))
    assert np.isfinite(recover_eta0(g))


def _eta0_constant_block(g, M):
    """recover_eta0 as it read the constant block before the eta peel did."""
    H = hardy_columns(star(g), M)[0][0]
    return complex(np.conj(H[0, 1] / H[1, 1]))


def test_recover_eta0_is_the_constant_block_formula_bitwise():
    for c, g in _synthesized_draws():
        for M in (None, g.band_width + 4):
            # M=None: the formula at the cutoff the converged solve chose
            M_ref = len(_hardy_columns(star(g))) - 1 if M is None else M
            assert recover_eta0(g, M=M) == _eta0_constant_block(g, M_ref)


def _chosen_cutoff(g):
    return len(_hardy_columns(g)) - 1


@pytest.mark.parametrize("truncation", [12, 24])
@pytest.mark.parametrize("level", [0.0, 1.0, 2.0])
def test_converged_observables_match_closed_forms(truncation, level):
    spec = MeasureSpec.su2(level, truncation)
    for j in range(3):
        c = sample_coords(spec, np.random.default_rng([43, truncation, int(level), j]))
        g = synthesize(c)
        assert _chosen_cutoff(g) <= g.band_width
        assert _chosen_cutoff(star(g)) <= g.band_width
        a0 = np.exp(0.5 * log_product_formula(c, "a0sq"))
        assert abs(OBSERVABLES["a0"][0](g) - a0) <= 1e-10
        assert abs(OBSERVABLES["abs_eta0"][0](g) - abs(c.eta[0])) <= 1e-10
        assert abs(OBSERVABLES["abs_zeta1"][0](g) - abs(c.zeta[0])) <= 1e-10
        for read, closed in OBSERVABLES.values():
            assert abs(read(g) - closed(c)) <= 1e-10


def test_converged_cutoff_of_a_walk_loop_exceeds_its_band():
    g = _walk_loop_at(WienerConfig(beta=0.5, steps=256, n_samples=1, seed=17), 0)
    M = _chosen_cutoff(star(g))
    assert M > g.band_width
    # past the indicator, doubling the section moves eta_0 by under 1e-10
    assert abs(recover_eta0(g) - recover_eta0(g, M=2 * M)) <= 1e-10


def test_converged_cutoff_of_a_constant_loop_is_the_floor():
    g = from_coeff_dict({0: np.array([[0.6, 0.8], [-0.8, 0.6]])})
    assert _chosen_cutoff(g) == 8
    assert OBSERVABLES["a0"][0](g) == pytest.approx(0.6)


def test_converged_solve_raises_past_its_cap():
    # X = (I - 0.999 z)^-1 = sum 0.999^n z^n: its block at the cap M = 64 is
    # 0.94, far above the indicator
    g = from_coeff_dict({0: np.eye(2), 1: -0.999 * np.eye(2)})
    with pytest.raises(ConvergenceFailure, match="cap M = 64"):
        _hardy_columns(g)
    assert len(_hardy_columns(g, 64)) == 65


def test_collect_counts_failures():
    def draw(i):
        if i % 3 == 0:
            raise LooplabError("failed draw")
        return i

    assert _collect(10, draw) == ([1, 2, 4, 5, 7, 8], 0.4)
    assert _collect(10, lambda i: draw(0) if i < 5 else i) == ([5, 6, 7, 8, 9], 0.5)
    with pytest.raises(ExperimentDegenerate):
        _collect(10, lambda i: draw(0) if i < 6 else i)


@pytest.mark.parametrize("error", [InvalidInput, InvalidLevel])
def test_collect_lets_caller_errors_escape(error):
    def draw(i):
        if i == 3:
            raise error("bad caller input")
        return i

    with pytest.raises(error, match="bad caller input"):
        _collect(10, draw)


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


@pytest.mark.parametrize("n", [1, 2, 4, 40, 400, 10 ** 4])
def test_ks_uniform_is_scipys_kstest_bitwise(n):
    u = np.random.default_rng(n).random(n)
    u[-1] = u[0]      # one tied sample (at n = 1, the sample itself)
    res = stats.kstest(u, "uniform")
    assert _ks_uniform(u) == (res.statistic, res.pvalue)


@pytest.mark.parametrize("n", [40, 300, 10001])
def test_ks_two_sample_matches_scipy_default(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n) + 0.1
    res = stats.ks_2samp(a, b)
    assert _ks_two_sample(a, b) == (res.statistic, res.pvalue)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40, 100, 300, 800, 2000,
                               10 ** 4, 10 ** 4 + 1])
def test_ks_two_sample_matches_scipys_ks_2samp(n):
    rng = np.random.default_rng([n, 5])
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    line = np.arange(n, dtype=float)
    cases = {"shifted": (a, b + 0.3), "tied": (np.round(a, 1), np.round(b, 1)),
             "identical": (a, a.copy()), "interleaved": (line, line + 0.5),
             "interleaved by 2": (line, line + 2.5)}
    compared = 0
    for name, (x, y) in cases.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = ks_two_sample(x, y)
        got = _ks_two_sample(x, y)
        if any("Exact calculation unsuccessful" in str(w.message)
               for w in caught):
            # scipy's exact 2P left [0, 1]: it took the asymptotic p-value,
            # where the harness keeps the clipped exact one
            assert got == (want[0], 1.0), name
            continue
        assert got == want, name
        compared += 1
    assert compared >= 4


@pytest.mark.filterwarnings("error")
def test_ks_two_sample_clips_an_exact_p_value_above_one():
    # h = 2 at n = 60: Hodges' 2P is 1 + an ulp, so scipy warns and returns
    # its asymptotic p-value 0.9999999999987117; the harness returns 1
    assert _ks_two_sample(np.arange(60.0), np.arange(60.0) + 1.5) == (2 / 60, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2.5, True, np.nan])
def test_experiment_sample_count_must_be_an_integer(n):
    spec = MeasureSpec.su2(0.0, 4)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput, match="n must be"):
        invariance_experiment(spec, h, "a0", n)
    with pytest.raises(InvalidInput, match="n must be"):
        reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [-1, np.nan, 2.5])
def test_experiment_seed_must_be_a_non_negative_integer(seed):
    spec = MeasureSpec.su2(0.0, 4)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput, match="seed must be"):
        invariance_experiment(spec, h, "a0", 3, seed=seed)
    with pytest.raises(InvalidInput, match="seed must be"):
        reparam_invariance_experiment(spec, np.exp(0.35j), 0.0, "a0", 3, seed=seed)
