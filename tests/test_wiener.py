import numpy as np
import pytest
from scipy import stats

from looplab.errors import InvalidInput
from looplab.loops import evaluate, from_coeff_dict, unitarity_defect
from looplab.measures import MeasureSpec
from looplab.wiener import (WienerConfig, _pinned_walk, eta0_pushforward_experiment,
                            invariance_experiment, reparam_invariance_experiment,
                            sample_brownian_loop)


def test_config_validation():
    with pytest.raises(InvalidInput):
        WienerConfig(beta=0.0, steps=64, n_samples=1)
    with pytest.raises(InvalidInput):
        WienerConfig(beta=1.0, steps=4, n_samples=1)


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


def test_steep_chi_draw_is_kept():
    # this pair of truncation-24 draws holds one whose torus factor needs a
    # band above 256; a band-capped synthesis dropped it as failed
    s = int(np.random.SeedSequence([23, 30, 0]).generate_state(1)[0])
    c, sn = np.cos(0.8), np.sin(0.8)
    h = from_coeff_dict({0: np.array([[c, sn], [-sn, c]], dtype=complex)})
    rep = invariance_experiment(MeasureSpec.su2(0.0, 24), h, "a0", 2, seed=s)
    assert rep.n_effective == 2 and rep.failure_rate == 0.0


def test_unknown_observable():
    spec = MeasureSpec.su2(0.0, 4)
    h = from_coeff_dict({0: np.eye(2)})
    with pytest.raises(InvalidInput):
        invariance_experiment(spec, h, "bogus", 5, seed=0)
