"""Each of the benchmark's correctness checks passes on looplab's output and
fails on a deliberately wrong one.

    python3 -m pytest perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import looplab as lp  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def roundtrip_output():
    c = workloads.sparse_coords(3, 1)
    return c, workloads.Roundtrip._chain(c)


def test_roundtrip_check_passes(roundtrip_output):
    c, out = roundtrip_output
    assert checks.check_roundtrip(c, *out) == []


def test_roundtrip_check_catches_moved_coordinate(roundtrip_output):
    c, (rec, *rest) = roundtrip_output
    k = int(np.flatnonzero(c.zeta)[0]) if np.any(c.zeta) else 0
    zeta = rec.zeta.copy()
    zeta[k] += 1e-6
    moved = lp.RootCoordsSU2(rec.level, rec.eta, rec.chi0, rec.chi, zeta)
    msgs = checks.check_roundtrip(c, moved, *rest)
    assert any("recovered coordinates" in m for m in msgs)


@pytest.mark.parametrize("which", [4, 5])
def test_roundtrip_check_catches_moved_log_det(roundtrip_output, which):
    c, out = roundtrip_output
    out = list(out)
    out[which] += 1e-5
    msgs = checks.check_roundtrip(c, *out)
    assert any("relative error" in m for m in msgs)


def _exact_eta0(n, seed=0):
    """eta_0 with the level-0 law: |eta|^2 = s has density (1+s)^{-2}."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return np.sqrt(u / (1.0 - u)) * np.exp(2j * np.pi * rng.random(n))


def test_eta0_check_passes_on_program_output():
    cfg = lp.WienerConfig(beta=0.05, steps=256, n_samples=64, seed=5)
    rep = lp.eta0_pushforward_experiment(cfg, reference_level=0.0)
    assert checks.check_report(rep, 64, "exact") == []
    assert checks.check_eta0_uniform(rep.eta0) == []


def test_eta0_check_catches_scaling():
    eta0 = _exact_eta0(20000)
    assert checks.check_eta0_uniform(eta0) == []
    assert checks.check_eta0_uniform(1.1 * eta0) != []


def test_eta0_check_power_at_run_size():
    # one round of eta0_pushforward pools 720 exact-stream values; at that
    # size the check catches a scale error of 1.3
    n = workloads.ROUND_ITEMS["eta0_pushforward"] * workloads.ETA0_EXACT_SAMPLES
    eta0 = _exact_eta0(n, seed=1)
    assert checks.check_eta0_uniform(eta0) == []
    assert checks.check_eta0_uniform(1.3 * eta0) != []


def test_eta0_recovery_check():
    c = lp.sample_coords(lp.MeasureSpec.su2(0.0, 12), np.random.default_rng(4))
    g = lp.synthesize(c).trimmed(1e-14)
    got = lp.recover_eta0(g, M=max(g.band_width, 16))
    assert checks.check_eta0_recovery(c.eta[0], got) == []
    assert checks.check_eta0_recovery(c.eta[0], got * 1.1) != []


def test_rotation_check_catches_off_by_one_mode():
    c = workloads.sparse_coords(2, 0)
    g = lp.synthesize(c).trimmed(1e-14)
    a = workloads.ROTATION_A
    phase = a / np.conj(a)
    r = lp.mobius_reparam(g, a, 0.0, band_out=g.band_width)
    assert checks.check_rotation_coeffs(g.coeffs, g.n_min, r.coeffs, r.n_min, phase) == []
    ns = np.arange(g.n_min, g.n_max + 1)
    off_by_one = g.coeffs * (phase ** (-(ns + 1)))[:, None, None]
    assert checks.check_rotation_coeffs(g.coeffs, g.n_min, off_by_one, g.n_min, phase) != []
    # the right phases on coefficients moved up one mode
    moved = r.coeffs
    assert checks.check_rotation_coeffs(g.coeffs, g.n_min, moved, r.n_min + 1, phase) != []


def test_rotation_report_check():
    spec = lp.MeasureSpec.su2(0.0, 24)
    rep = lp.reparam_invariance_experiment(spec, workloads.ROTATION_A, 0.0, "a0", 2, seed=3)
    assert checks.check_rotation_report(rep) == []


def test_a0_dets_check():
    c = workloads.sparse_coords(1, 2)
    g = lp.synthesize(c).trimmed(1e-14)
    a0 = lp.a0_from_dets(g, max(64, g.band_width))
    assert checks.check_a0_dets(c.eta, c.zeta, a0) == []
    assert checks.check_a0_dets(c.eta, c.zeta, a0 * (1 + 1e-7)) != []


@pytest.mark.parametrize("level,lam", [(0.0, 1.0), (3.5, -2.0)])
def test_mc_check_catches_ten_standard_errors(level, lam):
    n = workloads.MC_SAMPLES
    mc = lp.mc_diagonal_transform(lp.MeasureSpec.su2(level, 512), lam, n, seed=7)
    exact = checks.diagonal_transform_exact(level, lam, 512)
    assert checks.check_mc_mean(mc.value, exact, n, "mc") == []
    se = math.sqrt((1 - abs(exact) ** 2) / n)
    assert checks.check_mc_mean(mc.value + 10 * se, exact, n, "mc") != []
    hc = lp.finite_hc_check(lam, n, seed=7)
    exact = checks.haar_transform_exact(lam)
    assert checks.check_mc_mean(hc.value, exact, n, "hc") == []
    se = math.sqrt((1 - abs(exact) ** 2) / n)
    assert checks.check_mc_mean(hc.value - 10j * se, exact, n, "hc") != []


def test_exact_transforms_match_program_closed_forms():
    assert abs(checks.diagonal_transform_exact(1.0, 0.7, 512)
               - lp.partial_product(1.0, 0.7, 512)) < 1e-12
    assert checks.check_sine_limit(0.0, 1.5, lp.partial_product(0.0, 1.5, 10 ** 5)) == []
    assert checks.check_sine_limit(0.0, 1.5, lp.partial_product(0.0, 1.5, 3)) != []


@pytest.mark.parametrize("level", [0.0, 1.0, 3.5])
def test_hellinger_check_catches_factor_p(level):
    spec = lp.MeasureSpec.su2(level, 12)
    s = level + 2.0
    for i in range(4):
        p = 2.0 + s * i
        h = lp.hellinger_vs_gaussian(spec, i, "eta")
        assert checks.check_hellinger(p, h) == []
        assert checks.check_hellinger(p, p * h) != []


def test_tricomi_closed_form_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for p in (2.0, 2.5, 4.0, 7.5, 18.0, 60.0, 400.0):
        want = 2 - 2 * mpmath.sqrt((p - 1) * p) * mpmath.quad(
            lambda s: (1 + s) ** (-p / 2) * mpmath.exp(-p * s / 2), [0, 1, mpmath.inf])
        assert abs(checks.hellinger_sq_closed_form(p) - float(want)) < 1e-13


def test_ks_statistic_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    u = np.random.default_rng(2).random(500) ** 1.1
    assert abs(checks.ks_uniform_statistic(u) - stats.kstest(u, "uniform").statistic) < 1e-15


def test_tracer_self_time_and_counts():
    tr = tracing.Tracer()
    tr.install()
    try:
        g = lp.synthesize(workloads.sparse_coords(0, 0))
        tr.item(0, lp.recover_coords, g)
    finally:
        tr.uninstall()
    assert not hasattr(lp.synthesize, "__wrapped__")
    m = tr.per_layer_metrics(1)
    assert m["rootsub.recover_coords.nonzero_coords_per_item"] > 0
    assert m["rootsub.synthesize.calls_per_item"] >= 1
    calls, self_ns = tr._by_name()
    total = tr.ends[0] - tr.starts[0]
    assert sum(self_ns.values()) == total     # self times tile the item span
    assert all(v >= 0 for v in self_ns.values())
