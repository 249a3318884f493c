from fractions import Fraction

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from looplab.affine import (build_periodic_sequence, build_root_system,
                            default_period, exponent_table)
from looplab.errors import InvalidInput, InvalidLevel
from looplab.measures import (MeasureSpec, hellinger_vs_gaussian, log_density,
                              sample_coords, sample_radial_sq)
from looplab.rootsub import RootCoordsSU2


def test_su2_spec_exponents():
    spec = MeasureSpec.su2(1.0, 4)
    np.testing.assert_array_equal(spec.eta_exponents, [2, 5, 8, 11])
    np.testing.assert_array_equal(spec.zeta_exponents, [3, 6, 9, 12])
    np.testing.assert_array_equal(spec.chi_rates, [6, 12, 18, 24])


def test_invalid_level():
    with pytest.raises(InvalidLevel):
        MeasureSpec.su2(-1.0, 4)


def test_nan_level_rejected():
    with pytest.raises(InvalidLevel):
        MeasureSpec.su2(float("nan"), 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_level_rejected(level):
    with pytest.raises(InvalidLevel):
        MeasureSpec.su2(level, 4)
    with pytest.raises(InvalidLevel):
        MeasureSpec(level=level, truncation=1, eta_exponents=[2.0],
                    chi_rates=[4.0], zeta_exponents=[2.0])


@pytest.mark.parametrize("truncation", [2.5, -3, 0, True])
def test_su2_truncation_must_be_a_positive_integer(truncation):
    with pytest.raises(InvalidInput):
        MeasureSpec.su2(0.0, truncation)


def test_nonintegrable_exponent_rejected():
    with pytest.raises(InvalidInput):
        MeasureSpec(level=0.0, truncation=1, eta_exponents=[2.0],
                    chi_rates=[4.0], zeta_exponents=[1.0])


def test_radial_inverse_cdf_ks():
    # s has CDF 1 - (1+s)^(1-p)
    rng = np.random.default_rng(5)
    p = 3.0
    s = sample_radial_sq(p, rng, size=10000)
    ks = stats.kstest(s, lambda x: 1 - (1 + x) ** (1 - p))
    assert ks.pvalue > 0.01


def test_sample_moments():
    spec = MeasureSpec.su2(0.0, 3)
    rng = np.random.default_rng(17)
    n = 20000
    eta0 = np.empty(n, complex)
    chi1 = np.empty(n, complex)
    for i in range(n):
        c = sample_coords(spec, rng)
        eta0[i], chi1[i] = c.eta[0], c.chi[0]
    # E[1/(1+|eta_i|^2)] = (p-1)/p with p = 2
    v = 1 / (1 + np.abs(eta0) ** 2)
    assert abs(v.mean() - 0.5) < 3 * v.std() / np.sqrt(n)
    # E[|chi_1|^2] = 1/(2*1*(l+2)) = 1/4
    w = np.abs(chi1) ** 2
    assert abs(w.mean() - 0.25) < 3 * w.std() / np.sqrt(n)


def test_eta0_fubini_study_uniform():
    spec = MeasureSpec.su2(0.0, 1)
    rng = np.random.default_rng(3)
    u = np.empty(10000)
    for i in range(10000):
        e = sample_coords(spec, rng).eta[0]
        u[i] = abs(e) ** 2 / (1 + abs(e) ** 2)
    ks = stats.kstest(u, "uniform")
    assert ks.statistic < 0.02


def test_sample_returns_su2_coords():
    spec = MeasureSpec.su2(0.5, 2)
    c = sample_coords(spec, np.random.default_rng(0))
    assert isinstance(c, RootCoordsSU2)
    assert abs(complex(c.chi0).real) < 1e-15


def test_determinism():
    spec = MeasureSpec.su2(0.0, 4)
    a = sample_coords(spec, np.random.default_rng(99))
    b = sample_coords(spec, np.random.default_rng(99))
    np.testing.assert_array_equal(a.eta, b.eta)
    np.testing.assert_array_equal(a.zeta, b.zeta)
    assert a.chi0 == b.chi0


def test_log_density_zero_coords():
    spec = MeasureSpec.su2(0.0, 1)
    c = RootCoordsSU2(0.0, np.zeros(1, complex), 0j, np.zeros(1, complex),
                      np.zeros(1, complex))
    expect = np.log(1 / np.pi) + np.log(4 / np.pi) + np.log(1 / np.pi)
    assert abs(log_density(spec, c) - expect) < 1e-12


def test_density_normalization_quadrature():
    # the single-eta factor of log_density integrates to 1 over the plane
    spec = MeasureSpec.su2(1.0, 1)

    def dens(w):
        c = RootCoordsSU2(1.0, np.array([w]), 0j, np.zeros(0, complex),
                          np.zeros(0, complex))
        return np.exp(log_density(spec, c))

    p = spec.eta_exponents[0]
    assert abs(dens(0j) - (p - 1) / np.pi) < 1e-12
    # radial: equal at every phase of one radius, so integrate in polar form
    ring = [dens(0.7 * np.exp(1j * t)) for t in np.linspace(0, 2 * np.pi, 7)]
    np.testing.assert_allclose(ring, ring[0], rtol=1e-14)
    val, err = quad(lambda r: 2 * np.pi * r * dens(complex(r)), 0, np.inf)
    assert abs(val - 1.0) < 1e-5


def test_density_ratio_identity():
    spec = MeasureSpec.su2(0.0, 2)
    rng = np.random.default_rng(8)
    a = sample_coords(spec, rng)
    b = sample_coords(spec, rng)
    lhs = log_density(spec, a) - log_density(spec, b)
    assert np.isfinite(lhs)


def test_hellinger_chi_zero():
    spec = MeasureSpec.su2(0.0, 8)
    assert hellinger_vs_gaussian(spec, 3, "chi") == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [2.5, 2.0, True, None])
def test_hellinger_non_integer_index_rejected(index):
    spec = MeasureSpec.su2(0.0, 8)
    for kind in ("eta", "zeta", "chi"):
        with pytest.raises(InvalidInput):
            hellinger_vs_gaussian(spec, index, kind)


def test_hellinger_eta0_positive():
    spec = MeasureSpec.su2(0.0, 8)
    h = hellinger_vs_gaussian(spec, 0, "eta")
    assert 0 < h < 2


def test_hellinger_decay_rate():
    # H^2 falls off like 1/p^2, so doubling N roughly halves the tail block
    spec = MeasureSpec.su2(0.0, 512)
    def block(lo, hi):
        return sum(hellinger_vs_gaussian(spec, k, "zeta")
                   for k in range(lo, hi + 1))
    b1 = block(33, 64)
    b2 = block(65, 128)
    assert 0 < b2 < b1
    assert b2 / b1 == pytest.approx(0.5, rel=0.2)


def _tricomi_u_a1(b, z):
    """Tricomi U(1, b, z) for z >= 1, vectorized.

    U(1, b, z) = e^z E_{2-b}(z) (DLMF 13.4.4 with a = 1, and 8.19.3), and
    e^z E_nu(z) is summed from its continued fraction by modified Lentz.
    scipy.special.hyperu is not used: in scipy 1.17 it is off by up to 1e-7
    in H^2 near p = 18, too coarse for a 1e-9 oracle.
    """
    nu = 2.0 - np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    bk = z + nu
    c = np.full_like(z, np.inf)
    d = 1.0 / bk
    out = d
    for i in range(1, 1000):
        an = -i * (nu - 1.0 + i)
        bk = bk + 2.0
        d = 1.0 / (an * d + bk)
        c = bk + an / c
        out = out * c * d
        if np.all(np.abs(c * d - 1.0) < 1e-15):
            return out
    raise AssertionError("continued fraction did not converge")


@pytest.mark.parametrize("level", [0.0, 1.0, 3.5])
def test_hellinger_matches_tricomi_closed_form(level):
    # H^2 = 2 - 2 sqrt((p-1) p) U(1, 2 - p/2, p/2) for every eta/zeta factor,
    # p from 2 up to about 2000
    T = int(2000 / (level + 2.0))
    spec = MeasureSpec.su2(level, T)
    got = ([hellinger_vs_gaussian(spec, i, "eta") for i in range(T)]
           + [hellinger_vs_gaussian(spec, k, "zeta") for k in range(1, T + 1)])
    p = np.concatenate([spec.eta_exponents, spec.zeta_exponents])
    want = 2.0 - 2.0 * np.sqrt((p - 1.0) * p) * _tricomi_u_a1(2.0 - p / 2,
                                                              p / 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_hellinger_index_range():
    spec = MeasureSpec.su2(0.0, 4)
    with pytest.raises(InvalidInput):
        hellinger_vs_gaussian(spec, 5, "zeta")
    with pytest.raises(InvalidInput):
        hellinger_vs_gaussian(spec, 0, "chi")


def test_a1_table_specialization_matches_su2():
    rs = build_root_system("A1")
    seq = build_periodic_sequence(rs, default_period(rs), 12)
    table = exponent_table(rs, seq, Fraction(1), 12)
    spec = MeasureSpec.from_exponent_table(table, 8)
    ref = MeasureSpec.su2(1.0, 8)
    np.testing.assert_array_equal(spec.eta_exponents, ref.eta_exponents)
    np.testing.assert_array_equal(spec.zeta_exponents, ref.zeta_exponents)
    np.testing.assert_array_equal(spec.chi_rates, ref.chi_rates)


@pytest.mark.parametrize("truncation", [2.5, -3, 0, True])
def test_table_truncation_must_be_a_positive_integer(truncation):
    rs = build_root_system("A2")
    table = exponent_table(rs, build_periodic_sequence(rs, default_period(rs), 4),
                           Fraction(0), 4)
    with pytest.raises(InvalidInput, match="truncation"):
        MeasureSpec.from_exponent_table(table, truncation)


@pytest.mark.parametrize("part", ["eta", "chi", "zeta"])
def test_log_density_coords_longer_than_spec_rejected(part):
    spec = MeasureSpec.su2(0.0, 2)
    parts = {k: np.zeros(2, complex) for k in ("eta", "chi", "zeta")}
    parts[part] = np.zeros(3, complex)
    c = RootCoordsSU2(0.0, parts["eta"], 0j, parts["chi"], parts["zeta"])
    with pytest.raises(InvalidInput):
        log_density(spec, c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.nan, [3.0, 1.0]])
def test_radial_exponent_at_or_below_one_rejected(p):
    with pytest.raises(InvalidInput):
        sample_radial_sq(p, np.random.default_rng(0), size=2)
