import numpy as np
import pytest
from scipy.integrate import quad

from looplab.affine import build_periodic_sequence, build_root_system, default_period
from looplab.errors import InvalidInput
from looplab.measures import MeasureSpec
from looplab.transforms import (finite_hc_check, general_sine_formula,
                                hc_gamma_transform, marginal_factor,
                                mc_diagonal_transform, partial_product,
                                sine_formula_su2)


def test_sine_formula_lambda_zero():
    for l in (0.0, 1.0, 3.5):
        assert abs(sine_formula_su2(l, 0.0) - 1.0) < 1e-15


def test_sine_formula_known_value():
    # l=0, lambda=1: sin(pi/2)/sin((pi/2)(1-i)) = 1/cosh(pi/2)
    v = sine_formula_su2(0.0, 1.0)
    assert abs(v - 1 / np.cosh(np.pi / 2)) < 1e-12


def test_marginal_eta0_level_zero():
    for lam in (0.3, 1.0, -2.0):
        assert abs(marginal_factor("eta", 0, 0.0, lam) - 1 / (1 - 1j * lam)) < 1e-14


def test_marginal_lambda_zero_is_one():
    for kind, idx in (("eta", 0), ("eta", 3), ("zeta", 1), ("zeta", 4)):
        assert marginal_factor(kind, idx, 1.0, 0.0) == 1.0


def _quad_marginal(kind, index, l, lam):
    """E[(1+s)^{+i lam}] for eta factors, E[(1+s)^{-i lam}] for zeta."""
    if kind == "eta":
        p, sgn = 2.0 + (l + 2.0) * index, 1.0
    else:
        p, sgn = (l + 2.0) * index, -1.0
    re, _ = quad(lambda s: (p - 1) * (1 + s) ** (-p)
                 * np.cos(sgn * lam * np.log1p(s)), 0, np.inf, limit=400)
    im, _ = quad(lambda s: (p - 1) * (1 + s) ** (-p)
                 * np.sin(sgn * lam * np.log1p(s)), 0, np.inf, limit=400)
    return re + 1j * im


def test_marginal_quadrature_oracle():
    v = marginal_factor("eta", 2, 1.0, 0.7)
    assert abs(v - _quad_marginal("eta", 2, 1.0, 0.7)) < 1e-8
    w = marginal_factor("zeta", 3, 0.0, -1.3)
    assert abs(w - _quad_marginal("zeta", 3, 0.0, -1.3)) < 1e-8


def test_partial_product_converges_to_sine_formula():
    for l in (0.0, 1.0):
        for lam in (0.5, 1.0, 2.0):
            d = abs(partial_product(l, lam, 100000) - sine_formula_su2(l, lam))
            assert d < 1e-3


def test_partial_product_magnitude_bound():
    # characteristic function of a real statistic: |value| <= 1
    for lam in (0.5, 2.0, 4.0):
        assert abs(partial_product(0.0, lam, 2000)) <= 1.0 + 1e-12


def test_mc_matches_partial_product_within_3se():
    spec = MeasureSpec.su2(0.0, 128)
    res = mc_diagonal_transform(spec, 1.0, 20000, seed=7)
    assert abs(res.value - partial_product(0.0, 1.0, 128)) < 3 * res.stderr
    assert res.n_samples == 20000 and res.truncation == 128


def test_mc_lambda_zero_exact():
    spec = MeasureSpec.su2(0.0, 32)
    res = mc_diagonal_transform(spec, 0.0, 100, seed=0)
    assert res.value == 1.0 and res.stderr == 0.0


def test_mc_deterministic():
    spec = MeasureSpec.su2(1.0, 64)
    a = mc_diagonal_transform(spec, 0.8, 5000, seed=3)
    b = mc_diagonal_transform(spec, 0.8, 5000, seed=3)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_zero_samples_rejected():
    with pytest.raises(InvalidInput):
        mc_diagonal_transform(MeasureSpec.su2(0.0, 4), 1.0, 0)


def test_mc_requires_su2_source():
    spec = MeasureSpec(level=0.0, truncation=2, eta_exponents=[2.0, 4.0],
                       chi_rates=[4.0, 8.0], zeta_exponents=[2.0, 4.0],
                       source="general:A2")
    with pytest.raises(InvalidInput):
        mc_diagonal_transform(spec, 1.0, 10, seed=0)


def test_general_sine_formula_a1_specialization():
    rs = build_root_system("A1")
    for l in (0.0, 1.5):
        for lam in (0.3, 1.0, 2.0):
            g = general_sine_formula(rs, l, np.array([lam]))
            assert abs(g - sine_formula_su2(l, lam)) < 1e-12


def test_finite_hc_check_matches_closed_form():
    for lam in (0.5, 1.0):
        res = finite_hc_check(lam, 40000, seed=3)
        assert abs(res.value - 1 / (1 - 1j * lam)) < 3 * res.stderr


def test_finite_hc_zero_samples_rejected():
    with pytest.raises(InvalidInput):
        finite_hc_check(1.0, 0)


def test_finite_hc_deterministic():
    a = finite_hc_check(1.0, 1000, seed=5)
    b = finite_hc_check(1.0, 1000, seed=5)
    assert a.value == b.value


def test_hc_gamma_transform_a1():
    rs = build_root_system("A1")
    v = hc_gamma_transform(rs, 0.0, np.array([1.0]))
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    # lambda = 0 normalizes to the product of Gamma(1) = 1
    v0 = hc_gamma_transform(rs, 0.0, np.array([0.0]))
    assert abs(v0 - 1.0) < 1e-12
