import numpy as np
import pytest
from scipy.integrate import quad

from looplab.affine import build_periodic_sequence, build_root_system, default_period
from looplab.errors import InvalidInput, InvalidLevel
from looplab.factorization import ldu_2x2
from looplab.measures import MeasureSpec, sample_radial_sq
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


def _partial_product_loop(l, lam, N):
    """The paired product as a loop over marginal_factor: the reference for
    the array form of partial_product."""
    if N == 0:
        return 1.0 + 0.0j
    out = marginal_factor("eta", 0, l, lam)
    for j in range(1, N):
        out *= marginal_factor("eta", j, l, lam) * marginal_factor("zeta", j, l, lam)
    return out * marginal_factor("zeta", N, l, lam)


def test_partial_product_matches_marginal_factor_loop():
    for l in (0.0, 1.0, 3.5):
        for lam in (-2.7, 0.4, 1.0, 3.0):
            for N in (0, 1, 2, 3, 512):
                want = _partial_product_loop(l, lam, N)
                assert abs(partial_product(l, lam, N) - want) <= 1e-12 * abs(want)


def test_partial_product_magnitude_bound():
    # characteristic function of a real statistic: |value| <= 1
    for lam in (0.5, 2.0, 4.0):
        assert abs(partial_product(0.0, lam, 2000)) <= 1.0 + 1e-12


def test_mc_matches_partial_product_within_3se():
    spec = MeasureSpec.su2(0.0, 128)
    res = mc_diagonal_transform(spec, 1.0, 20000, seed=7)
    assert abs(res.value - partial_product(0.0, 1.0, 128)) < 3 * res.stderr
    assert res.n_samples == 20000 and res.truncation == 128


def _mc_reference(spec, lam, n, seed):
    """mc_diagonal_transform as it drew log(1+s) before: log1p of each
    sample_radial_sq draw, summed per sample, one lambda at a time."""
    rng = np.random.default_rng([int(seed), 0x10f])
    total, total_sq, done = 0.0 + 0.0j, 0.0, 0
    while done < n:
        m = min(2048, n - done)
        le = np.log1p(sample_radial_sq(spec.eta_exponents[None, :], rng,
                                       (m, spec.truncation)))
        lz = np.log1p(sample_radial_sq(spec.zeta_exponents[None, :], rng,
                                       (m, spec.truncation)))
        vals = np.exp(1j * lam * (le.sum(axis=1) - lz.sum(axis=1)))
        total += vals.sum()
        total_sq += float(np.sum(np.abs(vals) ** 2))
        done += m
    mean = total / n
    return mean, float(np.sqrt(max(total_sq / n - abs(mean) ** 2, 0.0) / n))


def test_mc_matches_radial_sampler_reference():
    # a mean of unit-modulus terms: roundoff of the log(1+s) route, no more
    for level, lam, n in ((0.0, 1.0, 3000), (1.0, -2.0, 2048), (3.5, 0.6, 4100)):
        spec = MeasureSpec.su2(level, 96)
        res = mc_diagonal_transform(spec, lam, n, seed=5)
        mean, stderr = _mc_reference(spec, lam, n, 5)
        assert abs(res.value - mean) <= 1e-15
        assert abs(res.stderr - stderr) <= 1e-15


def test_mc_lambda_array_matches_scalar_calls_bitwise():
    spec = MeasureSpec.su2(1.0, 64)
    lams = [0.5, 0.0, -1.0, 2.0]
    results = mc_diagonal_transform(spec, np.array(lams), 4500, seed=9)
    assert isinstance(results, list) and len(results) == len(lams)
    for lam, res in zip(lams, results):
        alone = mc_diagonal_transform(spec, lam, 4500, seed=9)
        assert res == alone
    assert results[1].value == 1.0 and results[1].stderr == 0.0
    one = mc_diagonal_transform(spec, [0.5], 4500, seed=9)
    assert one == [results[0]]


def test_mc_lambda_shape_rejected():
    spec = MeasureSpec.su2(0.0, 8)
    for lam in ([], np.ones((2, 2))):
        with pytest.raises(InvalidInput):
            mc_diagonal_transform(spec, lam, 10)


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


def _finite_hc_loop(lam, n, seed):
    """finite_hc_check as one LDU per Haar draw: the reference for the batch."""
    rng = np.random.default_rng([int(seed), 0x5c])
    vals = np.empty(n, dtype=complex)
    for m in range(n):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        a, b = x[0] + 1j * x[1], x[2] + 1j * x[3]
        gmat = np.array([[a, b], [-np.conj(b), np.conj(a)]])
        _, _, adiag, _ = ldu_2x2(gmat)
        vals[m] = np.exp(-2j * lam * np.log(float(adiag[0, 0].real)))
    mean = vals.mean()
    var = max(float(np.mean(np.abs(vals) ** 2)) - abs(mean) ** 2, 0.0)
    return complex(mean), float(np.sqrt(var / n))


def test_finite_hc_check_matches_per_sample_loop_bitwise():
    # long runs at two seeds, and short runs, where the mean hides no ulp
    cases = [(0.7, 3, 3000), (-2.0, 13, 3000)] + [(1.0, s, 4) for s in range(50)]
    for lam, seed, n in cases:
        res = finite_hc_check(lam, n, seed=seed)
        assert (res.value, res.stderr) == _finite_hc_loop(lam, n, seed)


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


@pytest.mark.parametrize("lam", [[1.0], [1.0, 2.0, 3.0], 1.0, [[1.0, 2.0]]])
def test_root_transforms_need_one_lambda_per_node(lam):
    rs = build_root_system("A2")
    for transform in (general_sine_formula, hc_gamma_transform):
        with pytest.raises(InvalidInput, match="2 simple-root coefficients"):
            transform(rs, 0.0, lam)


BAD_LAMBDAS = (np.nan, np.inf, -np.inf)


@pytest.mark.filterwarnings("error")
def test_non_finite_lambda_rejected():
    spec = MeasureSpec.su2(0.0, 8)
    rs = build_root_system("A1")
    for lam in BAD_LAMBDAS:
        calls = (lambda: sine_formula_su2(0.0, lam),
                 lambda: marginal_factor("eta", 1, 0.0, lam),
                 lambda: marginal_factor("zeta", 1, 0.0, lam),
                 lambda: partial_product(0.0, lam, 5),
                 lambda: mc_diagonal_transform(spec, lam, 10),
                 lambda: mc_diagonal_transform(spec, [1.0, lam], 10),
                 lambda: finite_hc_check(lam, 10),
                 lambda: general_sine_formula(rs, 0.0, [lam]),
                 lambda: hc_gamma_transform(rs, 0.0, [lam]))
        for call in calls:
            with pytest.raises(InvalidInput):
                call()


@pytest.mark.filterwarnings("error")
def test_non_integer_or_negative_counts_and_seeds_rejected():
    spec = MeasureSpec.su2(0.0, 8)
    calls = (lambda: partial_product(0.0, 1.0, 2.5),
             lambda: partial_product(0.0, 1.0, -3),
             lambda: partial_product(0.0, 1.0, True),
             lambda: mc_diagonal_transform(spec, 1.0, 10.0),
             lambda: finite_hc_check(1.0, 1.5),
             lambda: finite_hc_check(1.0, -2),
             lambda: finite_hc_check(1.0, 10, seed=1.5),
             lambda: mc_diagonal_transform(spec, 1.0, 10, seed=-1),
             lambda: marginal_factor("eta", 0.5, 0.0, 1.0))
    for call in calls:
        with pytest.raises(InvalidInput):
            call()
    assert partial_product(0.0, 1.0, np.int64(3)) == partial_product(0.0, 1.0, 3)


@pytest.mark.filterwarnings("error")
def test_non_finite_level_rejected():
    for l in (np.nan, np.inf, -1.0):
        for call in (lambda: sine_formula_su2(l, 1.0),
                     lambda: partial_product(l, 1.0, 4),
                     lambda: marginal_factor("eta", 1, l, 1.0)):
            with pytest.raises(InvalidLevel):
                call()
