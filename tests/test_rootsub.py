import numpy as np
import pytest

from looplab import factorization, rootsub
from looplab.errors import ConvergenceFailure, InvalidInput, InvalidLevel
from looplab.factorization import (_adjoint_hardy_columns, _hardy_lu_solve,
                                   _solve_hardy_columns, a0_from_dets,
                                   log_det_AstarA, toeplitz)
from looplab.loops import (LaurentLoop, default_grid_size, evaluate,
                           fourier_project, from_coeff_dict,
                           identity_loop, multiply, star, unitarity_defect)
from looplab.measures import MeasureSpec, sample_coords
from looplab.rootsub import (RootCoordsSU2, _above_floor, chi_values,
                             coords_max_error, log_product_formula,
                             product_formula, random_coords, recover_coords,
                             recover_eta0, synthesize)

from oracles import evaluate_at

E = np.array([], dtype=complex)


def coords(level=0.0, eta=E, chi0=0j, chi=E, zeta=E):
    return RootCoordsSU2(level, np.asarray(eta, complex), chi0,
                         np.asarray(chi, complex), np.asarray(zeta, complex))


# ---- reference factors: k1, k2 from exact products, e^chi projected ---------

def _factor(n: int, c: complex) -> LaurentLoop:
    """a [[1, -conj(c) z^n], [c z^-n, 1]] with a = (1 + |c|^2)^(-1/2): the
    eta_n factor of k1 at c = eta_n, the zeta_k factor at n = -k, c = -conj(zeta_k)."""
    a = 1.0 / np.sqrt(1.0 + abs(c) ** 2)
    if n == 0:
        return from_coeff_dict({0: a * np.array([[1, -np.conj(c)], [c, 1]])})
    return from_coeff_dict({0: a * np.eye(2),
                            n: a * np.array([[0, -np.conj(c)], [0, 0]]),
                            -n: a * np.array([[0, 0], [c, 0]])})


def k1_synthesize(eta) -> LaurentLoop:
    """Ordered product of the eta factors, highest index leftmost."""
    eta = np.asarray(eta, dtype=complex)
    g = identity_loop(2)
    for n in np.flatnonzero(eta)[::-1].tolist():
        g = multiply(g, _factor(n, eta[n]))
    return g


def k2_synthesize(zeta) -> LaurentLoop:
    """Ordered product of the zeta factors (indices start at 1), highest leftmost."""
    zeta = np.asarray(zeta, dtype=complex)
    g = identity_loop(2)
    for k in (np.flatnonzero(zeta)[::-1] + 1).tolist():
        g = multiply(g, _factor(-k, -np.conj(zeta[k - 1])))
    return g


def torus_loop(chi0: complex, chi, band: int) -> LaurentLoop:
    """diag(e^chi, e^-chi) projected to the band [-band, band].

    The exponential is not band-limited; the projection error is measured on
    a finer grid and ConvergenceFailure raised when it exceeds 1e-13.
    """
    if abs(complex(chi0).real) > 1e-12:
        raise InvalidInput("chi0 must be purely imaginary")
    n_grid = default_grid_size(band)
    cv = np.exp(chi_values(chi0, chi, n_grid))
    samples = np.zeros((n_grid, 2, 2), dtype=complex)
    samples[:, 0, 0] = cv
    samples[:, 1, 1] = 1.0 / cv
    loop = fourier_project(samples, -band, band)
    # aliasing probe on the doubled grid, whose odd points lie halfway
    # between the points the projection saw
    direct = np.exp(chi_values(chi0, chi, 2 * n_grid))
    err = float(np.abs(evaluate(loop, 2 * n_grid)[:, 0, 0] - direct).max())
    if err > 1e-13:
        raise ConvergenceFailure(f"torus projection aliasing error {err:.2e}")
    return loop


# ---- synthesis ---------------------------------------------------------------

def test_k1_zero_is_identity():
    g = k1_synthesize(E)
    np.testing.assert_array_equal(g.coeffs, identity_loop().coeffs)


def test_k1_single_constant_factor():
    g = k1_synthesize(np.array([1.0 + 0j]))
    np.testing.assert_allclose(
        g.coeff(0), np.array([[1, -1], [1, 1]]) / np.sqrt(2), atol=1e-15)


def test_k1_unitary_on_grid():
    g = k1_synthesize(np.array([0.2, 0.1]))
    assert unitarity_defect(g, 64) < 1e-12


def test_k2_single_factor_entries():
    c = 0.3 - 0.2j
    g = k2_synthesize(np.array([c]))
    a = 1 / np.sqrt(1 + abs(c) ** 2)
    np.testing.assert_allclose(g.coeff(-1), a * np.array([[0, c], [0, 0]]),
                               atol=1e-15)
    np.testing.assert_allclose(g.coeff(1),
                               a * np.array([[0, 0], [-np.conj(c), 0]]),
                               atol=1e-15)


def test_k2_det_one_on_grid():
    g = k2_synthesize(np.array([0.3, 0.1]))
    dets = np.linalg.det(evaluate(g, 64))
    assert np.abs(dets - 1).max() < 1e-12


def test_k2_factor_order_matters():
    # non-commutativity witness: swapping the factor values changes the loop
    a = k2_synthesize(np.array([0.3, 0.1j]))
    b_lo = k2_synthesize(np.array([0.3]))
    b_hi = k2_synthesize(np.array([0.0, 0.1j]))
    swapped = multiply(b_lo, b_hi)  # low-index factor leftmost
    assert np.abs(a.with_band(-2, 2).coeffs
                  - swapped.with_band(-2, 2).coeffs).max() > 1e-3


def test_torus_trivial_and_quarter_turn():
    t = torus_loop(0j, E, band=4)
    np.testing.assert_allclose(t.coeff(0), np.eye(2), atol=1e-12)
    t = torus_loop(0.5j * np.pi, E, band=4)
    np.testing.assert_allclose(t.coeff(0), np.diag([1j, -1j]), atol=1e-12)


def _chi_direct(chi0, chi, thetas):
    # chi(theta) summed term by term: the reference for chi_values
    vals = np.full(thetas.shape, complex(chi0), dtype=complex)
    for j, cj in enumerate(chi, start=1):
        e = np.exp(1j * j * thetas)
        vals += cj * e - np.conj(cj) / e
    return vals


@pytest.mark.parametrize("n_grid", [7, 64, 301])
def test_chi_values_matches_direct_sum(n_grid):
    # n_grid = 7 < 2 * 9 + 1: modes alias onto one slot and must still add up
    chi = np.array([1, 1j]) @ np.random.default_rng(5).standard_normal((2, 9))
    th = 2 * np.pi * np.arange(n_grid) / n_grid
    got = chi_values(0.4j, chi, n_grid)
    assert np.abs(got - _chi_direct(0.4j, chi, th)).max() < 1e-13


def test_torus_matches_direct_exponential():
    t = torus_loop(0j, np.array([0.1 + 0j]), band=16)
    th = np.linspace(0.0, 2 * np.pi, 37)
    vals = evaluate_at(t, np.exp(1j * th))
    direct = np.exp(_chi_direct(0j, np.array([0.1 + 0j]), th))
    assert np.abs(vals[:, 0, 0] - direct).max() < 1e-12
    assert np.abs(vals[:, 1, 1] - 1 / direct).max() < 1e-12


def test_torus_chi0_must_be_imaginary():
    with pytest.raises(InvalidInput):
        torus_loop(0.3, E, band=4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_torus_non_finite_chi_rejected(bad):
    with pytest.raises(InvalidInput):
        torus_loop(0j, np.array([0.1, bad]), band=8)


def test_synthesize_zero_is_identity():
    g = synthesize(coords())
    vals = evaluate(g, 16)
    assert np.abs(vals - np.eye(2)).max() < 1e-12


def test_synthesize_unitary():
    c = coords(eta=[0.2, 0.1j], chi=[0.05], zeta=[0.1, 0.2j])
    assert unitarity_defect(synthesize(c)) < 1e-9


def _exact_synthesis(c):
    """star(k1) e^chi k2 from exact coefficient products, with the torus
    factor projected to a band far past its 1e-14 tail."""
    slope = float(np.sum(2 * np.arange(1, len(c.chi) + 1) * np.abs(c.chi)))
    t = torus_loop(c.chi0, c.chi, 4 * len(c.chi) + int(8 * slope) + 64)
    return multiply(multiply(star(k1_synthesize(c.eta)), t),
                    k2_synthesize(c.zeta))


def _draws(kind, n):
    if kind == "sparse":
        return [random_coords(np.random.default_rng([11, i]), level=1.0)
                for i in range(n)]
    spec = MeasureSpec.su2(0.0, kind)
    return [sample_coords(spec, np.random.default_rng([13, kind, i]))
            for i in range(n)]


@pytest.mark.parametrize("kind,n", [("sparse", 8), (12, 4), (24, 3)])
def test_synthesize_matches_exact_products(kind, n):
    for c in _draws(kind, n):
        g, ref = synthesize(c), _exact_synthesis(c)
        n_grid = default_grid_size(max(g.band_width, ref.band_width))
        assert np.abs(evaluate(g, n_grid) - evaluate(ref, n_grid)).max() <= 1e-12
        assert unitarity_defect(g) <= 1e-12
        # cut to the modes above 1e-14
        assert g.n_min == 0 or np.abs(g.coeffs[0]).max() > 1e-14
        assert g.n_max == 0 or np.abs(g.coeffs[-1]).max() > 1e-14


def _assert_matches_exact(c):
    g, ref = synthesize(c), _exact_synthesis(c)
    n_grid = default_grid_size(max(g.band_width, ref.band_width))
    assert np.abs(evaluate(g, n_grid) - evaluate(ref, n_grid)).max() <= 1e-12


@pytest.mark.parametrize("kw", [
    dict(eta=np.eye(1, 2001, 2000)[0] * 0.4j),
    dict(zeta=np.eye(1, 2000, 1999)[0] * 0.3, chi=[0.05]),
    dict(eta=np.eye(1, 1201, 1200)[0] * (0.2 - 0.1j),
         zeta=np.eye(1, 900, 899)[0] * 0.5j)])
def test_synthesize_high_index_factors(kw):
    _assert_matches_exact(coords(**kw))


def test_synthesize_grid_doubling(monkeypatch):
    # an underestimated band leaves the first grid's tail above the floor
    monkeypatch.setattr(rootsub, "_band_bound", lambda c: 1)
    for c in _draws(12, 2):
        _assert_matches_exact(c)
    monkeypatch.setattr(rootsub, "_MAX_GRID", 64)
    with pytest.raises(ConvergenceFailure):
        synthesize(_draws(12, 1)[0])


def test_next_fast_len_matches_scipy():
    # synthesize's grids, and so every synthesized loop, are scipy's: the
    # 11-smooth numbers up to the largest argument, 2 * _MAX_GRID, the
    # integer after each, and random n in that range, log-uniform so that
    # every scale synthesize reaches is drawn alike
    from scipy.fft import next_fast_len
    top = 2 * rootsub._MAX_GRID
    smooth = [1]
    for p in (2, 3, 5, 7, 11):
        for q in smooth:
            if q * p <= top:
                smooth.append(q * p)
    rng = np.random.default_rng(1911)
    drawn = np.exp(rng.uniform(0.0, np.log(top), 10_000)).astype(int)
    ns = smooth + [q + 1 for q in smooth] + drawn.tolist()
    assert [rootsub._next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


@pytest.mark.parametrize("chi1", [1e19, 1e308])
def test_synthesize_huge_chi_raises(chi1):
    with pytest.raises(ConvergenceFailure):
        synthesize(coords(chi=[chi1]))


@pytest.mark.parametrize("truncation", [12, 24])
def test_synthesize_a0_matches_product_formula(truncation):
    for c in _draws(truncation, 2):
        g = synthesize(c)
        a0 = np.exp(0.5 * log_product_formula(c, "a0sq"))
        assert abs(a0_from_dets(g, g.band_width) - a0) <= 1e-10


def test_level_validated():
    with pytest.raises(InvalidLevel):
        coords(level=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("level", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_level_rejected(level):
    with pytest.raises(InvalidLevel):
        coords(level=level)


def test_nan_eta_rejected():
    with pytest.raises(InvalidInput):
        coords(eta=[0.1, np.nan])


def test_infinite_chi_rejected():
    with pytest.raises(InvalidInput):
        coords(chi=[np.inf])


def test_nan_zeta_rejected():
    with pytest.raises(InvalidInput):
        coords(zeta=[complex(0.2, np.nan)])


def test_nan_chi0_rejected():
    with pytest.raises(InvalidInput):
        coords(chi0=complex(0.0, np.nan))


# ---- determinant product formulas --------------------------------------------

def test_product_formula_zero_coords():
    c = coords()
    for which in ("detA", "detA1", "a0sq"):
        assert product_formula(c, which) == 1.0


def test_product_formula_eta0_only():
    c = coords(eta=[0.4 + 0.1j])
    s = 1 + abs(0.4 + 0.1j) ** 2
    assert abs(product_formula(c, "detA") - 1.0) < 1e-15
    assert abs(product_formula(c, "detA1") - 1 / s) < 1e-12
    assert abs(product_formula(c, "a0sq") - 1 / s) < 1e-12


def test_product_formula_zeta1_only():
    c = coords(zeta=[0.3 - 0.2j])
    s = 1 + abs(0.3 - 0.2j) ** 2
    assert abs(product_formula(c, "detA1") - product_formula(c, "detA") * s) < 1e-12
    assert abs(product_formula(c, "a0sq") - s) < 1e-12


def test_product_formula_unknown_selector():
    with pytest.raises(InvalidInput):
        log_product_formula(coords(), "nope")


@pytest.mark.parametrize("kw", [
    dict(eta=[0.0, 0.25 - 0.1j]),
    dict(zeta=[0.0, 0.3 + 0.2j]),
    dict(chi=[0.2 + 0.1j, 0.0, 0.1j]),
    dict(eta=[0.3], chi=[0.1], zeta=[0.2j], chi0=0.7j),
])
def test_product_formula_against_determinants(kw):
    c = coords(**kw)
    g = synthesize(c)
    M = max(64, g.band_width)
    ld = log_det_AstarA(toeplitz(g, M))
    ld1 = log_det_AstarA(toeplitz(g, M, shifted=True))
    assert abs(ld - log_product_formula(c, "detA")) < 1e-8
    assert abs(ld1 - log_product_formula(c, "detA1")) < 1e-8


# ---- recovery ----------------------------------------------------------------

def test_recover_identity():
    rec = recover_coords(identity_loop(), l_hint=0.0)
    assert coords_max_error(coords(), rec) < 1e-12


def test_recover_single_zeta():
    g = synthesize(coords(zeta=[0.3]))
    rec = recover_coords(g, l_hint=0.0)
    assert abs(rec.zeta[0] - 0.3) < 1e-9


def _assert_recovered_with_support(c, rec):
    # every coordinate within 1e-8; the nonzero pattern of c, no trailing zeros
    assert coords_max_error(c, rec) < 1e-8
    for name in ("eta", "chi", "zeta"):
        a, b = np.trim_zeros(getattr(c, name), "b"), getattr(rec, name)
        assert len(b) == len(a) and (len(b) == 0 or b[-1] != 0)
        np.testing.assert_array_equal(b != 0, a != 0)


def test_recover_mixed_triple():
    # the second triple sets the chi grid by its indices: eta_30 + zeta_20
    # plus the loop's band, past every index the random draws reach
    for c in (coords(eta=[0.2], chi=[0.1j], zeta=[0.3]),
              coords(eta=np.eye(1, 31, 30)[0] * (0.3 - 0.1j), chi0=1.1j,
                     chi=[0.05, 0, 0.02j], zeta=np.eye(1, 20, 19)[0] * 0.25j)):
        _assert_recovered_with_support(c, recover_coords(synthesize(c)))


def test_recover_with_chi0():
    c = coords(eta=[0.1, 0.2j], chi0=2.1j, chi=[0.05 - 0.02j], zeta=[0.15])
    rec = recover_coords(synthesize(c), l_hint=0.0)
    assert coords_max_error(c, rec) < 1e-8


def test_recover_random_ensemble_member():
    rng = np.random.default_rng(42)
    c = random_coords(rng, level=1.0)
    g = synthesize(c)
    rec = recover_coords(g, l_hint=1.0)
    assert coords_max_error(c, rec) < 1e-8


@pytest.mark.parametrize("level", [0.0, 1.0, 3.5])
def test_recover_returns_exact_support(level):
    for seed in range(4):
        c = random_coords(np.random.default_rng([int(2 * level), seed]),
                          level=level)
        _assert_recovered_with_support(c, recover_coords(synthesize(c),
                                                         l_hint=level))


def test_recover_at_the_contract_edge():
    # six coordinates of modulus exactly 0.5 at indices <= 8, the edge of
    # recover_coords' contract, recovered from one Hardy cutoff
    sizes = {"eta": 9, "chi": 8, "zeta": 8}
    slots = [(name, k) for name, n in sizes.items() for k in range(n)]
    for seed in range(20):
        rng = np.random.default_rng([71, seed])
        arrays = {name: np.zeros(n, complex) for name, n in sizes.items()}
        for j in rng.choice(len(slots), size=6, replace=False):
            name, k = slots[j]
            arrays[name][k] = 0.5 * np.exp(2j * np.pi * rng.random())
        level = float(rng.choice([0.0, 1.0, 3.5]))
        c = RootCoordsSU2(level, chi0=2j * np.pi * rng.random(), **arrays)
        _assert_recovered_with_support(c, recover_coords(synthesize(c),
                                                         l_hint=level))


def _count_factorizations(monkeypatch):
    """Record the cutoff of every LU of a finite section, made in rootsub or
    through the factorization module's own solve."""
    cutoffs = []
    solve = factorization._hardy_lu_solve

    def counted(loop, M):
        cutoffs.append(M)
        return solve(loop, M)

    monkeypatch.setattr(factorization, "_hardy_lu_solve", counted)
    monkeypatch.setattr(rootsub, "_hardy_lu_solve", counted)
    return cutoffs


def test_recover_residual_miss_raises_after_one_solve(monkeypatch):
    # a noise floor above every coordinate zeroes them all: the resynthesized
    # loop misses g, and recovery fails without a second cutoff; the eta and
    # zeta sides share one factorization
    g = synthesize(coords(eta=[0.2, 0.1j], chi=[0.05], zeta=[0.3]))
    cutoffs = _count_factorizations(monkeypatch)
    monkeypatch.setattr(rootsub, "_NOISE_FLOOR", 1.0)
    with pytest.raises(ConvergenceFailure, match="recovery residual"):
        recover_coords(g)
    assert cutoffs == [max(2 * g.band_width, 32)]


@pytest.mark.parametrize("level", [0.0, 1.0, 3.5])
def test_adjoint_solve_gives_the_star_columns(level):
    for seed in range(3):
        g = synthesize(random_coords(np.random.default_rng([23, seed]), level))
        M = max(2 * g.band_width, 32)
        _, lu, piv = _hardy_lu_solve(g, M)
        X_star = _adjoint_hardy_columns(lu, piv, 2)
        assert np.abs(X_star - _solve_hardy_columns(star(g), M)).max() <= 1e-13


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("call", [recover_coords, recover_eta0])
def test_recovery_rejects_loops_that_are_not_2x2(call, dim):
    with pytest.raises(InvalidInput, match="2x2 loop"):
        call(identity_loop(dim))


def test_recover_checks_level_before_factoring(monkeypatch):
    cutoffs = _count_factorizations(monkeypatch)
    with pytest.raises(InvalidLevel):
        recover_coords(synthesize(coords(eta=[0.2])), l_hint=float("nan"))
    assert cutoffs == []


def test_recover_small_coordinate_above_noise_floor():
    c = coords(eta=[0.2, 0.0, 1e-7j], chi=[0.1], zeta=[0.0, 1e-7])
    rec = recover_coords(synthesize(c), l_hint=0.0)
    assert abs(rec.eta[2] - 1e-7j) < 1e-8
    assert abs(rec.zeta[1] - 1e-7) < 1e-8
    assert coords_max_error(c, rec) < 1e-8


def test_noise_floor_keeps_nan():
    out = _above_floor(np.array([0.3, np.nan, 1e-12, 0.0], dtype=complex))
    assert out[0] == 0.3 and np.isnan(out[1]) and len(out) == 2


def _nan_loop():
    c = synthesize(coords(eta=[0.3], zeta=[0.2]))
    coeffs = c.coeffs.copy()
    coeffs[0, 0, 1] = np.nan
    return type(c)(c.dim, c.n_min, c.n_max, coeffs)


def test_recover_coords_rejects_non_finite_loop():
    with pytest.raises(InvalidInput):
        recover_coords(_nan_loop())


def test_recover_eta0_rejects_non_finite_loop():
    with pytest.raises(InvalidInput):
        recover_eta0(_nan_loop())


def test_recover_eta0_fast_path():
    c = coords(eta=[0.37 - 0.21j, 0.1], chi=[0.08j], zeta=[0.2, 0.05])
    g = synthesize(c)
    e0 = recover_eta0(g, M=max(g.band_width, 16))
    assert abs(e0 - c.eta[0]) < 1e-9
