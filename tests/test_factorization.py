import numpy as np
import pytest
from scipy.linalg.lapack import zgesv

from looplab import factorization
from looplab.errors import ConvergenceFailure, InvalidInput, NotInTopStratum
from looplab.factorization import (_product_residual, a0_from_dets,
                                   birkhoff_factor, hardy_columns, ldu_2x2,
                                   log_det_AstarA, toeplitz, triangular_factor)
from looplab.loops import (LaurentLoop, evaluate, from_coeff_dict,
                           identity_loop, multiply, star)
from looplab.measures import MeasureSpec, sample_coords
from looplab.rootsub import (RootCoordsSU2, log_product_formula, random_coords,
                             recover_coords, recover_eta0, synthesize)
from oracles import birkhoff_g_plus, product_residual

E = np.array([], dtype=complex)


def _su2_const(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
                    dtype=complex)


def test_toeplitz_identity_is_identity():
    T = toeplitz(identity_loop(), 3)
    np.testing.assert_array_equal(T.matrix, np.eye(8))
    assert log_det_AstarA(T) == 0.0


def test_toeplitz_block_structure():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    g = LaurentLoop(2, -2, 2, c)
    A = toeplitz(g, 4).matrix
    for j in range(5):
        for k in range(5):
            np.testing.assert_array_equal(
                A[2 * j:2 * j + 2, 2 * k:2 * k + 2], g.coeff(j - k))


def test_toeplitz_shifted_constant_unitary():
    # constant loop, shifted compression at M=0 is the 1x1 matrix [u11]
    u = _su2_const(0.4)
    g = from_coeff_dict({0: u})
    T = toeplitz(g, 0, shifted=True)
    assert T.matrix.shape == (1, 1)
    assert abs(T.matrix[0, 0] - u[0, 0]) < 1e-15
    assert abs(np.exp(log_det_AstarA(T)) - abs(u[0, 0]) ** 2) < 1e-12


def _block_reference(g, M, shifted):
    """The finite section built block by block: block (j, k) = c_{j-k}."""
    d = g.dim
    A = np.zeros((d * (M + 1),) * 2, dtype=complex)
    for j in range(M + 1):
        for k in range(M + 1):
            A[d * j:d * j + d, d * k:d * k + d] = g.coeff(j - k)
    if shifted:
        A = np.delete(np.delete(A, 1, axis=0), 1, axis=1)
    return A


# (dim, n_min, n_max) by id prefix: band [-3, 5] in dims 2, 1 and 3, and a
# loop with n_min = 0 (as birkhoff_factor's series s) or n_max = 0.  On band
# [-3, 5], M = 0, 2 cut both sides, M = 4 only the top, M = 5 is the band
# width and M = 8 lies past it.  Dim 1 has no e_2 mode to drop, so it has
# no shifted section.
_TOEPLITZ_LOOPS = {"": (2, -3, 5), "dim1-": (1, -3, 5), "dim3-": (3, -3, 5),
                   "n_min0-": (2, 0, 5), "n_max0-": (2, -3, 0)}


@pytest.mark.parametrize("shape, shifted, M", [
    pytest.param(shape, shifted, M, id=f"{name}{shifted}-{M}")
    for name, shape in _TOEPLITZ_LOOPS.items()
    for shifted in (False, True) for M in (0, 2, 4, 5, 8)
    if not (shape[0] == 1 and shifted)])
def test_toeplitz_matches_block_reference(shape, shifted, M):
    d, n_min, n_max = shape
    rng = np.random.default_rng(4)
    c = rng.standard_normal((n_max - n_min + 1, d, d))
    g = LaurentLoop(d, n_min, n_max, c + 1j * rng.standard_normal(c.shape))
    A = toeplitz(g, M, shifted=shifted).matrix
    # LAPACK solves the section in place in Fortran order
    assert A.flags.f_contiguous
    np.testing.assert_array_equal(A, _block_reference(g, M, shifted))


@pytest.mark.parametrize("M", [0, 2, 4, 5, 8])
def test_shifted_section_of_a_1x1_loop_is_rejected(M):
    # a 1x1 loop has no e_2 mode to drop, at any cutoff
    rng = np.random.default_rng(4)
    g = LaurentLoop(1, -3, 5, rng.standard_normal((9, 1, 1)) + 0j)
    with pytest.raises(InvalidInput, match="e_2"):
        toeplitz(g, M, shifted=True)
    with pytest.raises(InvalidInput, match="e_2"):
        a0_from_dets(identity_loop(1), M)


@pytest.mark.parametrize("M", [0, 2, 5, 8])
def test_toeplitz_of_star_is_the_adjoint(M):
    # block (j, k) of both is c_{k-j}^dagger: one LU serves g and star(g)
    rng = np.random.default_rng(5)
    c = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    g = LaurentLoop(2, -3, 5, c)
    np.testing.assert_array_equal(toeplitz(star(g), M).matrix,
                                  toeplitz(g, M).matrix.conj().T)


def test_hardy_solve_is_bitwise_gesv():
    # the g side of the shared LU is one plain gesv call
    for i, level in enumerate([0.0, 1.0, 3.5] * 3):
        g = synthesize(random_coords(np.random.default_rng([19, i]), level))
        for M in (16, max(g.band_width, 16), max(2 * g.band_width, 32)):
            A = toeplitz(g, M).matrix
            X = zgesv(A, np.eye(A.shape[0], 2, dtype=complex))[2]
            np.testing.assert_array_equal(
                hardy_columns(g, M)[0].reshape(-1, 2), X)


def test_zero_loop_factorization_raises():
    g = from_coeff_dict({0: np.zeros((2, 2))})
    with pytest.raises(ConvergenceFailure, match="singular"):
        hardy_columns(g, 4)
    with pytest.raises(ConvergenceFailure, match="singular"):
        recover_coords(g)


def _record_sections(monkeypatch):
    """The cutoffs of the sections factorization builds, in order."""
    cutoffs = []
    build = factorization.toeplitz

    def recorded(g, M, shifted=False):
        cutoffs.append(M)
        return build(g, M, shifted)

    monkeypatch.setattr(factorization, "toeplitz", recorded)
    return cutoffs


def test_converged_cutoff_grows_by_the_quarter_rule_up_to_the_cap(monkeypatch):
    # X = (I - 0.999 z)^-1 = sum 0.999^n z^n misses the indicator at every
    # cutoff: M runs from the floor 8 by max(M + 1, ceil(1.25 M)) to the cap
    # 4 max(band, 16) = 64, each section built once
    cutoffs = _record_sections(monkeypatch)
    g = from_coeff_dict({0: np.eye(2), 1: -0.999 * np.eye(2)})
    with pytest.raises(ConvergenceFailure, match="cap M = 64"):
        hardy_columns(g)
    assert cutoffs == [8, 10, 13, 17, 22, 28, 35, 44, 55, 64]


def test_hardy_solve_below_band_is_the_finite_section_solve():
    g = synthesize(RootCoordsSU2(0.0, np.array([0.3, 0.2j]), 0j,
                                 np.array([0.1]), np.array([0.2 - 0.1j])))
    M = g.band_width // 2
    X = hardy_columns(g, M)[0]
    ref = np.linalg.solve(_block_reference(g, M, False), np.eye(2 * M + 2, 2))
    assert X.shape == (M + 1, 2, 2)
    assert np.abs(X.reshape(-1, 2) - ref).max() < 1e-12


def _const_loop():
    return from_coeff_dict({0: _su2_const(0.7)})


@pytest.mark.parametrize("M", [2.5, np.nan, -1, True])
@pytest.mark.parametrize("call", [
    lambda g, M: toeplitz(g, M),
    lambda g, M: toeplitz(g, M, shifted=True),
    recover_eta0,
    birkhoff_factor,
    a0_from_dets,
], ids=["toeplitz", "toeplitz_shifted", "recover_eta0", "birkhoff_factor",
        "a0_from_dets"])
def test_cutoff_must_be_a_count(call, M):
    with pytest.raises(InvalidInput, match="M must be an integer >= 0"):
        call(_const_loop(), M)


@pytest.mark.parametrize("call", [birkhoff_factor, triangular_factor])
def test_splitting_takes_no_converged_cutoff(call):
    # M=None is the converged cutoff of the Hardy solve, not of the splitting
    with pytest.raises(InvalidInput, match="M must be an integer >= 0"):
        call(_const_loop(), None)


def test_winding_loop_determinant_decays():
    # diag(z, 1/z) has winding; truncated determinants collapse with M
    g = from_coeff_dict({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    vals = [log_det_AstarA(toeplitz(g, M)) for M in (2, 6, 12)]
    assert vals[0] > vals[1] > vals[2] or vals[2] == -np.inf


@pytest.mark.filterwarnings("error")
def test_log_det_singular_sentinel():
    g = from_coeff_dict({0: np.zeros((2, 2))})
    assert log_det_AstarA(toeplitz(g, 2)) == -np.inf


def _log_det_svd_reference(T):
    """log det(A* A) as twice the sum of log singular values of A."""
    s = np.linalg.svd(T.matrix, compute_uv=False)
    return -np.inf if s[-1] == 0.0 else float(2.0 * np.sum(np.log(s)))


@pytest.mark.parametrize("level,truncation,seed", [(0.0, 12, 0), (1.0, 12, 1),
                                                   (3.5, 24, 2), (0.0, 24, 3)])
def test_log_det_matches_svd_reference(level, truncation, seed):
    # synthesized draws; the last two give cutoffs M of about 250 and 320
    c = sample_coords(MeasureSpec.su2(level, truncation),
                      np.random.default_rng(seed))
    g = synthesize(c).trimmed(1e-14)
    for shifted in (False, True):
        T = toeplitz(g, g.band_width, shifted=shifted)
        assert abs(log_det_AstarA(T) - _log_det_svd_reference(T)) <= 1e-12


def test_birkhoff_constant_loop():
    u = _su2_const(0.9)
    gm, g0, gp, res = birkhoff_factor(from_coeff_dict({0: u}), 4)
    np.testing.assert_allclose(g0, u, atol=1e-12)
    assert res < 1e-12


def test_birkhoff_normalizations_and_residual():
    c = RootCoordsSU2(0.0, np.array([0.2 + 0.1j, 0.05]), 0.3j,
                      np.array([0.1 - 0.02j]), np.array([0.25j]))
    g = synthesize(c)
    gm, g0, gp, res = birkhoff_factor(g, 48)
    assert res < 1e-8
    # g_plus(0) = I and g_minus(inf) = I
    np.testing.assert_allclose(gp.coeff(0), np.eye(2), atol=1e-10)
    np.testing.assert_allclose(gm.coeff(gm.n_min) if gm.n_min == 0
                               else gm.coeff(0), np.eye(2), atol=1e-10)
    vals = evaluate(gm, 129) @ g0 @ evaluate(gp, 129)
    assert np.abs(vals - evaluate(g, 129)).max() < 1e-8


def test_birkhoff_g_plus_inverts_the_hardy_series():
    c = RootCoordsSU2(1.0, np.array([0.3j, 0.0, 0.2]), 0.5j,
                      np.array([0.0, 0.15 + 0.1j]), np.array([0.1, 0.0, 0.25]))
    g = synthesize(c)
    M = max(48, g.band_width)
    _, g0, gp, _ = birkhoff_factor(g, M)
    # the Hardy solve A(g) X = E0 gives h = (g0 g_plus)^{-1}; with s = h g0,
    # s g_plus = I mod z^{M+1}
    A = toeplitz(g, M).matrix
    s = np.linalg.solve(A, np.eye(A.shape[0], 2)).reshape(M + 1, 2, 2) @ g0
    gp_series = gp.with_band(0, M).coeffs
    prod = np.array([sum(s[k] @ gp_series[n - k] for k in range(n + 1))
                     for n in range(M + 1)])
    expected = np.zeros_like(prod)
    expected[0] = np.eye(2)
    assert np.abs(prod - expected).max() < 1e-12


@pytest.mark.parametrize("shape, M", [
    pytest.param(shape, M, id=f"{name}{M}")
    for name, shape in _TOEPLITZ_LOOPS.items() for M in (0, 2, 4, 5, 8)])
def test_g_minus_is_the_product_with_the_hardy_series(shape, M, monkeypatch):
    # g_minus is g h mod z, h the Hardy series X, whatever the residual
    monkeypatch.setattr(factorization, "_RESIDUAL_TOL", np.inf)
    d, n_min, n_max = shape
    rng = np.random.default_rng(4)
    c = rng.standard_normal((n_max - n_min + 1, d, d))
    g = LaurentLoop(d, n_min, n_max, c + 1j * rng.standard_normal(c.shape))
    X = hardy_columns(g, M)[0]
    gm, g0, _, _ = birkhoff_factor(g, M)
    ref = multiply(g, LaurentLoop(d, 0, M, X)).with_band(max(n_min, -M), 0)
    assert (gm.n_min, gm.n_max) == (ref.n_min, ref.n_max)
    assert np.abs(gm.coeffs - ref.coeffs).max() <= 1e-13 * np.abs(c).max()
    np.testing.assert_array_equal(g0, np.linalg.inv(X[0]))


def _synthesized_draws(n):
    for i in range(n):
        c = random_coords(np.random.default_rng([31, i]), (0.0, 1.0, 3.5)[i % 3])
        g = synthesize(c)
        yield c, g, max(64, g.band_width)


def _measure_draws(truncation, n):
    for i in range(n):
        c = sample_coords(MeasureSpec.su2(0.0, truncation),
                          np.random.default_rng([truncation, i]))
        g = synthesize(c)
        yield c, g, max(64, g.band_width)


@pytest.mark.parametrize("draws, within_residual", [
    (lambda: _synthesized_draws(24), False), (lambda: _measure_draws(12, 10), True),
    (lambda: _measure_draws(24, 10), True)], ids=["sparse", "measure-12", "measure-24"])
def test_g_plus_is_the_triangular_solve_route(draws, within_residual, monkeypatch):
    # g_plus from the adjoint Hardy solve against the inverse of the series
    # h g0 by a second section.  Sparse draws agree to 1e-12 (measured
    # 2.1e-14).  On the measure's draws the oracle's own product residual is
    # larger, and the routes agree within it (measured 0.27 and 0.16 of it)
    sections = _record_sections(monkeypatch)
    for _, g, M in draws():
        sections.clear()
        gm, g0, gp, _ = birkhoff_factor(g, M)
        assert sections == [M]      # one section, one LU
        ref = birkhoff_g_plus(g, M)
        assert (gp.n_min, gp.n_max) == (0, min(g.n_max, M))
        assert np.abs(gp.coeff(0) - np.eye(2)).max() <= 1e-14
        diff = np.abs(ref.coeffs - gp.with_band(0, M).coeffs).max()
        bound = product_residual(g, gm, g0, ref) if within_residual else 1e-12
        assert diff <= bound


@pytest.mark.parametrize("M", [0, 2, 4, 5, 8])
def test_g_plus_band_is_cut_at_the_cutoff(M, monkeypatch):
    # on band [-3, 5] the cutoffs 0, 2 and 4 cut g_plus, 5 and 8 do not
    monkeypatch.setattr(factorization, "_RESIDUAL_TOL", np.inf)
    rng = np.random.default_rng(4)
    c = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    gm, _, gp, _ = birkhoff_factor(LaurentLoop(2, -3, 5, c), M)
    assert (gm.n_min, gm.n_max, gp.n_min, gp.n_max) == (-min(3, M), 0, 0, min(5, M))


def test_product_residual_matches_the_evaluate_oracle():
    for _, g, M in _synthesized_draws(12):
        gm, g0, gp, _ = birkhoff_factor(g, M)
        assert abs(_product_residual(g, gm, g0, gp)
                   - product_residual(g, gm, g0, gp)) <= 1e-14


def test_triangular_a0_is_the_closed_form():
    # a0^2 is the ratio of the truncated-determinant limits, in closed form
    for c, g, M in _synthesized_draws(60):
        tf = triangular_factor(g, M)
        a0 = np.exp(0.5 * log_product_formula(c, "a0sq"))
        assert abs(tf.a0 - a0) <= 1e-12 * a0
        assert tf.residual <= 1e-12


def test_birkhoff_singular_raises():
    g = from_coeff_dict({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    with pytest.raises(ConvergenceFailure):
        birkhoff_factor(g, 8)


def test_ldu_reconstructs():
    rng = np.random.default_rng(4)
    g0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    l, m, a, u = ldu_2x2(g0)
    np.testing.assert_allclose(l @ m @ a @ u, g0, atol=1e-12)
    assert a[0, 0].real > 0 and a[1, 1].real > 0
    assert abs(abs(m[0, 0]) - 1) < 1e-12 and abs(abs(m[1, 1]) - 1) < 1e-12
    assert l[0, 1] == 0 and u[1, 0] == 0


def test_ldu_not_in_top_stratum():
    with pytest.raises(NotInTopStratum):
        ldu_2x2(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _ldu_2x2_scalar(g0, tol=1e-13):
    """The single-matrix LDU as written before ldu_2x2 took stacks: the
    reference for the 2x2 call that triangular_factor and wiener make."""
    g0 = np.asarray(g0, dtype=complex)
    a, b = g0[0, 0], g0[0, 1]
    c, d = g0[1, 0], g0[1, 1]
    scale = max(np.abs(g0).max(), 1.0)
    if abs(a) <= tol * scale:
        raise NotInTopStratum("vanishing (1,1) entry: no LDU at this point")
    det = a * d - b * c
    d2 = det / a
    l = np.array([[1.0, 0.0], [c / a, 1.0]], dtype=complex)
    u = np.array([[1.0, b / a], [0.0, 1.0]], dtype=complex)
    m = np.diag([a / abs(a), d2 / abs(d2)]).astype(complex)
    adiag = np.diag([abs(a), abs(d2)]).astype(complex)
    return l, m, adiag, u


def _random_stack(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))


def test_ldu_single_matrix_matches_scalar_reference():
    for g0 in _random_stack(21, 300):
        for got, want in zip(ldu_2x2(g0), _ldu_2x2_scalar(g0)):
            assert got.shape == (2, 2) and got.dtype == complex
            assert np.array_equal(got, want)


def test_ldu_stack_matches_per_matrix_calls():
    G = _random_stack(22, 400)
    stacked = ldu_2x2(G)
    for k, g0 in enumerate(G):
        for got, want in zip(stacked, ldu_2x2(g0)):
            assert np.array_equal(got[k], want)
    l, m, a, u = stacked
    np.testing.assert_allclose(l @ m @ a @ u, G, atol=1e-12)
    assert l.shape == m.shape == a.shape == u.shape == G.shape


def test_ldu_rejects_non_2x2_shapes():
    for shape in ((3, 3), (2,), (5, 2, 3)):
        with pytest.raises(InvalidInput):
            ldu_2x2(np.ones(shape))


def test_ldu_stack_with_one_vanishing_entry_raises():
    G = _random_stack(23, 50)
    G[17, 0, 0] = 0.0
    with pytest.raises(NotInTopStratum):
        ldu_2x2(G)


def test_triangular_factor_matches_det_route():
    c = RootCoordsSU2(1.0, np.array([0.3]), 0j, E, np.array([0.2 - 0.1j]))
    g = synthesize(c)
    M = max(48, g.band_width)
    tf = triangular_factor(g, M)
    assert abs(tf.a0 - a0_from_dets(g, M)) < 1e-6
    assert abs(abs(tf.m[0, 0]) - 1.0) < 1e-12
    prod = multiply(multiply(tf.l, from_coeff_dict({0: tf.m @ tf.a})), tf.u)
    n = 257
    assert np.abs(evaluate(prod, n) - evaluate(g, n)).max() < 1e-7


def test_a0_from_dets_constant():
    u = _su2_const(0.7)
    g = from_coeff_dict({0: u})
    assert abs(a0_from_dets(g, 4) - abs(u[0, 0])) < 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_ldu_rejects_non_finite_matrices(bad):
    g0 = _su2_const(0.3)
    g0[1, 0] = bad
    with pytest.raises(InvalidInput):
        ldu_2x2(g0)
    G = _random_stack(29, 5)
    G[3, 0, 0] = bad
    with pytest.raises(InvalidInput):
        ldu_2x2(G)
