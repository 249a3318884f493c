import numpy as np
import pytest

from looplab.errors import ConvergenceFailure, InvalidInput, NotInTopStratum
from looplab.factorization import (_solve_hardy_columns, a0_from_dets,
                                   birkhoff_factor, ldu_2x2, log_det_AstarA,
                                   toeplitz, triangular_factor)
from looplab.loops import (LaurentLoop, evaluate, from_coeff_dict,
                           identity_loop, multiply)
from looplab.measures import MeasureSpec, sample_coords
from looplab.rootsub import RootCoordsSU2, recover_eta0, synthesize

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


# band [-3, 5]: M = 0, 2 cut both sides, M = 4 only the top, M = 5 is the
# band width and M = 8 lies past it
@pytest.mark.parametrize("M", [0, 2, 4, 5, 8])
@pytest.mark.parametrize("shifted", [False, True])
def test_toeplitz_matches_block_reference(M, shifted):
    rng = np.random.default_rng(4)
    c = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    g = LaurentLoop(2, -3, 5, c)
    np.testing.assert_array_equal(toeplitz(g, M, shifted=shifted).matrix,
                                  _block_reference(g, M, shifted))


def test_hardy_solve_below_band_is_the_finite_section_solve():
    g = synthesize(RootCoordsSU2(0.0, np.array([0.3, 0.2j]), 0j,
                                 np.array([0.1]), np.array([0.2 - 0.1j])))
    M = g.band_width // 2
    X = _solve_hardy_columns(g, M)
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
