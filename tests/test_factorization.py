import numpy as np
import pytest

from looplab.errors import ConvergenceFailure, InvalidInput, NotInTopStratum
from looplab.factorization import (a0_from_dets, birkhoff_factor, ldu_2x2,
                                   log_det_AstarA, toeplitz, triangular_factor)
from looplab.loops import evaluate, from_coeff_dict, identity_loop, multiply
from looplab.rootsub import RootCoordsSU2, synthesize

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
    from looplab.loops import LaurentLoop
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


def test_toeplitz_cutoff_too_small():
    g = from_coeff_dict({3: np.eye(2), 0: np.eye(2)})
    with pytest.raises(InvalidInput):
        toeplitz(g, 2)


def test_winding_loop_determinant_decays():
    # diag(z, 1/z) has winding; truncated determinants collapse with M
    g = from_coeff_dict({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})
    vals = [log_det_AstarA(toeplitz(g, M)) for M in (2, 6, 12)]
    assert vals[0] > vals[1] > vals[2] or vals[2] == -np.inf


def test_log_det_singular_sentinel():
    g = from_coeff_dict({0: np.zeros((2, 2))})
    assert log_det_AstarA(toeplitz(g, 2)) == -np.inf


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


def test_triangular_factor_matches_det_route():
    c = RootCoordsSU2(1.0, np.array([0.3]), 0j, E, np.array([0.2 - 0.1j]))
    g = synthesize(c)
    M = max(48, g.band_width)
    tf = triangular_factor(g, M)
    assert abs(tf.a0 - a0_from_dets(g, M)) < 1e-6
    assert abs(abs(tf.m0) - 1.0) < 1e-12
    prod = multiply(multiply(tf.l, from_coeff_dict({0: tf.m @ tf.a})), tf.u)
    n = 257
    assert np.abs(evaluate(prod, n) - evaluate(g, n)).max() < 1e-7


def test_a0_from_dets_constant():
    u = _su2_const(0.7)
    g = from_coeff_dict({0: u})
    assert abs(a0_from_dets(g, 4) - abs(u[0, 0])) < 1e-10
