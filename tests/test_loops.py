import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looplab.errors import InvalidInput
from looplab.loops import (LaurentLoop, default_grid_size, evaluate,
                           fourier_project, from_coeff_dict,
                           identity_loop, loop_from_json, loop_to_json,
                           mobius_apply, mobius_check, mobius_reparam,
                           multiply, star, unitarity_defect)

from oracles import evaluate_at


def _rand_loop(rng, n_min=-2, n_max=2, dim=2):
    c = rng.standard_normal((n_max - n_min + 1, dim, dim))
    c = c + 1j * rng.standard_normal(c.shape)
    return LaurentLoop(dim, n_min, n_max, c)


def _zloop():
    # diag(z, 1/z)
    return from_coeff_dict({1: np.diag([1.0, 0.0]), -1: np.diag([0.0, 1.0])})


def test_identity_multiply_exact():
    g = _rand_loop(np.random.default_rng(0))
    h = multiply(g, identity_loop())
    assert h.n_min == g.n_min and h.n_max == g.n_max
    np.testing.assert_array_equal(h.coeffs, g.coeffs)


def test_monomial_inverse():
    z = _zloop()
    zinv = from_coeff_dict({-1: np.diag([1.0, 0.0]), 1: np.diag([0.0, 1.0])})
    p = multiply(z, zinv).trimmed(0.0)
    np.testing.assert_allclose(p.coeffs, identity_loop().coeffs)


def test_multiply_matches_grid_product():
    rng = np.random.default_rng(3)
    g, h = _rand_loop(rng), _rand_loop(rng)
    p = multiply(g, h)
    vals = evaluate(g, 64) @ evaluate(h, 64)
    assert np.abs(evaluate(p, 64) - vals).max() < 1e-12


def test_multiply_dim_mismatch():
    g = _rand_loop(np.random.default_rng(1))
    h = _rand_loop(np.random.default_rng(1), dim=3)
    with pytest.raises(InvalidInput):
        multiply(g, h)


def _convolve_reference(g, h):
    """out[i + j] += g[i] @ h[j] over every pair of modes."""
    n_g, n_h = g.coeffs.shape[0], h.coeffs.shape[0]
    out = np.zeros((n_g + n_h - 1, g.dim, g.dim), dtype=complex)
    for i in range(n_g):
        for j in range(n_h):
            out[i + j] += g.coeffs[i] @ h.coeffs[j]
    return out


def _sparse_loop(rng, n_min, n_max, modes):
    c = _rand_loop(rng, n_min, n_max).coeffs.copy()
    c[[n - n_min for n in range(n_min, n_max + 1) if n not in modes]] = 0
    return LaurentLoop(2, n_min, n_max, c)


@pytest.mark.parametrize("g_band,h_band", [((-2, 1), (-3, 4)),   # fewer in g
                                           ((-3, 4), (-2, 1)),   # fewer in h
                                           ((-2, 2), (0, 4))])   # a tie
def test_multiply_matches_reference_convolution(g_band, h_band):
    rng = np.random.default_rng(17)
    for g, h in ((_rand_loop(rng, *g_band), _rand_loop(rng, *h_band)),
                 (_sparse_loop(rng, *g_band, {g_band[0], 1}),
                  _sparse_loop(rng, *h_band, {0, h_band[1]}))):
        p = multiply(g, h)
        assert (p.n_min, p.n_max) == (g.n_min + h.n_min, g.n_max + h.n_max)
        np.testing.assert_allclose(p.coeffs, _convolve_reference(g, h),
                                   rtol=0, atol=1e-13)


def test_multiply_by_constant_matches_reference_bitwise():
    rng = np.random.default_rng(23)
    g = _rand_loop(rng, -5, 7)
    c = _rand_loop(rng, 0, 0)
    for p, q in ((g, c), (c, g)):
        np.testing.assert_array_equal(multiply(p, q).coeffs,
                                      _convolve_reference(p, q))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_multiply_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_loop(rng, -1, 2) for _ in range(3))
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-13


def test_star_involution_and_antihomomorphism():
    rng = np.random.default_rng(7)
    g, h = _rand_loop(rng), _rand_loop(rng)
    gg = star(star(g))
    np.testing.assert_array_equal(gg.coeffs, g.coeffs)
    lhs = star(multiply(g, h))
    rhs = multiply(star(h), star(g))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-13


def test_star_monomial():
    s = star(_zloop())
    np.testing.assert_allclose(s.coeff(-1), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(s.coeff(1), np.diag([0.0, 1.0]))


def test_star_matches_grid_dagger():
    g = _rand_loop(np.random.default_rng(11))
    vals = evaluate(g, 32)
    svals = evaluate(star(g), 32)
    np.testing.assert_allclose(
        svals, np.conj(np.transpose(vals, (0, 2, 1))), atol=1e-12)


def test_evaluate_monomial_at_i():
    vals = evaluate(_zloop(), 4)
    np.testing.assert_allclose(vals[1], np.diag([1j, -1j]), atol=1e-14)


def test_evaluate_identity():
    vals = evaluate(identity_loop(), 7)
    for v in vals:
        np.testing.assert_allclose(v, np.eye(2))


def test_project_evaluate_roundtrip():
    g = _rand_loop(np.random.default_rng(5), -3, 4)
    n = default_grid_size(g.band_width)
    back = fourier_project(evaluate(g, n), g.n_min, g.n_max)
    assert np.abs(back.coeffs - g.coeffs).max() < 1e-12


def test_project_aliasing_raises():
    samples = np.zeros((4, 2, 2), dtype=complex)
    with pytest.raises(InvalidInput):
        fourier_project(samples, -3, 3)


def test_band_must_contain_zero():
    with pytest.raises(InvalidInput):
        LaurentLoop(2, 1, 3, np.zeros((3, 2, 2), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_rejected(bad):
    g = _rand_loop(np.random.default_rng(19))
    coeffs = g.coeffs.copy()
    coeffs[1, 0, 1] = bad
    with pytest.raises(InvalidInput):
        LaurentLoop(2, g.n_min, g.n_max, coeffs)
    samples = evaluate(g, 16)
    samples[3, 1, 0] = bad
    with pytest.raises(InvalidInput):
        fourier_project(samples, g.n_min, g.n_max)


def test_coefficient_lists_become_arrays():
    c = np.array([[[1, 0], [0, 1]]], dtype=complex)
    g = LaurentLoop(2, 0, 0, c)
    assert g.coeffs is c
    assert np.array_equal(LaurentLoop(2, 0, 0, [[[1, 0], [0, 1]]]).coeffs, c)
    for bad in ([[1, 0], [0, 1]], [[[1, 0], [0]]], [[["a", "b"], ["c", "d"]]]):
        with pytest.raises(InvalidInput):
            LaurentLoop(2, 0, 0, bad)


@pytest.mark.parametrize("shape", [(8,), (8, 2, 3)])
def test_project_needs_square_matrix_samples(shape):
    with pytest.raises(InvalidInput):
        fourier_project(np.ones(shape), -1, 1)


@pytest.mark.parametrize("mode", [1.5, 1.0, "1", None])
def test_coeff_dict_modes_must_be_integers(mode):
    with pytest.raises(InvalidInput):
        from_coeff_dict({mode: np.eye(2)})
    assert from_coeff_dict({np.int64(1): np.eye(2)}).n_max == 1


@pytest.mark.parametrize("mat", [np.eye(3), np.ones((2, 2, 2)), [[1, "a"], [0, 1]]],
                         ids=["3x3", "stack", "string"])
def test_coeff_dict_matrices_must_be_numeric_dim_by_dim(mat):
    with pytest.raises(InvalidInput):
        from_coeff_dict({0: mat})


@pytest.mark.parametrize("build, name", [
    (lambda: from_coeff_dict({}, dim=-1), "dim"),
    (lambda: from_coeff_dict({0: np.eye(2)}, dim=2.0), "dim"),
    (lambda: identity_loop(2.5), "dim"),
    (lambda: identity_loop(0), "dim"),
    (lambda: LaurentLoop(0, 0, 0, np.zeros((1, 0, 0))), "dim"),
    (lambda: LaurentLoop(2, -0.5, 0.5, np.zeros((2, 2, 2))), "n_max"),
    (lambda: LaurentLoop(2, -0.5, 0, np.zeros((1, 2, 2))), "-n_min"),
    (lambda: LaurentLoop(2, None, 0, np.zeros((1, 2, 2))), "-n_min"),
    (lambda: LaurentLoop(2, "a", 0, np.zeros((1, 2, 2))), "-n_min"),
    (lambda: LaurentLoop(2, False, 0, np.zeros((1, 2, 2))), "-n_min"),
], ids=["dict-negative-dim", "dict-float-dim", "float-dim", "zero-dim",
        "0x0-loop", "half-integer-band", "half-integer-n_min", "none-n_min",
        "string-n_min", "bool-n_min"])
def test_loop_dim_and_band_must_be_counts(build, name):
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
        build()


def test_coeffs_write_protected():
    g = identity_loop()
    with pytest.raises(ValueError):
        g.coeffs[0, 0, 0] = 5.0


def test_mobius_check_rejects_non_circle():
    with pytest.raises(InvalidInput):
        mobius_check(1.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(np.nan, 0.0), (1.0, np.nan),
                                 (complex(1.0, np.nan), 0.0), (np.inf, 0.0),
                                 (np.inf, np.inf), (1.0, -np.inf)])
def test_mobius_check_rejects_non_finite(a, b):
    with pytest.raises(InvalidInput):
        mobius_check(a, b)
    with pytest.raises(InvalidInput):
        mobius_reparam(_zloop(), a, b)


def test_mobius_identity():
    g = _rand_loop(np.random.default_rng(2))
    out = mobius_reparam(g, 1.0, 0.0)
    assert np.abs(out.coeffs - g.coeffs).max() < 1e-12


def test_mobius_rotation_acts_on_modes():
    g = _rand_loop(np.random.default_rng(9))
    phi = 0.37
    out = mobius_reparam(g, np.exp(0.5j * phi), 0.0)
    ns = np.arange(g.n_min, g.n_max + 1)
    expect = g.coeffs * np.exp(-1j * ns * phi)[:, None, None]
    assert np.abs(out.coeffs - expect).max() < 1e-12


def test_mobius_hyperbolic_grid_oracle():
    g = _zloop()
    a, b = np.cosh(0.3), np.sinh(0.3)
    # the composed loop is rational with a pole at |z| = coth(0.3) ~ 3.4,
    # so coefficients decay geometrically: band 32 is far past 1e-8
    out = mobius_reparam(g, a, b, band_out=32)
    n = 257
    w = np.exp(2j * np.pi * np.arange(n) / n)
    direct = evaluate_at(g, mobius_apply(np.conj(a), -b, w))
    assert np.abs(evaluate_at(out, w) - direct).max() < 1e-8


@pytest.mark.parametrize("n_min, n_max, dim", [(-7, 5, 2), (0, 4, 3), (-3, 0, 1)])
def test_mobius_reparam_is_the_oracle_projection(n_min, n_max, dim):
    g = _rand_loop(np.random.default_rng(12), n_min, n_max, dim)
    a, b = np.cosh(0.2), np.sinh(0.2)
    n = default_grid_size(9)
    z = mobius_apply(np.conj(a), -b, np.exp(2j * np.pi * np.arange(n) / n))
    ref = fourier_project(evaluate_at(g, z / np.abs(z)), -9, 9)
    out = mobius_reparam(g, a, b, band_out=9)
    # the power table sums in another order than Horner: a roundoff bound
    norms = np.linalg.norm(g.coeffs, ord=2, axis=(1, 2))
    bound = 4 * np.finfo(float).eps * norms.sum()
    assert np.abs(out.coeffs - ref.coeffs).max() <= bound


def test_mobius_preserves_unitarity():
    # unitary input stays unitary after reparameterization
    th = 2 * np.pi * np.arange(33) / 33
    samples = np.zeros((33, 2, 2), dtype=complex)
    samples[:, 0, 0] = np.exp(1j * np.sin(th))
    samples[:, 1, 1] = np.exp(-1j * np.sin(th))
    g = fourier_project(samples, -8, 8)
    # Bessel-tail truncation at band 8 leaves an O(1e-8) defect
    assert unitarity_defect(g) < 1e-6
    out = mobius_reparam(g, np.cosh(0.1), np.sinh(0.1), band_out=40)
    assert unitarity_defect(out) < 1e-6


def test_json_roundtrip_bit_exact():
    g = _rand_loop(np.random.default_rng(13), -2, 3)
    back = loop_from_json(loop_to_json(g))
    assert back.dim == g.dim
    assert (back.n_min, back.n_max) == (g.n_min, g.n_max)
    np.testing.assert_array_equal(back.coeffs, g.coeffs)
    # and the serialized form is valid JSON with the documented keys
    obj = json.loads(loop_to_json(g))
    assert set(obj) == {"dim", "n_min", "n_max", "coeffs"}


@pytest.mark.parametrize("text", [
    "{}", "[]", '{"dim": 2, "n_min": 0, "n_max": 0}',
    '{"n_min": 0, "n_max": 0, "coeffs": [[[1, 0], [0, 0], [0, 0], [1, 0]]]}',
])
def test_json_missing_keys_rejected(text):
    with pytest.raises(InvalidInput, match="keys"):
        loop_from_json(text)


_ID_MODE = [[1, 0], [0, 0], [0, 0], [1, 0]]


def _loop_json(n_min, n_max, modes):
    return json.dumps({"dim": 2, "n_min": n_min, "n_max": n_max, "coeffs": modes})


@pytest.mark.parametrize("text", [
    pytest.param(_loop_json(0, 0, [_ID_MODE] * 2), id="extra-mode"),
    pytest.param(_loop_json(-1, 1, [_ID_MODE]), id="fewer-modes-than-band"),
    pytest.param(_loop_json(0, 0, [_ID_MODE[:3]]), id="short-mode"),
    pytest.param(_loop_json(0, 0, [3]), id="bare-number-mode"),
    pytest.param(_loop_json(0, 0, [[1, 0, 0, 1]]), id="bare-number-pair"),
    pytest.param(_loop_json(0, 1.0, [_ID_MODE] * 2), id="float-n_max"),
    pytest.param("{dim: 2", id="not-json"),
])
def test_json_malformed_modes_rejected(text):
    with pytest.raises(InvalidInput):
        loop_from_json(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_grid", [2.5, 0, -3, True])
def test_grid_size_must_be_a_positive_integer(n_grid):
    g = _rand_loop(np.random.default_rng(23))
    with pytest.raises(InvalidInput, match="n_grid"):
        evaluate(g, n_grid)
    with pytest.raises(InvalidInput, match="n_grid"):
        unitarity_defect(g, n_grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("band", [2.5, -1, np.nan])
def test_projection_band_must_be_integral(band):
    g = _rand_loop(np.random.default_rng(29))
    with pytest.raises(InvalidInput, match="band_out"):
        mobius_reparam(g, np.cosh(0.1), np.sinh(0.1), band_out=band)
    with pytest.raises(InvalidInput, match="band_out"):
        mobius_reparam(g, np.exp(0.3j), 0.0, band_out=band)
    samples = evaluate(g, 16)
    with pytest.raises(InvalidInput, match="n_max"):
        fourier_project(samples, -2, band)
    with pytest.raises(InvalidInput, match="n_min"):
        fourier_project(samples, -band, 2)
