"""Tests for circulant algebra and the closed-form pseudoinverse paths."""

from __future__ import annotations

import numpy as np
import pytest

from pinvkit.circulant import (
    block_pattern_coefficients,
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_mul,
    circ_pinv_spectral,
    circ_spectrum,
    generator_from_spectrum,
    rho,
    shift_power,
    support_split_pinv,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.core import penrose_residuals, pinv
from pinvkit.matrix import DEFAULT_TOL, PreconditionError, frobenius


def test_materialize_first_row_convention():
    got = circ_materialize([1, 2, 3])
    want = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]], dtype=np.complex128)
    np.testing.assert_array_equal(got, want)


def test_materialize_matches_shift_expansion():
    rng = np.random.default_rng(0)
    gen = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    want = sum(gen[k] * shift_power(5, k) for k in range(5))
    np.testing.assert_allclose(circ_materialize(gen), want, atol=1e-14)


def test_rho_gives_transpose():
    np.testing.assert_array_equal(rho([1, 2, 3, 4]), [1, 4, 3, 2])
    gen = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(circ_materialize(rho(gen)), circ_materialize(gen).T)


def test_shift_powers_multiply_to_identity():
    np.testing.assert_allclose(shift_power(3, 1) @ shift_power(3, 2), np.eye(3))
    with pytest.raises(PreconditionError):
        shift_power(3, 3)
    with pytest.raises(PreconditionError):
        shift_power(1, 0)


def test_circ_mul_identity_and_shift():
    np.testing.assert_array_equal(circ_mul([1, 0, 0], [5, 6, 7]), [5, 6, 7])
    np.testing.assert_array_equal(circ_mul([0, 1, 0], [1, 2, 3]), [3, 1, 2])


def test_circ_mul_matches_matrix_product():
    got = circ_mul([1, 1, 0, 0], [1, 1, 0, 0])
    np.testing.assert_array_equal(got, [1, 2, 1, 0])
    want = circ_materialize([1, 1, 0, 0]) @ circ_materialize([1, 1, 0, 0])
    np.testing.assert_allclose(circ_materialize(got), want)


def test_circ_mul_commutative_and_exact_on_ints():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.integers(-9, 10, size=7)
        b = rng.integers(-9, 10, size=7)
        ab = circ_mul(a, b)
        assert ab.dtype.kind == "i"
        assert np.array_equal(ab, circ_mul(b, a))


def test_circ_mul_rejects_length_mismatch():
    with pytest.raises(PreconditionError, match="lengths"):
        circ_mul([1, 2], [1, 2, 3])


def test_spectrum_diagonalizes():
    rng = np.random.default_rng(1)
    gen = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    spec = circ_spectrum(gen)
    c = circ_materialize(gen)
    # every eigenvalue has its DFT column as eigenvector
    n = 6
    for k in range(n):
        vec = np.exp(2j * np.pi * k * np.arange(n) / n) / np.sqrt(n)
        np.testing.assert_allclose(c @ vec, spec.values[k] * vec, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 17, 64, 128])
def test_spectrum_round_trip(n):
    rng = np.random.default_rng(n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = generator_from_spectrum(circ_spectrum(gen).values)
    scale = max(1.0, float(np.sqrt(np.sum(np.abs(gen) ** 2))))
    assert frobenius(back[None, :] - gen[None, :]) <= 1e-12 * scale


def test_spectrum_support_identity_and_ones():
    assert circ_spectrum([1.0, 0.0, 0.0]).support == (0, 1, 2)
    assert circ_spectrum(np.ones(3)).support == (0,)
    assert circ_spectrum(np.zeros(4)).support == ()


def test_spectral_pinv_identity():
    got = circ_pinv_spectral([1.0, 0.0, 0.0])
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-14)


def test_spectral_pinv_ones():
    got = circ_pinv_spectral(np.ones(3))
    np.testing.assert_allclose(got, np.ones(3) / 9.0, atol=1e-14)


def test_spectral_pinv_difference_generator():
    got = circ_pinv_spectral([1.0, -1.0, 0.0])
    np.testing.assert_allclose(got, [1 / 3, 0.0, -1 / 3], atol=1e-13)


def test_spectral_pinv_passes_penrose():
    rng = np.random.default_rng(5)
    for n in (4, 9):
        gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        gen -= np.mean(gen)  # force singularity
        c = circ_materialize(gen)
        x = circ_materialize(circ_pinv_spectral(gen))
        assert penrose_residuals(c, x, DEFAULT_TOL).passed


def test_two_term_difference_n3():
    got = two_term_pinv(1.0, -1.0, 3)
    np.testing.assert_allclose(got, np.array([2.0, 0.0, -2.0]) / 6.0, atol=1e-14)


def test_two_term_equal_coefficients_n4():
    got = two_term_pinv(1.0, 1.0, 4)
    np.testing.assert_allclose(got, np.array([6.0, -2.0, -2.0, 6.0]) / 16.0, atol=1e-14)


def test_two_term_nonsingular_matches_inverse():
    got = circ_materialize(two_term_pinv(2.0, 1.0, 3))
    c = circ_materialize([2.0, 1.0, 0.0])
    np.testing.assert_allclose(got @ c, np.eye(3), atol=1e-12)


def test_two_term_positions_follow_shift_law():
    for n, alpha, beta in ((4, 1.0, 1.0), (5, 1.0, -1.0), (6, 2.0, 0.5)):
        base = circ_materialize(two_term_pinv(alpha, beta, n))
        for k_pos in range(1, n + 1):
            gen = np.zeros(n, dtype=np.complex128)
            gen[k_pos - 1] = alpha
            gen[k_pos % n] = beta
            c = circ_materialize(gen)
            got = circ_materialize(two_term_pinv(alpha, beta, n, k_pos=k_pos))
            want = base @ shift_power(n, (n - (k_pos - 1)) % n)
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert penrose_residuals(c, got, DEFAULT_TOL).passed


def test_two_term_rejects_zero_coefficients():
    with pytest.raises(PreconditionError, match="nonzero"):
        two_term_pinv(0.0, 1.0, 4)
    with pytest.raises(PreconditionError, match="nonzero"):
        two_term_pinv(1.0, 0.0, 4)
    with pytest.raises(PreconditionError, match="k_pos"):
        two_term_pinv(1.0, 1.0, 4, k_pos=5)


def test_two_term_complex_singular_falls_back_to_spectral():
    # beta/alpha a primitive root: singular but outside both closed forms
    got = circ_materialize(two_term_pinv(1.0, 1j, 4))
    c = circ_materialize([1.0, 1j, 0.0, 0.0])
    assert penrose_residuals(c, got, DEFAULT_TOL).passed


def test_support_split_frozen_example():
    c1 = np.array([1.0, -1.0, 1.0, -1.0])
    c2 = np.array([1.0, 1.0, 0.0, 0.0])
    got, invertible = support_split_pinv([c1, c2])
    np.testing.assert_allclose(got, np.array([7.0, -3.0, -1.0, 5.0]) / 16.0, atol=1e-13)
    assert invertible
    want = circ_materialize(got) @ circ_materialize(c1 + c2)
    np.testing.assert_allclose(want, np.eye(4), atol=1e-12)


def test_support_split_single_member():
    gen = np.array([1.0, -1.0, 0.0])
    got, invertible = support_split_pinv([gen])
    np.testing.assert_allclose(got, circ_pinv_spectral(gen), atol=1e-15)
    assert not invertible


def test_support_split_ones_plus_difference():
    got, invertible = support_split_pinv([np.ones(3), np.array([1.0, -1.0, 0.0])])
    want = np.ones(3) / 9.0 + np.array([1 / 3, 0.0, -1 / 3])
    np.testing.assert_allclose(got, want, atol=1e-13)
    assert invertible


def test_support_split_rejects_collisions():
    with pytest.raises(PreconditionError, match="collide"):
        support_split_pinv([np.ones(3), np.ones(3)])
    with pytest.raises(PreconditionError, match="length"):
        support_split_pinv([np.ones(3), np.ones(4)])
    with pytest.raises(PreconditionError, match="at least one"):
        support_split_pinv([])


def test_zero_sum_shift_case_ii():
    got = zero_sum_shift_pinv([1.0, -1.0, 0.0], alpha=1.0)
    np.testing.assert_allclose(got, [1 / 3, 0.0, -1 / 3], atol=1e-13)


def test_zero_sum_shift_lemma_inverse_value():
    # the shifted matrix in the example above is circ(2,0,1); freeze its inverse
    got = circ_pinv_spectral([2.0, 0.0, 1.0])
    np.testing.assert_allclose(got, np.array([4.0, 1.0, -2.0]) / 9.0, atol=1e-13)


def test_zero_sum_shift_case_i_ones():
    got = zero_sum_shift_pinv(np.ones(3))
    np.testing.assert_allclose(got, np.ones(3) / 9.0, atol=1e-14)


def test_zero_sum_shift_matches_spectral():
    rng = np.random.default_rng(8)
    gen = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gen -= np.mean(gen)
    got = zero_sum_shift_pinv(gen, alpha=2.0)
    assert frobenius((got - circ_pinv_spectral(gen))[None, :]) <= 1e-10
    nonzero_sum = gen + 0.7 * np.ones(8)
    got = zero_sum_shift_pinv(nonzero_sum)
    assert frobenius((got - circ_pinv_spectral(nonzero_sum))[None, :]) <= 1e-10


def test_zero_sum_shift_directions_mutually_inverse():
    rng = np.random.default_rng(9)
    gen = rng.standard_normal(6)
    gen -= np.mean(gen)
    alpha = 2.0
    x = zero_sum_shift_pinv(gen, alpha=alpha)
    shifted = gen + alpha * np.ones(6)
    y = zero_sum_shift_pinv(shifted)  # case (i) on the shifted vector
    back = y - np.ones(6) / (36.0 * alpha)
    assert frobenius((back - x)[None, :]) <= 1e-10


def test_zero_sum_shift_requires_alpha():
    with pytest.raises(PreconditionError, match="alpha"):
        zero_sum_shift_pinv([1.0, -1.0, 0.0])
    with pytest.raises(PreconditionError, match="alpha"):
        zero_sum_shift_pinv([1.0, -1.0, 0.0], alpha=0.0)


def test_block_pattern_defining_identity():
    base = block_pattern_generator(1, 2)
    np.testing.assert_array_equal(base, [1, -1, 1, -1])
    np.testing.assert_array_equal(circ_mul(base, base), 4 * base)
    c = circ_materialize(base.astype(np.complex128))
    np.testing.assert_allclose(circ_materialize(circ_pinv_spectral(base.astype(float))), c / 16.0, atol=1e-13)


def test_block_pattern_pinv_frozen_example():
    got = block_pattern_pinv(1.0, 1.0, k=2, q=2)
    want = (np.ones(6) + np.array([2, -1, -1, 2, -1, -1])) / 36.0
    np.testing.assert_allclose(got, want, atol=1e-14)
    c = circ_materialize(np.array([3.0, 0.0, 0.0, 3.0, 0.0, 0.0]))
    assert penrose_residuals(c, circ_materialize(got), DEFAULT_TOL).passed


def test_block_pattern_coefficient_mapping():
    alpha, beta = block_pattern_coefficients(2.0, 0.0, k=1)
    assert alpha == 1.0 and beta == 1.0
    got = block_pattern_pinv(alpha, beta, k=1, q=2)
    want_matrix = pinv(circ_materialize([2.0, 0.0, 2.0, 0.0]))
    np.testing.assert_allclose(circ_materialize(got), want_matrix, atol=1e-12)


def test_block_pattern_validation():
    with pytest.raises(PreconditionError, match="positive"):
        block_pattern_generator(0, 3)
    with pytest.raises(PreconditionError, match="nonzero"):
        block_pattern_pinv(0.0, 1.0, 1, 2)
    with pytest.raises(PreconditionError, match="positive"):
        block_pattern_coefficients(1.0, 1.0, 0)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_shift_law_against_oracle(n):
    rng = np.random.default_rng(n + 100)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    gen -= np.mean(gen)  # keep a nontrivial null space in play
    base_pinv = circ_materialize(circ_pinv_spectral(gen))
    for l in range(n):
        shifted = circ_mul(np.roll(np.eye(n, dtype=np.complex128)[0], l), gen)
        got = pinv(circ_materialize(shifted))
        want = base_pinv @ shift_power(n, (n - l) % n)
        assert frobenius(got - want) <= 1e-10


def test_closed_forms_agree_with_oracle():
    # one instance per closed-form path, all compared against the dense oracle
    cases = [
        two_term_pinv(1.0, 1.0, 6),
        two_term_pinv(1.0, -1.0, 5),
        zero_sum_shift_pinv(np.array([2.0, -1.0, -1.0, 0.0]), alpha=1.5),
        block_pattern_pinv(1.0, 2.0, k=1, q=3),
    ]
    inputs = [
        np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        np.array([1.0, -1.0, 0.0, 0.0, 0.0]),
        np.array([2.0, -1.0, -1.0, 0.0]),
        np.ones(6) + 2.0 * np.array([1, -1, 1, -1, 1, -1]),
    ]
    for gen, inp in zip(cases, inputs):
        want = pinv(circ_materialize(inp))
        assert frobenius(circ_materialize(gen) - want) <= 1e-9 * max(1.0, frobenius(want))
