"""Pseudoinverse oracle and verification predicate tests."""

import numpy as np
import pytest

from pinvkit import (
    characterization_residuals,
    dagger,
    frobenius,
    gen_random_matrix,
    is_134_inverse,
    penrose_residuals,
    pinv,
    pinv_normal_equations,
    projectors,
)
from pinvkit.matrix import DEFAULT_TOL, PreconditionError


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(2, dtype=complex)), np.eye(2), atol=1e-14)


def test_pinv_diagonal():
    x = pinv(np.diag([2.0, 0.0]).astype(complex))
    assert np.allclose(x, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_rank_one_outer_product():
    # x = (1,1), y = (1,0,0):  (x y^t)^+ = y x^t / (|x|^2 |y|^2)
    a = np.outer([1.0, 1.0], [1.0, 0.0, 0.0]).astype(complex)
    expected = np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert np.allclose(pinv(a), expected, atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_pinv_rank_one_random(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a = np.outer(x, y.conj())
    expected = np.outer(y, x.conj()) / (
        np.sum(np.abs(x) ** 2) * np.sum(np.abs(y) ** 2)
    )
    assert frobenius(pinv(a) - expected) <= 1e-12 * max(1.0, frobenius(expected))


def test_pinv_zero_matrix():
    x = pinv(np.zeros((3, 5), dtype=complex))
    assert x.shape == (5, 3) and np.array_equal(x, np.zeros((5, 3)))


def test_penrose_identity_all_zero():
    rep = penrose_residuals(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert rep.passed and all(r == 0.0 for r in rep.residuals.values())


def test_penrose_134_but_not_2():
    # X = diag(1, 5) satisfies equations 1, 3, 4 for A = diag(1, 0) but not 2.
    a = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([1.0, 5.0]).astype(complex)
    rep = penrose_residuals(a, x)
    assert rep.check("penrose1") and rep.check("penrose3") and rep.check("penrose4")
    assert not rep.check("penrose2")
    assert is_134_inverse(a, x)
    assert not rep.passed


def test_penrose_shape_mismatch():
    with pytest.raises(PreconditionError):
        penrose_residuals(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_penrose_oracle_self_consistency():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    rep = penrose_residuals(a, pinv(a), DEFAULT_TOL)
    assert rep.passed


def test_characterizations_identity():
    rep = characterization_residuals(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    assert rep.passed


def test_characterizations_full_column_rank():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    rep = characterization_residuals(a, pinv(a), DEFAULT_TOL)
    assert rep.passed


def test_characterizations_reject_non_mpi():
    a = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([1.0, 1.0]).astype(complex)
    rep = characterization_residuals(a, x)
    assert not rep.check("char_ii")
    assert not rep.passed


def test_characterizations_reject_134_only():
    # A {1,3,4}-inverse that is not the MPI must fail at least one system.
    a = np.diag([1.0, 0.0]).astype(complex)
    x = np.diag([1.0, 5.0]).astype(complex)
    rep = characterization_residuals(a, x)
    assert not rep.passed


def test_normal_equations_trivial():
    a = np.array([[1.0], [1.0]], dtype=complex)
    assert np.allclose(pinv_normal_equations(a), [[0.5, 0.5]], atol=1e-14)
    assert np.allclose(pinv_normal_equations(np.eye(2, dtype=complex)), np.eye(2), atol=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_normal_equations_match_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if seed % 2:
        # rank deficiency by repeating columns
        if n >= 2:
            a[:, -1] = a[:, 0]
    x, y = pinv_normal_equations(a), pinv(a)
    assert frobenius(x - y) <= 1e-9 * max(1.0, frobenius(y))


def test_projectors_trivial():
    p_r, p_na, p_ra, p_n = projectors(np.eye(2, dtype=complex))
    assert np.allclose(p_r, np.eye(2)) and np.allclose(p_na, 0)
    assert np.allclose(p_ra, np.eye(2)) and np.allclose(p_n, 0)
    p_r, p_na, p_ra, p_n = projectors(np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(p_r, np.diag([1, 0])) and np.allclose(p_na, np.diag([0, 1]))
    assert np.allclose(p_ra, np.diag([1, 0])) and np.allclose(p_n, np.diag([0, 1]))


def test_projector_onto_span_of_ones():
    e = np.ones((3, 1), dtype=complex)
    p_r, _, _, _ = projectors(e @ e.T)
    assert np.allclose(p_r, np.full((3, 3), 1.0 / 3.0), atol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_projector_algebra(seed):
    rng = np.random.default_rng(300 + seed)
    m, n = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    r = int(rng.integers(0, min(m, n) + 1))
    a = gen_random_matrix(300 + seed, m, n, rank=r)
    tol = DEFAULT_TOL
    bound = 1e-9 * max(1.0, frobenius(a))
    for p, dim in zip(projectors(a, tol), (m, m, n, n)):
        assert frobenius(p @ p - p) <= bound
        assert frobenius(dagger(p) - p) <= bound
    p_r, p_na, p_ra, p_n = projectors(a, tol)
    assert frobenius(p_r + p_na - np.eye(m)) <= bound
    assert frobenius(p_ra + p_n - np.eye(n)) <= bound


@pytest.mark.parametrize("seed", range(10))
def test_pinv_involution_and_adjoint_commute(seed):
    rng = np.random.default_rng(400 + seed)
    m, n = int(rng.integers(1, 33)), int(rng.integers(1, 33))
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    x = pinv(a)
    assert frobenius(pinv(x) - a) <= 1e-10 * frobenius(a)
    assert frobenius(pinv(dagger(a)) - dagger(x)) <= 1e-10 * max(1.0, frobenius(x))


def test_gen_random_matrix_rank_control():
    a = gen_random_matrix(5, 9, 7, rank=3)
    from pinvkit import svd

    assert svd(a).rank == 3
    assert gen_random_matrix(5, 9, 7, rank=3).tolist() == a.tolist()  # deterministic
    with pytest.raises(PreconditionError):
        gen_random_matrix(0, 3, 3, rank=9)


def test_residual_report_worst():
    a = np.diag([1.0, 0.0]).astype(complex)
    rep = penrose_residuals(a, np.diag([1.0, 5.0]).astype(complex))
    name, value = rep.worst
    assert name == "penrose2" and value > 0


def test_scaled_tolerance_used_for_large_matrices():
    rng = np.random.default_rng(77)
    a = 1e6 * (rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    rep = penrose_residuals(a, pinv(a), DEFAULT_TOL)
    assert rep.passed
