"""Tests for orthogonal-sum, completion, and rank-additive pseudoinverses."""

from __future__ import annotations

import numpy as np
import pytest

from pinvkit.core import is_134_inverse, penrose_residuals, pinv, projectors
from pinvkit.linalg import random_unitary, svd
from pinvkit.matrix import (
    DEFAULT_TOL,
    PreconditionError,
    dagger,
    eye,
    frobenius,
)
from pinvkit.sumdecomp import (
    CompletionData,
    OperatorFamily,
    auto_completion,
    check_orthogonality,
    completion_pinv_pair,
    fill_fishkind_pinv,
    gen_rank_additive_pair,
    gen_shared_subspace_triple,
    gen_svd_block_family,
    pinv_invertible_projector_eq,
    pinv_sum,
    pinv_via_gram_equation,
    rank_completion_pinv,
)


def diag(*values):
    return np.diag(np.asarray(values, dtype=np.complex128))


def basis_dyad(n, i, j):
    out = np.zeros((n, n), dtype=np.complex128)
    out[i, j] = 1.0
    return out


# circ(1,-1,0) and its pseudoinverse circ(1/3,0,-1/3), row i shifted right i places
CIRC_DIFF_3 = np.array(
    [[1, -1, 0], [0, 1, -1], [-1, 0, 1]], dtype=np.complex128
)
CIRC_DIFF_3_PINV = (
    np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=np.complex128) / 3.0
)


def test_family_validates_shapes_and_count():
    with pytest.raises(PreconditionError):
        OperatorFamily(())
    with pytest.raises(PreconditionError):
        OperatorFamily((np.eye(2), np.eye(3)))
    fam = OperatorFamily((np.eye(2), 2 * np.eye(2)))
    assert len(fam) == 2
    assert fam.shape == (2, 2)
    np.testing.assert_allclose(fam.total(), 3 * np.eye(2))
    np.testing.assert_allclose(fam.deflated(0), 2 * np.eye(2))


def test_deflated_single_member_is_zero():
    fam = OperatorFamily((np.eye(3),))
    assert np.all(fam.deflated(0) == 0)


def test_certificate_disjoint_diagonals_holds():
    cert = check_orthogonality(OperatorFamily((diag(1, 0), diag(0, 2))))
    assert cert.holds
    assert cert.pairwise_left == 0.0
    assert cert.pairwise_right == 0.0


def test_certificate_identical_members_fails():
    cert = check_orthogonality(OperatorFamily((np.eye(2), np.eye(2))))
    assert not cert.holds
    # ||I* I||_F = ||I||_F = sqrt(2)
    assert cert.pairwise_left == pytest.approx(np.sqrt(2.0))
    assert cert.worst_pair is not None


def test_certificate_block_family_holds_by_construction():
    fam = gen_svd_block_family(seed=1, rows=5, cols=4, k=3)
    assert check_orthogonality(fam).holds


def test_certificate_single_member_trivially_holds():
    cert = check_orthogonality(OperatorFamily((np.eye(4),)))
    assert cert.holds and cert.worst_pair is None


def test_pinv_sum_disjoint_diagonals():
    total, terms = pinv_sum(OperatorFamily((diag(1, 0), diag(0, 2))))
    np.testing.assert_allclose(total, diag(1, 0.5), atol=1e-15)
    assert len(terms) == 2


def test_pinv_sum_basis_dyads():
    fam = OperatorFamily((basis_dyad(3, 0, 0), basis_dyad(3, 1, 1)))
    total, _ = pinv_sum(fam)
    np.testing.assert_allclose(total, diag(1, 1, 0), atol=1e-15)


def test_pinv_sum_block_family_matches_oracle():
    fam = gen_svd_block_family(seed=3, rows=6, cols=5, k=3, ranks=(2, 1, 1))
    total, terms = pinv_sum(fam)
    assert frobenius(total - pinv(fam.total())) <= 1e-10
    # the sum's rank is the sum of member ranks
    assert svd(fam.total()).rank == sum(svd(m).rank for m in fam.members)
    # and the summed pseudoinverse is a {1,3,4}-inverse of every member
    for member in fam.members:
        assert is_134_inverse(member, total, DEFAULT_TOL)


def test_pinv_sum_refuses_without_certificate():
    with pytest.raises(PreconditionError, match="0 and 1"):
        pinv_sum(OperatorFamily((np.eye(2), np.eye(2))))


NON_ORTHOGONAL_PAIR = (np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [1.0, 1.0]]))


def scaled_pair(s1: float, s2: float) -> OperatorFamily:
    first, second = NON_ORTHOGONAL_PAIR
    return OperatorFamily((first * s1, second * s2))


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_orthogonal_family_is_certified_at_large_scales(scale):
    # unscaled, the products of this family overflow to NaN at these scales;
    # scaled, they are rounding noise, which in the members' units is about
    # 1e384 at 1e200 and so is reported as inf
    fam = gen_svd_block_family(3, 6, 5, 2)
    scaled = OperatorFamily(tuple(member * scale for member in fam.members))
    assert check_orthogonality(scaled).holds
    total, _ = pinv_sum(scaled)
    want, _ = pinv_sum(fam)
    assert frobenius(total * scale - want) <= 1e-12 * frobenius(want)


def test_non_orthogonal_pair_is_refused_at_tiny_scale():
    # at 1e-170 both products underflow to 0 unless each member is scaled first
    assert not check_orthogonality(scaled_pair(1.0, 1.0)).holds
    fam = scaled_pair(1e-170, 1e-170)
    cert = check_orthogonality(fam)
    assert not cert.holds
    # the products underflow in the members' units, so the refusal also
    # gives their ratio to the bound, which reads the same at any scale
    assert cert.worst_ratio > 1e11
    assert cert.worst_ratio == pytest.approx(check_orthogonality(scaled_pair(1.0, 1.0)).worst_ratio)
    with pytest.raises(PreconditionError, match="0 and 1 are not orthogonal") as refusal:
        pinv_sum(fam)
    assert "left 0.000e+00, right 0.000e+00" in str(refusal.value)
    assert f"{cert.worst_ratio:.3e} times the bound" in str(refusal.value)


@pytest.mark.parametrize("scales", [(1e200, 1e-200), (1e-200, 1e200)])
def test_non_orthogonal_pair_is_refused_at_mixed_scales(scales):
    # one scale for the whole family would underflow the 1e-200 member
    fam = scaled_pair(*scales)
    cert = check_orthogonality(fam)
    assert not cert.holds
    assert cert.pairwise_left == pytest.approx(np.sqrt(6.0))
    with pytest.raises(PreconditionError, match="not orthogonal"):
        pinv_sum(fam)


def test_certificate_reports_products_in_the_members_units():
    at_one = check_orthogonality(scaled_pair(1.0, 1.0))
    at_power = check_orthogonality(scaled_pair(2.0**100, 2.0**-300))
    assert at_power.pairwise_left == at_one.pairwise_left * 2.0**-200
    assert at_power.pairwise_right == at_one.pairwise_right * 2.0**-200


def test_overflowing_orthogonality_products_are_named_in_the_refusal():
    # the products are about 1e400, past the float range, so they report inf
    fam = scaled_pair(1e200, 1e200)
    cert = check_orthogonality(fam)
    assert not cert.holds
    assert cert.pairwise_left == np.inf and cert.pairwise_right == np.inf
    with pytest.raises(PreconditionError, match=r"left non-finite, right non-finite"):
        pinv_sum(fam)


def test_pinv_sum_passes_penrose_against_total():
    fam = gen_svd_block_family(seed=11, rows=7, cols=7, k=2, ranks=(3, 2))
    total, _ = pinv_sum(fam)
    a = fam.total()
    assert penrose_residuals(a, total, DEFAULT_TOL).passed


def test_gram_equation_left_diagonal():
    fam = OperatorFamily((diag(1, 0), diag(0, 2)))
    np.testing.assert_allclose(
        pinv_via_gram_equation(fam, 0, side="left"), diag(1, 0), atol=1e-12
    )


def test_gram_equation_right_diagonal():
    fam = OperatorFamily((diag(1, 0), diag(0, 2)))
    np.testing.assert_allclose(
        pinv_via_gram_equation(fam, 1, side="right"), diag(0, 0.5), atol=1e-12
    )


def test_gram_equation_injective_sum_direct_solve():
    # ranks fill the column count, so the Gram sum is positive definite
    fam = gen_svd_block_family(seed=5, rows=5, cols=5, k=2, ranks=(3, 2))
    for k0 in range(2):
        got = pinv_via_gram_equation(fam, k0, side="left")
        assert frobenius(got - pinv(fam.members[k0])) <= 1e-10


def test_gram_equation_singular_gram_falls_back():
    fam = gen_svd_block_family(seed=6, rows=6, cols=5, k=2, ranks=(2, 1))
    for side in ("left", "right"):
        got = pinv_via_gram_equation(fam, 0, side=side)
        assert frobenius(got - pinv(fam.members[0])) <= 1e-10


def test_gram_equation_validates_arguments():
    fam = OperatorFamily((diag(1, 0), diag(0, 2)))
    with pytest.raises(PreconditionError, match="k0"):
        pinv_via_gram_equation(fam, 2, side="left")
    with pytest.raises(PreconditionError, match="side"):
        pinv_via_gram_equation(fam, 0, side="up")
    with pytest.raises(PreconditionError):
        pinv_via_gram_equation(OperatorFamily((np.eye(2), np.eye(2))), 0)


def test_projector_equation_diagonal_pair():
    fam = OperatorFamily((diag(1, 0), diag(0, 2)))
    np.testing.assert_allclose(
        pinv_invertible_projector_eq(fam, 0), diag(1, 0), atol=1e-12
    )


def test_projector_equation_diagonal_triple():
    fam = OperatorFamily((diag(2, 0, 0), diag(0, 3, 0), diag(0, 0, 4)))
    np.testing.assert_allclose(
        pinv_invertible_projector_eq(fam, 1), diag(0, 1 / 3, 0), atol=1e-12
    )


def test_projector_equation_matches_oracle():
    fam = gen_svd_block_family(seed=9, rows=6, cols=6, k=2, ranks=(4, 2))
    for k0 in range(2):
        got = pinv_invertible_projector_eq(fam, k0)
        assert frobenius(got - pinv(fam.members[k0])) <= 1e-10


def test_projector_equation_requires_invertible_sum():
    fam = gen_svd_block_family(seed=9, rows=6, cols=6, k=2, ranks=(3, 2))
    with pytest.raises(PreconditionError, match="invertible"):
        pinv_invertible_projector_eq(fam, 0)
    with pytest.raises(PreconditionError, match="square"):
        pinv_invertible_projector_eq(
            gen_svd_block_family(seed=2, rows=5, cols=4, k=2, ranks=(2, 2)), 0
        )


def test_completion_data_validation():
    e2 = np.array([[0.0], [1.0]], dtype=np.complex128)
    with pytest.raises(PreconditionError, match="matching counts"):
        CompletionData(e2, e2, np.array([1.0, 2.0]))
    a = diag(1, 0)
    with pytest.raises(PreconditionError, match="orthonormal"):
        rank_completion_pinv(a, CompletionData(2 * e2, e2, np.array([1.0])))
    with pytest.raises(PreconditionError, match="null space of A"):
        rank_completion_pinv(
            a, CompletionData(np.array([[1.0], [0.0]]), e2, np.array([1.0]))
        )
    with pytest.raises(PreconditionError, match="null space of A\\*"):
        rank_completion_pinv(
            a, CompletionData(e2, np.array([[1.0], [0.0]]), np.array([1.0]))
        )
    with pytest.raises(PreconditionError, match="nonzero"):
        rank_completion_pinv(a, CompletionData(e2, e2, np.array([0.0])))


def test_rank_completion_diagonal_example():
    e2 = np.array([[0.0], [1.0]], dtype=np.complex128)
    comp = CompletionData(e2, e2, np.array([1.0]))
    got = rank_completion_pinv(diag(1, 0), comp)
    np.testing.assert_allclose(got, diag(1, 0), atol=1e-14)


def test_rank_completion_circulant_example():
    third = np.full((3, 1), 1 / np.sqrt(3), dtype=np.complex128)
    comp = CompletionData(third, third, np.array([1.0]))
    got = rank_completion_pinv(CIRC_DIFF_3, comp)
    np.testing.assert_allclose(got, CIRC_DIFF_3_PINV, atol=1e-12)


def test_rank_completion_auto_matches_oracle():
    rng = np.random.default_rng(42)
    left = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    right = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    a = left @ right  # 6x6, rank 4
    got = rank_completion_pinv(a)
    assert frobenius(got - pinv(a)) <= 1e-9 * max(1.0, frobenius(pinv(a)))


@pytest.mark.parametrize("rows,cols,rank,form", [
    (5, 5, 3, "inverse"),
    (6, 4, 2, "gram-left"),
    (4, 6, 2, "gram-right"),
    (6, 4, 2, "pinv"),
])
def test_rank_completion_modes_match_oracle(rows, cols, rank, form):
    # the shape picks the form of a full completion; a partial one takes pinv
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    a = left @ right
    comp = auto_completion(a)
    if form == "pinv":
        comp = CompletionData(comp.f_basis[:, :1], comp.g_basis[:, :1], comp.d[:1])
    got = rank_completion_pinv(a, comp)
    want = pinv(a)
    assert frobenius(got - want) <= 1e-9 * max(1.0, frobenius(want))


def test_rank_completion_partial_completion():
    # complete only one of the two null directions; the identity still holds
    a = diag(3, 0, 0)
    e2 = np.zeros((3, 1), dtype=np.complex128)
    e2[1, 0] = 1.0
    got = rank_completion_pinv(a, CompletionData(e2, e2, np.array([2.0])))
    np.testing.assert_allclose(got, diag(1 / 3, 0, 0), atol=1e-12)


def test_rank_completion_invariant_under_weights_and_basis():
    rng = np.random.default_rng(7)
    left = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    right = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    a = left @ right  # 5x5, rank 3
    base = auto_completion(a)
    results = []
    for trial in range(2):
        d = rng.uniform(0.5, 3.0, size=base.count) * np.exp(
            2j * np.pi * rng.uniform(size=base.count)
        )
        mix = random_unitary(rng, base.count)
        comp = CompletionData(base.f_basis @ mix, base.g_basis @ mix, d)
        results.append(rank_completion_pinv(a, comp))
    assert frobenius(results[0] - results[1]) <= 1e-8 * max(1.0, frobenius(results[0]))


def test_pair_completion_diagonal_both_modes():
    a, b = diag(1, 0), diag(0, 3)
    np.testing.assert_allclose(completion_pinv_pair(a, b), diag(1, 0), atol=1e-12)


def test_pair_completion_signed_path_distances():
    d = np.array([[0, 1, 0], [1, 0, -1], [0, -1, 0]], dtype=np.complex128)
    tau = np.array([[1.0], [0.0], [1.0]], dtype=np.complex128)
    b = tau @ tau.T
    got = completion_pinv_pair(d, b)
    np.testing.assert_allclose(got, d / 2, atol=1e-12)


def test_pair_completion_circulant_ones_dyad():
    b = np.ones((3, 3), dtype=np.complex128)
    got = completion_pinv_pair(CIRC_DIFF_3, b)
    np.testing.assert_allclose(got, CIRC_DIFF_3_PINV, atol=1e-12)


def test_pair_completion_gram_right():
    a = np.array([[1.0, 0.0, 0.0]], dtype=np.complex128)  # 1x3, N(A*) = 0
    b = np.zeros((1, 3), dtype=np.complex128)
    got = completion_pinv_pair(a, b)
    np.testing.assert_allclose(got, dagger(a), atol=1e-12)


def test_pair_completion_named_errors():
    with pytest.raises(PreconditionError, match="same shape"):
        completion_pinv_pair(np.eye(2), np.eye(3))
    with pytest.raises(PreconditionError, match="completes neither"):
        completion_pinv_pair(diag(1, 0), diag(1, 0))
    # B lies in N(A) but is one rank short of filling it
    with pytest.raises(
        PreconditionError, match=r"rank\(B\) = 1, dim N\(A\) = 2, dim N\(A\*\) = 2"
    ):
        completion_pinv_pair(diag(1, 0, 0), diag(0, 1, 0))


def test_pair_completion_oracle_random():
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = random_unitary(rng, 6)
        w = random_unitary(rng, 6)
        r = int(rng.integers(1, 6))
        da = rng.uniform(0.5, 2.0, size=r)
        db = rng.uniform(0.5, 2.0, size=6 - r)
        a = (u[:, :r] * da) @ dagger(w[:, :r])
        b = (u[:, r:] * db) @ dagger(w[:, r:])
        got = completion_pinv_pair(a, b)
        want = pinv(a)
        assert frobenius(got - want) <= 1e-9 * max(1.0, frobenius(want))


def test_fill_fishkind_identity_sum():
    got = fill_fishkind_pinv(basis_dyad(2, 0, 0), basis_dyad(2, 1, 1))
    np.testing.assert_allclose(got, np.eye(2), atol=1e-12)


def test_fill_fishkind_diagonal():
    got = fill_fishkind_pinv(diag(1, 0, 0), diag(0, 2, 0))
    np.testing.assert_allclose(got, diag(1, 0.5, 0), atol=1e-12)


def test_fill_fishkind_random_pairs_match_oracle():
    for seed in range(6):
        a1, a2 = gen_rank_additive_pair(seed, 4)
        got = fill_fishkind_pinv(a1, a2)
        want = pinv(a1 + a2)
        assert frobenius(got - want) <= 1e-8 * max(1.0, frobenius(want))


def dense_fill_fishkind(a1, a2, tol=DEFAULT_TOL):
    """The five-SVD route: both projector products formed n x n and inverted
    by their own SVDs (svd(A1 + A2) only decided rank additivity)."""
    n = a1.shape[0]
    f1, f2 = svd(a1, tol), svd(a2, tol)
    _, p_null_a1_adj, _, p_null_a1 = projectors(a1, tol, factorization=f1)
    p_range_a2, _, p_range_a2_adj, _ = projectors(a2, tol, factorization=f2)
    left = pinv(p_range_a2_adj @ p_null_a1, tol)
    right = pinv(p_null_a1_adj @ p_range_a2, tol)
    x1, x2 = pinv(a1, tol, f1), pinv(a2, tol, f2)
    return (eye(n) - left) @ x1 @ (eye(n) - right) + left @ x2 @ right


def low_rank(rng, n, r):
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return g @ h


def assert_fill_fishkind_matches_dense_and_numpy(a1, a2):
    got = fill_fishkind_pinv(a1, a2)
    want = dense_fill_fishkind(a1, a2)
    assert frobenius(got - want) <= 1e-12 * frobenius(want)
    reference = np.linalg.pinv(a1 + a2, rcond=1e-10)
    assert frobenius(got - reference) <= 1e-8 * frobenius(reference)


@pytest.mark.parametrize("n", range(2, 33))
def test_fill_fishkind_cores_match_the_dense_route(n):
    rng = np.random.default_rng(700 + n)
    r1 = int(rng.integers(1, n))
    r2 = int(rng.integers(1, n - r1 + 1))
    assert_fill_fishkind_matches_dense_and_numpy(low_rank(rng, n, r1), low_rank(rng, n, r2))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_fill_fishkind_cores_at_the_rank_extremes(n):
    rng = np.random.default_rng(n)
    zero = np.zeros((n, n), dtype=np.complex128)
    some = low_rank(rng, n, n // 2)
    full = low_rank(rng, n, n)
    for a1, a2 in [
        (some, zero),  # A2 = 0
        (zero, some),  # A1 = 0
        (full, zero),  # A1 invertible, A2 = 0
        (some, low_rank(rng, n, n - n // 2)),  # r1 + r2 = n
    ]:
        assert_fill_fishkind_matches_dense_and_numpy(a1, a2)


def test_fill_fishkind_rejects_non_additive_rank():
    a = basis_dyad(3, 0, 0)
    with pytest.raises(PreconditionError, match="rank additivity"):
        fill_fishkind_pinv(a, a)
    with pytest.raises(PreconditionError, match="square"):
        fill_fishkind_pinv(np.ones((2, 3)), np.ones((2, 3)))


def test_gen_block_family_shapes_and_determinism():
    fam = gen_svd_block_family(seed=0, rows=4, cols=4, k=2, ranks=(1, 1))
    assert len(fam) == 2 and fam.shape == (4, 4)
    assert all(svd(m).rank == 1 for m in fam.members)
    again = gen_svd_block_family(seed=0, rows=4, cols=4, k=2, ranks=(1, 1))
    for x, y in zip(fam.members, again.members):
        assert np.array_equal(x, y)


def test_gen_block_family_single_member():
    fam = gen_svd_block_family(seed=4, rows=3, cols=3, k=1, ranks=(3,))
    assert check_orthogonality(fam).holds


def test_gen_block_family_validates_budget():
    with pytest.raises(PreconditionError, match="rank budget"):
        gen_svd_block_family(seed=0, rows=3, cols=3, k=2, ranks=(2, 2))
    with pytest.raises(PreconditionError, match="positive rank"):
        gen_svd_block_family(seed=0, rows=3, cols=3, k=2, ranks=(1, 0))


def test_null_space_intersection_law():
    fam = gen_svd_block_family(seed=21, rows=6, cols=5, k=2, ranks=(2, 1))
    _, _, _, p_null_sum = projectors(fam.total())
    stacked = np.vstack(fam.members)
    _, _, _, p_null_stacked = projectors(stacked)
    assert frobenius(p_null_sum - p_null_stacked) <= 1e-9


def test_shared_subspace_triple_breaks_certificate_not_the_law():
    fam = gen_shared_subspace_triple(seed=17, rows=5, cols=4, rank=2)
    assert not check_orthogonality(fam).holds
    total = fam.total()
    lhs = pinv(total)
    rhs = np.sum([pinv(m) for m in fam.members], axis=0)
    assert frobenius(lhs - rhs) <= 1e-9 * max(1.0, frobenius(rhs))


def test_gen_rank_additive_pair_is_additive():
    a1, a2 = gen_rank_additive_pair(3, 5)
    assert svd(a1 + a2).rank == svd(a1).rank + svd(a2).rank
