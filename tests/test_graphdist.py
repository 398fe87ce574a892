"""Tests for tree and wheel distance-matrix pseudoinverses."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from pinvkit.core import is_134_inverse, penrose_residuals, pinv
from pinvkit.graphdist import (
    gen_zero_sum_tree,
    tree_build,
    tree_pinv,
    tree_shift_inverse,
    tree_u_and_reconstruction,
    wheel_build,
    wheel_pinv,
    wheel_properties,
    wheel_z,
    wheel_z_identities,
)
from pinvkit.linalg import inverse
from pinvkit.matrix import PreconditionError, VerificationError, frobenius

PATH3_EDGES = [(1, 2, 1.0), (2, 3, -1.0)]
PATH3_D = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
PATH3_L = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])


# --------------------------------------------------------------------------
# tree construction


def test_tree_build_path3_frozen():
    tree = tree_build(PATH3_EDGES)
    np.testing.assert_array_equal(tree.D, PATH3_D)
    np.testing.assert_array_equal(tree.L, PATH3_L)
    np.testing.assert_array_equal(tree.tau, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(tree.D @ tree.tau, np.zeros(3))


def test_tree_build_star3_frozen():
    tree = tree_build([(1, 2, 1.0), (1, 3, -1.0)])
    np.testing.assert_array_equal(tree.delta, [2.0, 1.0, 1.0])
    np.testing.assert_array_equal(tree.tau, [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(tree.D @ tree.tau, np.zeros(3))


def test_tree_build_nonzero_sum_succeeds():
    tree = tree_build([(1, 2, 3.0)])
    np.testing.assert_array_equal(tree.D, [[0.0, 3.0], [3.0, 0.0]])
    assert tree.weight_sum == 3.0


def test_tree_build_laplacian_row_sums_vanish():
    tree = gen_zero_sum_tree(7, 9)
    np.testing.assert_allclose(tree.L @ np.ones(9), np.zeros(9), atol=1e-12)
    np.testing.assert_allclose(tree.L, tree.L.T, atol=1e-15)


def test_tree_build_dl_identity_exact_on_rational_weights():
    # integer-friendly weights keep the check at the 1e-12 scale
    tree = tree_build([(1, 2, 2.0), (2, 3, -0.5), (3, 4, -1.5)])
    want = np.outer(np.ones(4), tree.tau) - 2.0 * np.eye(4)
    assert np.abs(tree.D @ tree.L - want).max() < 1e-12


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 1, 1.0)], "self-loop"),
        ([(1, 2, 0.0)], "nonzero"),
        ([(1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, -3.0)], "disconnected"),
        ([(1, 2, 1.0), (2, 3, 1.0), (1, 3, -2.0)], "needs 2 edges"),
        ([(1, 2, 1.0), (2, 1, -1.0), (3, 4, 2.0)], "duplicate edge"),
        ([(1, 3, 1.0)], "labels must be"),
        ([], "at least two"),
        ([(1, 2, 1.0), (2, 3, 1.0), (3, 1, -2.0), (4, 5, 1.0)], "disconnected"),
    ],
)
def test_tree_build_rejects_malformed_edges(edges, message):
    with pytest.raises(PreconditionError, match=message):
        tree_build(edges)


def per_root_distances(edges, n):
    """Path sums by a separate BFS from every root, one vertex at a time."""
    adjacency = [[] for _ in range(n)]
    for i, j, w in edges:
        adjacency[i - 1].append((j - 1, w))
        adjacency[j - 1].append((i - 1, w))
    d = np.zeros((n, n))
    for root in range(n):
        dist = {root: 0.0}
        queue = deque([root])
        while queue:
            at = queue.popleft()
            for nxt, w in adjacency[at]:
                if nxt not in dist:
                    dist[nxt] = dist[at] + w
                    queue.append(nxt)
        assert len(dist) == n
        d[root] = [dist[v] for v in range(n)]
    return d


def random_tree(rng, n):
    """Each vertex attaches to a random earlier one; labels are shuffled so
    that vertex 1 is no special place, and weights take both signs."""
    labels = rng.permutation(n) + 1
    signs = rng.choice([-1.0, 1.0], size=n - 1)
    weights = signs * rng.uniform(0.5, 2.0, size=n - 1)
    return [
        (int(labels[v]), int(labels[rng.integers(v)]), float(weights[v - 1]))
        for v in range(1, n)
    ]


def assert_distances_match_per_root(edges, n):
    got = tree_build(edges).D
    want = per_root_distances(edges, n)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.all(np.diag(got) == 0.0)


@pytest.mark.parametrize("n", range(2, 61))
def test_tree_distances_match_per_root_bfs_on_random_trees(n):
    rng = np.random.default_rng(1000 + n)
    assert_distances_match_per_root(random_tree(rng, n), n)


def test_tree_distances_match_per_root_bfs_on_a_long_path_and_a_star():
    rng = np.random.default_rng(5)
    weights = rng.choice([-1.0, 1.0], size=199) * rng.uniform(0.5, 2.0, size=199)
    labels = rng.permutation(200) + 1
    path = [(int(labels[k]), int(labels[k + 1]), float(weights[k])) for k in range(199)]
    assert_distances_match_per_root(path, 200)
    star = [(1, k, (-1.0) ** k * (1.0 + k / 10)) for k in range(2, 31)]
    assert_distances_match_per_root(star, 30)
    leaf_star = [(k, 30, (-1.0) ** k * (1.0 + k / 10)) for k in range(1, 30)]
    assert_distances_match_per_root(leaf_star, 30)


def test_gen_zero_sum_tree_is_deterministic_and_zero_sum():
    first = gen_zero_sum_tree(11, 10)
    second = gen_zero_sum_tree(11, 10)
    assert first.edges == second.edges
    assert abs(first.weight_sum) < 1e-12
    assert all(abs(w) >= 0.05 for _, _, w in first.edges)
    with pytest.raises(PreconditionError, match="n >= 3"):
        gen_zero_sum_tree(0, 2)


# --------------------------------------------------------------------------
# tree pseudoinverse


def test_tree_pinv_path3_is_half_d():
    tree = tree_build(PATH3_EDGES)
    np.testing.assert_allclose(tree_pinv(tree), PATH3_D / 2.0, atol=1e-14)


def test_tree_pinv_matches_oracle_on_random_tree():
    tree = gen_zero_sum_tree(21, 8)
    np.testing.assert_allclose(tree_pinv(tree), pinv(tree.D), atol=1e-9)


def test_tree_pinv_passes_penrose_and_annihilates_tau():
    tree = gen_zero_sum_tree(5, 12)
    x = tree_pinv(tree)
    assert penrose_residuals(tree.D, x).passed
    assert np.abs(x @ tree.tau).max() < 1e-9
    assert np.abs(tree.tau @ x).max() < 1e-9


def test_tree_pinv_refuses_nonzero_weight_sum():
    tree = tree_build([(1, 2, 1.0), (2, 3, 2.0)])
    with pytest.raises(PreconditionError, match="zero-sum"):
        tree_pinv(tree)
    with pytest.raises(PreconditionError, match="zero-sum"):
        tree_u_and_reconstruction(tree, pinv(tree.D).real)


def test_tree_pinv_rejects_zero_alpha():
    tree = tree_build(PATH3_EDGES)
    with pytest.raises(PreconditionError, match="alpha"):
        tree_shift_inverse(tree, alpha=0.0)


def test_shift_inverse_is_134_but_shift_itself_is_not():
    # the witness is the inverse of D + alpha tau tau^t, not the shift itself
    tree = tree_build(PATH3_EDGES)
    witness = tree_shift_inverse(tree, alpha=1.0)
    assert is_134_inverse(tree.D, witness)
    shifted = tree.D + np.outer(tree.tau, tree.tau)
    assert not is_134_inverse(tree.D, shifted)
    dyad = np.outer(tree.tau, tree.tau) / float(tree.tau @ tree.tau) ** 2
    np.testing.assert_allclose(witness - dyad, PATH3_D / 2.0, atol=1e-12)


def test_shift_inverse_is_134_on_random_trees():
    for seed in (2, 12, 22):
        tree = gen_zero_sum_tree(seed, 4 + seed)
        assert is_134_inverse(tree.D, tree_shift_inverse(tree))


@pytest.mark.parametrize("alpha", [1e-320, -5e-324])
def test_shift_inverse_refuses_an_alpha_whose_dyad_overflows(alpha):
    # ||tau||^4 = 4 on the path, so 1/(alpha ||tau||^4) is not finite
    tree = tree_build(PATH3_EDGES)
    with pytest.raises(PreconditionError, match=f"alpha = {alpha:.6g}"):
        tree_shift_inverse(tree, alpha)


@pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
def test_shift_inverse_refuses_a_non_finite_alpha(alpha):
    # alpha = inf returned tree_pinv(tree) itself, as the inverse of D + inf tau tau^t
    tree = gen_zero_sum_tree(1, 8)
    with pytest.raises(PreconditionError, match=f"alpha = {alpha:.6g} must be finite"):
        tree_shift_inverse(tree, alpha)


def test_shift_inverse_identity_holds_against_an_lu_inverse():
    # criterion 6's trees: the paper's form (D + alpha tau tau^t)^-1 less the
    # dyad, taken here from an LU inverse, is the closed-form D^+
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(100):
        tree = gen_zero_sum_tree(30_000 + case, int(rng.integers(3, 21)))
        dpinv = tree_pinv(tree)
        tau, tau_sq = tree.tau, float(tree.tau @ tree.tau)
        for alpha in (0.9, 2.3):
            shifted = inverse(tree.D + alpha * np.outer(tau, tau)).real
            gap = frobenius(shifted - np.outer(tau, tau) / (alpha * tau_sq**2) - dpinv)
            worst = max(worst, gap)
    assert worst <= 1e-8


# --------------------------------------------------------------------------
# u vector and reconstruction


def test_u_path3_frozen():
    # tau^t L tau = 0 here; the closed-form u needs no division by it
    tree = tree_build(PATH3_EDGES)
    u, rebuilt = tree_u_and_reconstruction(tree, tree_pinv(tree))
    np.testing.assert_allclose(u, [0.25, 0.0, -0.25], atol=1e-14)
    np.testing.assert_allclose(rebuilt, PATH3_D / 2.0, atol=1e-13)


def test_u_is_checked_against_the_closed_form_where_q_is_zero():
    # a candidate built from a wrong u rebuilds itself exactly, so only the
    # closed-form u exposes it; the path on three vertices has tau^t L tau = 0
    tree = tree_build(PATH3_EDGES)
    wrong_u = np.array([0.25, 0.1, -0.25])
    candidate = -tree.L / 2.0 + np.outer(wrong_u, tree.tau) + np.outer(tree.tau, wrong_u)
    with pytest.raises(VerificationError, match="closed-form u"):
        tree_u_and_reconstruction(tree, candidate)


def test_u_dual_routes_agree_on_random_trees():
    # every generated tree with tau^t L tau != 0 exercises both u routes;
    # tree_u_and_reconstruction raises if they drift apart
    hit_closed_form = 0
    for seed in range(10):
        tree = gen_zero_sum_tree(seed, 5 + seed)
        if abs(float(tree.tau @ tree.L @ tree.tau)) > 1e-7:
            hit_closed_form += 1
        u, rebuilt = tree_u_and_reconstruction(tree, tree_pinv(tree))
        np.testing.assert_allclose(rebuilt, pinv(tree.D), atol=1e-8)
    assert hit_closed_form >= 5


def test_u_reconstruction_matches_tree_pinv():
    tree = gen_zero_sum_tree(33, 14)
    _, rebuilt = tree_u_and_reconstruction(tree, tree_pinv(tree))
    np.testing.assert_allclose(rebuilt, tree_pinv(tree), atol=1e-10)


def test_u_definition_from_oracle_pseudoinverse():
    # independent recomputation of u straight from the oracle D^+
    tree = gen_zero_sum_tree(8, 9)
    dp = np.real(pinv(tree.D))
    e = np.ones(tree.n)
    dpe = dp @ e
    want = 0.5 * (dpe - (float(e @ dpe) / 4.0) * tree.tau)
    u, _ = tree_u_and_reconstruction(tree, tree_pinv(tree))
    np.testing.assert_allclose(u, want, atol=1e-10)


# --------------------------------------------------------------------------
# wheel construction and z vector


def test_wheel_build_n5_frozen():
    wheel = wheel_build(5)
    want = np.array(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 1, 2, 1],
            [1, 1, 0, 1, 2],
            [1, 2, 1, 0, 1],
            [1, 1, 2, 1, 0],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(wheel.D, want)
    np.testing.assert_array_equal(wheel.a, [0.0, -1.0, 1.0, -1.0, 1.0])
    np.testing.assert_array_equal(wheel.v, [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(wheel.D @ wheel.a, np.zeros(5))


@pytest.mark.parametrize("n", [4, 6, 3, 2])
def test_wheel_build_rejects_even_or_small(n):
    with pytest.raises(PreconditionError, match="odd"):
        wheel_build(n)


def test_wheel_z_n5_frozen():
    np.testing.assert_array_equal(wheel_z(5), [-72, -24, 120, -24])
    np.testing.assert_allclose(wheel_build(5).z, [-3.0, -1.0, 5.0, -1.0])


def test_wheel_z_n7_frozen_endpoints():
    z24 = wheel_z(7)
    assert z24[0] == 24 * -15
    assert z24[3] == 24 * -9
    np.testing.assert_array_equal(z24, [-360, 72, 216, -216, 216, 72])


@pytest.mark.parametrize("n", [5, 9, 11, 25, 63, 101])
def test_wheel_z_identities_hold_exactly(n):
    report = wheel_z_identities(n)
    assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_wheel_z_parity_sums_match_size():
    for n in range(5, 27, 2):
        z24 = wheel_z(n)
        assert int(z24[0::2].sum()) == 12 * (n - 1)
        assert int(z24[1::2].sum()) == -12 * (n - 1)


def test_wheel_z_identities_flag_perturbation():
    z24 = wheel_z(5).copy()
    z24[1] += 1
    report = wheel_z_identities(5, z24)
    assert not report["sum_zero"]
    assert not report["core_product"]
    assert not all(report.values())


def test_wheel_z_identities_reject_wrong_length():
    with pytest.raises(PreconditionError, match="length"):
        wheel_z_identities(7, wheel_z(5))


# --------------------------------------------------------------------------
# wheel pseudoinverse


def test_wheel_pinv_n5_frozen_blocks():
    wheel = wheel_build(5)
    inv134, dpinv = wheel.inv134, wheel_pinv(wheel)
    want_inv = np.array(
        [
            [-16, 4, 4, 4, 4],
            [4, -3, -1, 5, -1],
            [4, -1, -3, -1, 5],
            [4, 5, -1, -3, -1],
            [4, -1, 5, -1, -3],
        ],
        dtype=float,
    ) / 16.0
    want_pinv = np.array(
        [
            [-16, 4, 4, 4, 4],
            [4, -4, 0, 4, 0],
            [4, 0, -4, 0, 4],
            [4, 4, 0, -4, 0],
            [4, 0, 4, 0, -4],
        ],
        dtype=float,
    ) / 16.0
    np.testing.assert_allclose(inv134, want_inv, atol=1e-13)
    np.testing.assert_allclose(dpinv, want_pinv, atol=1e-13)


def test_wheel_pinv_rim_is_z_minus_v():
    # the rim block of D^+ subtracts the alternating dyad block from circ(z)
    for n in (5, 9, 13):
        wheel = wheel_build(n)
        inv134, dpinv = wheel.inv134, wheel_pinv(wheel)
        rim_gap = (inv134 - dpinv)[1:, 1:] * (n - 1) ** 2
        np.testing.assert_allclose(rim_gap[0], wheel.v, atol=1e-10)


def test_wheel_pinv_is_134_and_penrose():
    for n in (5, 7, 11):
        wheel = wheel_build(n)
        inv134, dpinv = wheel.inv134, wheel_pinv(wheel)
        assert is_134_inverse(wheel.D, inv134)
        assert penrose_residuals(wheel.D, dpinv).passed


@pytest.mark.parametrize("n", [5, 7, 9, 15, 21, 25])
def test_wheel_pinv_matches_oracle(n):
    wheel = wheel_build(n)
    dpinv = wheel_pinv(wheel)
    assert np.abs(dpinv - pinv(wheel.D)).max() < 1e-9


def test_wheel_pinv_projects_onto_range():
    wheel = wheel_build(9)
    dpinv = wheel_pinv(wheel)
    proj = np.eye(9) - np.outer(wheel.a, wheel.a) / 8.0
    np.testing.assert_allclose(wheel.D @ dpinv, proj, atol=1e-9)


# --------------------------------------------------------------------------
# wheel properties


def test_wheel_properties_n5_all_pass():
    report = wheel_properties(5)
    assert report["eigvector"]
    assert report["laplacian_rank"]
    assert report["laplacian_kernel"]
    assert all(report.values()), {k: v for k, v in report.items() if not v}


@pytest.mark.parametrize("n", [7, 11, 17, 25])
def test_wheel_properties_sweep(n):
    report = wheel_properties(n)
    assert all(report.values()), {k: v for k, v in report.items() if not v}


def test_wheel_eigvector_identity_direct():
    wheel = wheel_build(5)
    inv134 = wheel.inv134
    np.testing.assert_allclose(inv134 @ wheel.a, wheel.a / 4.0, atol=1e-12)
