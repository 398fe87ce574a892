"""Acceptance run: one test per release criterion, one printed verdict each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines; the
plain test outcome carries the same information. Every case is seeded, so
reruns are bit-identical. Budgeted criteria also assert their wall-time
limits.
"""

from __future__ import annotations

import time

import numpy as np

from pinvkit.circulant import (
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_pinv_spectral,
    support_split_pinv,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.core import (
    characterization_residuals,
    gen_random_matrix,
    is_134_inverse,
    penrose_residuals,
    pinv,
)
from pinvkit.graphdist import (
    gen_zero_sum_tree,
    tree_pinv,
    tree_u_and_reconstruction,
    wheel_build,
    wheel_pinv,
    wheel_properties,
    wheel_z_identities,
)
from pinvkit.linalg import hermitian_eigenvalues, inverse, svd
from pinvkit.matrix import DEFAULT_TOL, frobenius
from pinvkit.sumdecomp import (
    check_orthogonality,
    fill_fishkind_pinv,
    gen_rank_additive_pair,
    gen_shared_subspace_triple,
    gen_svd_block_family,
    pinv_sum,
)


def _finish(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num} ({name}): {verdict}  [{detail}]", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_self_consistency():
    # 200 seeded complex matrices up to 32x32, half with forced rank
    # deficiency: all four defining equations and all six characterization
    # systems at 1e-9 * max(1, ||A||_F), under 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    failures = 0
    for case in range(200):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        rank = None
        if case % 2 == 1 and min(rows, cols) >= 2:
            rank = int(rng.integers(1, min(rows, cols)))
        a = gen_random_matrix(10_000 + case, rows, cols, rank=rank)
        x = pinv(a)
        pen = penrose_residuals(a, x, DEFAULT_TOL)
        char = characterization_residuals(a, x, DEFAULT_TOL)
        if not (pen.passed and char.passed):
            failures += 1
        top = max(max(pen.residuals.values()), max(char.residuals.values()))
        worst = max(worst, top / (1e-9 * max(1.0, frobenius(a))))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _finish(
        1,
        "oracle self-consistency",
        ok,
        f"200 cases, {failures} failures, worst residual {worst:.2e} of bound, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_2_orthogonal_sum_law():
    # 50 seeded singular-frame block families, K in {2, 3}, shapes up to
    # 8x6: pinv of the sum equals the sum of member pinvs to 1e-9 and is a
    # {1,3,4}-inverse of every member.
    rng = np.random.default_rng(55)
    worst = 0.0
    witness_failures = 0
    for case in range(50):
        k = int(rng.integers(2, 4))
        rows = int(rng.integers(k + 1, 9))
        cols = int(rng.integers(k, 7))
        budget = min(rows, cols)
        ranks: list[int] = []
        for j in range(k):
            hi = budget - sum(ranks) - (k - j - 1)
            ranks.append(int(rng.integers(1, hi + 1)) if hi > 1 else 1)
        fam = gen_svd_block_family(20_000 + case, rows, cols, k, ranks=tuple(ranks))
        total, _ = pinv_sum(fam)
        worst = max(worst, frobenius(pinv(fam.total()) - total))
        for member in fam.members:
            if not is_134_inverse(member, total, DEFAULT_TOL):
                witness_failures += 1
    ok = worst <= 1e-9 and witness_failures == 0
    _finish(
        2,
        "orthogonal sum law",
        ok,
        f"50 families, worst sum gap {worst:.2e} <= 1e-9, "
        f"{witness_failures} {{1,3,4}} failures",
    )


def test_criterion_3_certificate_not_necessary():
    # The (M, M, -M) shared-frame triple sums to the sum of pinvs even
    # though the orthogonality certificate fails: sufficiency only.
    worst = 0.0
    any_cert_holds = False
    for seed, rows, cols, rank in ((99, 7, 5, 3), (17, 6, 6, 2), (4, 5, 8, 4)):
        fam = gen_shared_subspace_triple(seed, rows, cols, rank)
        terms = [pinv(m) for m in fam.members]
        worst = max(worst, frobenius(pinv(fam.total()) - np.sum(terms, axis=0)))
        any_cert_holds |= check_orthogonality(fam).holds
    ok = worst <= 1e-9 and not any_cert_holds
    _finish(
        3,
        "certificate not necessary",
        ok,
        f"3 triples, worst sum gap {worst:.2e} <= 1e-9, certificate fails on all",
    )


def test_criterion_4_circulant_sweep():
    # Every n in 3..64, every applicable closed-form path, each compared
    # entrywise to the spectral route and the dense oracle at 1e-9; the
    # n = 4 support-split chain reproduces its frozen inverse to 1e-12.
    start = time.perf_counter()
    worst_spectral = 0.0
    worst_oracle = 0.0
    paths = 0
    for n in range(3, 65):
        rng = np.random.default_rng(4000 + n)
        cases = []
        head = np.zeros(n, dtype=np.complex128)
        head[0], head[1] = 1.3, -1.3
        cases.append((two_term_pinv(1.3, -1.3, n), head))
        if n % 2 == 0:
            head = np.zeros(n, dtype=np.complex128)
            head[0] = head[1] = 1.3
            cases.append((two_term_pinv(1.3, 1.3, n), head))
        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base -= np.mean(base)
        nonzero = base + 0.8 * np.ones(n)
        cases.append((zero_sum_shift_pinv(nonzero), nonzero))
        cases.append((zero_sum_shift_pinv(base, alpha=0.7), base))
        for d in range(2, n + 1):
            if n % d == 0:
                k, q = d - 1, n // d
                gen = 0.9 * np.ones(n) - 1.1 * block_pattern_generator(k, q)
                cases.append((block_pattern_pinv(0.9, -1.1, k, q), gen))
        for closed, gen in cases:
            spectral = circ_pinv_spectral(gen)
            oracle = pinv(circ_materialize(gen))
            worst_spectral = max(worst_spectral, float(np.max(np.abs(closed - spectral))))
            gap = np.max(np.abs(circ_materialize(closed) - oracle))
            worst_oracle = max(worst_oracle, float(gap))
            paths += 1
    chain, invertible = support_split_pinv(
        [np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, 1.0, 0.0, 0.0])]
    )
    chain_gap = float(np.max(np.abs(chain - np.array([7.0, -3.0, -1.0, 5.0]) / 16.0)))
    elapsed = time.perf_counter() - start
    ok = (
        worst_spectral <= 1e-9
        and worst_oracle <= 1e-9
        and invertible
        and chain_gap <= 1e-12
    )
    _finish(
        4,
        "circulant sweep",
        ok,
        f"{paths} paths over n in 3..64, worst vs spectral {worst_spectral:.2e}, "
        f"worst vs oracle {worst_oracle:.2e} <= 1e-9, chain gap {chain_gap:.2e} "
        f"<= 1e-12, {elapsed:.1f}s",
    )


def test_criterion_5_wheel_exact_identities():
    # Both integer identities on 24z exactly for every odd n in 5..101,
    # then the closed-form pseudoinverse against the oracle at 1e-9 for
    # odd n in 5..25, under 20 s.
    start = time.perf_counter()
    broken = [
        n
        for n in range(5, 102, 2)
        if not all(wheel_z_identities(n).values())
    ]
    worst = 0.0
    for n in range(5, 26, 2):
        wheel = wheel_build(n)
        dpinv = wheel_pinv(wheel)
        oracle = pinv(wheel.D).real
        worst = max(worst, float(np.max(np.abs(dpinv - oracle))))
    elapsed = time.perf_counter() - start
    ok = not broken and worst <= 1e-9 and elapsed < 20.0
    _finish(
        5,
        "wheel exact identities",
        ok,
        f"odd n 5..101 exact (violations: {broken or 'none'}), closed form vs "
        f"oracle {worst:.2e} <= 1e-9 for n 5..25, {elapsed:.1f}s < 20s",
    )


def test_criterion_6_zero_sum_tree_suite():
    # 100 seeded zero-sum trees, 3 <= n <= 20: defining equations at
    # 1e-8 * max(1, ||D||_F), alpha-invariance and reconstruction at 1e-8,
    # and the product identity D L = e tau^t - 2I at 1e-10 entrywise.
    # Alpha-invariance is measured on (D + alpha tau tau^t)^-1 less the dyad,
    # from LU inverses, since tree_pinv takes no arithmetic from alpha.
    rng = np.random.default_rng(77)
    worst_pen = worst_alpha = worst_rec = worst_dl = 0.0
    for case in range(100):
        n = int(rng.integers(3, 21))
        tree = gen_zero_sum_tree(30_000 + case, n)
        x1 = tree_pinv(tree, alpha=0.9)
        pen = penrose_residuals(tree.D, x1)
        scale = max(1.0, frobenius(tree.D))
        worst_pen = max(worst_pen, max(pen.residuals.values()) / scale)
        tau, tau_sq = tree.tau, float(tree.tau @ tree.tau)
        shifted = []
        for alpha in (0.9, 2.3):
            inv = inverse(tree.D + alpha * np.outer(tau, tau))
            assert inv is not None
            shifted.append(inv.real - np.outer(tau, tau) / (alpha * tau_sq**2))
        worst_alpha = max(worst_alpha, frobenius(shifted[0] - shifted[1]))
        _, rebuilt = tree_u_and_reconstruction(tree, tree_pinv(tree))
        worst_rec = max(worst_rec, frobenius(rebuilt - x1))
        identity = np.outer(np.ones(tree.n), tree.tau) - 2.0 * np.eye(tree.n)
        worst_dl = max(worst_dl, float(np.max(np.abs(tree.D @ tree.L - identity))))
    ok = (
        worst_pen <= 1e-8
        and worst_alpha <= 1e-8
        and worst_rec <= 1e-8
        and worst_dl <= 1e-10
    )
    _finish(
        6,
        "zero-sum tree suite",
        ok,
        f"100 trees, worst scaled residual {worst_pen:.2e} <= 1e-8, alpha gap "
        f"{worst_alpha:.2e} <= 1e-8, reconstruction {worst_rec:.2e} <= 1e-8, "
        f"product identity {worst_dl:.2e} <= 1e-10",
    )


def test_criterion_7_wheel_structure():
    # Odd n in 5..25: the shifted inverse fixes a/(n-1) to 1e-10; the
    # recovered Laplacian annihilates ones, has rank n-2, and its smallest
    # eigenvalue is above -1e-9 times its spectral norm.
    worst_eig = worst_ker = worst_min = 0.0
    rank_failures = 0
    property_failures = 0
    for n in range(5, 26, 2):
        wheel = wheel_build(n)
        m = n - 1
        m_inv = np.real(inverse(wheel.D + np.outer(wheel.a, wheel.a)))
        worst_eig = max(
            worst_eig, float(np.max(np.abs(m_inv @ wheel.a - wheel.a / m)))
        )
        w = np.full(n, 0.25)
        w[0] = (5.0 - n) / 4.0
        proj = np.eye(n) - np.outer(wheel.a, wheel.a) / m
        lap = -2.0 * (m_inv - (4.0 / m) * np.outer(w, w)) @ proj
        lap = 0.5 * (lap + lap.T)
        worst_ker = max(worst_ker, float(np.max(np.abs(lap @ np.ones(n)))))
        f = svd(lap)
        if f.rank != n - 2:
            rank_failures += 1
        eigs = hermitian_eigenvalues(lap)
        worst_min = max(worst_min, float(-eigs.min()) / float(f.sigma[0]))
        if not all(wheel_properties(n).values()):
            property_failures += 1
    ok = (
        worst_eig <= 1e-10
        and worst_ker <= 1e-10
        and rank_failures == 0
        and worst_min <= 1e-9
        and property_failures == 0
    )
    _finish(
        7,
        "wheel structure",
        ok,
        f"odd n 5..25, eigvector gap {worst_eig:.2e} <= 1e-10, kernel "
        f"{worst_ker:.2e}, rank failures {rank_failures}, min eigenvalue at "
        f"{worst_min:.2e} of norm <= 1e-9, property failures {property_failures}",
    )


def test_criterion_8_rank_additive_pairs():
    # 30 seeded rank-additive square pairs, n <= 8: the two-projector
    # formula equals the oracle pseudoinverse of the sum to 1e-8.
    worst = 0.0
    for case in range(30):
        rng = np.random.default_rng(40_000 + case)
        n = int(rng.integers(2, 9))
        a1, a2 = gen_rank_additive_pair(40_000 + case, n)
        worst = max(worst, frobenius(fill_fishkind_pinv(a1, a2) - pinv(a1 + a2)))
    ok = worst <= 1e-8
    _finish(
        8,
        "rank-additive pairs",
        ok,
        f"30 pairs, worst formula gap {worst:.2e} <= 1e-8",
    )
