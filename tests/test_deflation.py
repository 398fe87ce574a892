"""The deflated Jacobi kernel, svd(a, deflate=True), under every pseudoinverse route.

deflate=True freezes at zero each column of B = A V whose norm falls below
min(c_lo / 8, tau ||A||_F / sqrt(n)) and reports the zeroed mass ||E||_F as
SvdFactorization.deflated. numpy.linalg is the oracle here: the deflated
rank must equal the accurate kernel's and the designed one, and every route
must match numpy.linalg.pinv taken at the same rank cutoff.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import pinvkit.sumdecomp
from pinvkit.cli import main
from pinvkit.core import penrose_residuals, pinv, pinv_normal_equations
from pinvkit.linalg import svd, svd_batch
from pinvkit.matrix import (
    DEFAULT_TOL,
    UNIT_ROUNDOFF,
    PreconditionError,
    dagger,
    dumps_matrix_json,
    frobenius,
    loads_matrix_json,
)
from pinvkit.sumdecomp import completion_pinv_pair, fill_fishkind_pinv, rank_completion_pinv


def complex_gaussian(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def low_rank(rng, m, n, r):
    if r >= min(m, n):
        return complex_gaussian(rng, m, n)
    return complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)


def frame(seed, m, n, sigma):
    """U diag(sigma) V* with orthonormal U, V from numpy.linalg.qr."""
    rng = np.random.default_rng(seed)
    sigma = np.asarray(sigma, dtype=float)
    u = np.linalg.qr(complex_gaussian(rng, m, sigma.size))[0]
    v = np.linalg.qr(complex_gaussian(rng, n, sigma.size))[0]
    return (u * sigma) @ dagger(v)


def null_basis(a, rank):
    return np.linalg.svd(a)[2][rank:].conj().T


def cutoff(f, shape):
    return DEFAULT_TOL.rank_cutoff(f.sigma[0], *shape)


def assert_deflation_is_harmless(a):
    """Same rank as the accurate kernel, each sigma within ||E||_F of its
    accurate value (Weyl), and ||E||_F below the quarter cutoff the
    Fill-Fishkind tie guard relies on."""
    fast, accurate = svd(a, deflate=True), svd(a)
    assert fast.rank == accurate.rank
    gap = np.max(np.abs(fast.sigma - accurate.sigma), initial=0.0)
    assert gap <= fast.deflated + 1e-13 * accurate.sigma[0]
    assert fast.deflated < cutoff(accurate, a.shape) / 4.0
    return fast


def assert_matches_numpy(a, x, rank):
    """x is A^+ to first order in the backward error 10 u max(m, n) ||A||:
    the oracle's relative gap is at most kappa times that."""
    m, n = a.shape
    sigma = np.linalg.svd(a, compute_uv=False)
    ref = np.linalg.pinv(a, rtol=DEFAULT_TOL.rank_rel * max(m, n))
    kappa = sigma[0] / sigma[rank - 1]
    assert frobenius(x - ref) <= 10 * UNIT_ROUNDOFF * max(m, n) * kappa * frobenius(ref)


def cli(tmp_path, capsys, argv, **matrices):
    for name, value in matrices.items():
        (tmp_path / f"{name}.json").write_text(dumps_matrix_json(np.asarray(value, complex)))
    code = main([str(tmp_path / f"{arg}.json") if arg in matrices else arg for arg in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# --------------------------------------------------------------------------
# random rank-deficient shapes: square, tall (including m x 4 of rank 1) and wide


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
@pytest.mark.parametrize(
    "shape",
    [(8, 8, 3), (16, 16, 8), (32, 32, 16), (12, 12, 11), (40, 12, 5), (128, 4, 1),
     (64, 4, 1), (16, 4, 1), (12, 40, 5), (4, 128, 1), (9, 30, 4), (3, 7, 2)],
    ids=lambda s: "%dx%d-r%d" % s,
)
def test_deflated_routes_match_numpy_on_rank_deficient_shapes(shape, scale):
    m, n, r = shape
    a = scale * low_rank(np.random.default_rng(m * 1000 + n * 10 + r), m, n, r)
    f = assert_deflation_is_harmless(a)
    assert f.rank == r
    for x in (pinv(a), pinv_normal_equations(a), rank_completion_pinv(a)):
        assert_matches_numpy(a, x, r)


# --------------------------------------------------------------------------
# a singular value just above the rank cutoff


@pytest.mark.parametrize("above", [1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
def test_sigma_just_above_the_cutoff_keeps_its_rank_or_ties(above):
    # A1 and A2 take disjoint column blocks of one frame, so A1 + A2 has
    # exactly their singular values and the pair is rank-additive
    n, r = 12, 6
    sigma = np.ones(n)
    sigma[r - 1] = above * DEFAULT_TOL.rank_cutoff(1.0, n, n)
    whole = frame(7, n, n, sigma)
    a1 = frame(7, n, n, np.concatenate([sigma[:r], np.zeros(n - r)]))
    a2 = whole - a1 - frame(7, n, n, np.concatenate([np.zeros(r + 3), sigma[r + 3 :]]))
    assert svd(a1, deflate=True).rank == svd(a1).rank == r
    assert penrose_residuals(a1, pinv(a1)).passed
    try:
        x = fill_fishkind_pinv(a1, a2)
    except PreconditionError as exc:
        assert "ties with the rank cutoff" in str(exc)
        assert above <= 5.0
    else:
        assert penrose_residuals(a1 + a2, x).passed


# --------------------------------------------------------------------------
# the command line: coarse rank cutoffs and graded inputs


@pytest.mark.parametrize(
    "method, dropped",
    [(method, dropped) for method in ("svd", "normal", "rank-completion", "pair-gram",
                                      "pair-invertible") for dropped in (1e-11, 1e-9)],
)
def test_coarse_rank_cutoff_through_every_pinv_method(tmp_path, capsys, method, dropped):
    # the input of test_coarse_rank_cutoff_is_honoured_by_every_route; the
    # pair partner B = C N* spans N(A) at rank 4, and for "invertible"
    # C = M K with M spanning N(A*), so R(B) lies in N(A*) too
    a = frame(3, 6, 6, [3.0, 2.0, 1.0, 0.5, dropped])
    argv = ["pinv", "--input", "a", "--tol-rank", "1e-10", "--method", method]
    matrices = {"a": a}
    if method.startswith("pair"):
        rng = np.random.default_rng(5)
        left = complex_gaussian(rng, 6, 2)
        if method == "pair-invertible":
            left = null_basis(dagger(a), 4) @ complex_gaussian(rng, 2, 2)
        matrices["b"] = left @ dagger(null_basis(a, 4))
        argv[-1:] = ["pair", "--aux", "b"]
    code, report = cli(tmp_path, capsys, argv, **matrices)
    assert code == 0 and report["rank"] == 4 and report["passed"]


@pytest.mark.parametrize("method", ["svd", "rank-completion"])
@pytest.mark.parametrize(
    "case",
    [(8, 4, 3, 2), (10, 6, 4, 4), (12, 5, 5, 0), (16, 8, 2, 5), (9, 9, 4, 4), (12, 11, 3, 3)],
    ids=lambda c: "n%d-r%d-rows1e-%d-cols1e-%d" % c,
)
def test_graded_inputs_through_pinv_and_rank_completion(tmp_path, capsys, method, case):
    # D1 A D2 with A of rank r and row and column scales over the given decades
    n, r, row_decades, col_decades = case
    rng = np.random.default_rng(n * 100 + r)
    a = np.logspace(0.0, -row_decades, n)[:, None] * low_rank(rng, n, n, r)
    a = a * np.logspace(0.0, -col_decades, n)
    argv = ["pinv", "--input", "a", "--method", method, "--output", str(tmp_path / "x.json")]
    code, report = cli(tmp_path, capsys, argv, a=a)
    assert code == 0 and report["rank"] == svd(a).rank == r
    assert_deflation_is_harmless(a)
    assert_matches_numpy(a, loads_matrix_json((tmp_path / "x.json").read_text()), r)


# --------------------------------------------------------------------------
# Fill-Fishkind: the deflated mass and the accurate fallback


def record_sumdecomp_svd(monkeypatch):
    """Each svd call made inside sumdecomp, and each member of an svd_batch
    call in call order, as (deflate, factorization, shape)."""
    seen = []

    def recording(a, tol=DEFAULT_TOL, deflate=False):
        f = svd(a, tol, deflate=deflate)
        seen.append((deflate, f, np.shape(a)))
        return f

    def recording_batch(mats, tol=DEFAULT_TOL, deflate=False):
        fs = svd_batch(mats, tol, deflate=deflate)
        seen.extend((deflate, f, np.shape(a)) for a, f in zip(mats, fs))
        return fs

    monkeypatch.setattr(pinvkit.sumdecomp, "svd", recording)
    monkeypatch.setattr(pinvkit.sumdecomp, "svd_batch", recording_batch)
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_deflated_mass_stays_below_the_tie_band_on_benchmark_shapes(monkeypatch, seed):
    # the dense-oracle, pair and Fill-Fishkind shapes of the benchmark's
    # workloads, drawn the way its generators draw them
    rng = np.random.default_rng(seed)
    for m, n, r in [(64, 64, 64), (32, 32, 16), (16, 16, 8), (16, 16, 12), (12, 12, 6),
                    (12, 12, 9), (10, 10, 5), (8, 8, 4), (8, 8, 6), (8, 8, 3), (128, 4, 1),
                    (96, 4, 1), (64, 4, 1), (48, 4, 1), (32, 4, 1), (16, 4, 1)]:
        assert_deflation_is_harmless(low_rank(rng, m, n, r))
    for n, r in [(6, 3), (8, 5), (8, 4), (10, 6), (12, 6), (16, 10)]:
        a = low_rank(rng, n, n, r)
        assert_deflation_is_harmless(a)
        assert_deflation_is_harmless(complex_gaussian(rng, n, n - r) @ dagger(null_basis(a, r)))
    seen = record_sumdecomp_svd(monkeypatch)
    for n, r1, r2 in [(6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6)]:
        a1, a2 = low_rank(rng, n, n, r1), low_rank(rng, n, n, r2)
        assert_matches_numpy(a1 + a2, fill_fishkind_pinv(a1, a2), r1 + r2)
    # three matrices per pair, every one deflated: the accurate fallback
    # never runs on these inputs, and the certified cores are not factored
    assert len(seen) == 15
    assert all(deflate and f.deflated < cutoff(f, shape) / 4.0 for deflate, f, shape in seen)


def test_fill_fishkind_refactors_accurately_when_the_deflated_mass_is_large(monkeypatch):
    # 16 singular values at 1 and 16 just below the deflation floor: each
    # small column is zeroed, and together they weigh more than cutoff / 4,
    # while the accurate kernel keeps them far below the tie band
    n, r1 = 32, 16
    floor = DEFAULT_TOL.rank_cutoff(np.sqrt(r1 / n), n, n) / 8.0
    a1 = frame(11, n, n, np.concatenate([np.ones(r1), np.full(n - r1, 0.9 * floor)]))
    a2 = low_rank(np.random.default_rng(12), n, n, 3)
    f1 = svd(a1, deflate=True)
    assert f1.deflated >= cutoff(f1, a1.shape) / 4.0
    seen = record_sumdecomp_svd(monkeypatch)
    x = fill_fishkind_pinv(a1, a2)
    assert [deflate for deflate, _, _ in seen[:6]] == [True] * 3 + [False] * 3
    assert all(f.rank == rank for (_, f, _), rank in zip(seen[3:6], (r1, 3, r1 + 3)))
    assert penrose_residuals(a1 + a2, x).passed
    assert_matches_numpy(a1 + a2, x, r1 + 3)


def test_pair_route_matches_numpy_with_deflated_partner():
    n, r = 16, 10
    rng = np.random.default_rng(21)
    a = low_rank(rng, n, n, r)
    b = complex_gaussian(rng, n, n - r) @ dagger(null_basis(a, r))
    assert_deflation_is_harmless(b)
    assert_matches_numpy(a, completion_pinv_pair(a, b), r)
