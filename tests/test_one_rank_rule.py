"""One rank rule: a kernel that breaks down hands over to the SVD of A.

The completion and pair expressions hold with pseudoinverses, so an LU or
Cholesky breakdown only rules out the faster kernel. Inputs that the SVD
rule calls full rank must not be refused, and the closed-form graph routes
must report the rank the SVD gives at the caller's cutoff, or fail.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import pinvkit.core
import pinvkit.sumdecomp
from pinvkit.cli import main
from pinvkit.core import pinv
from pinvkit.graphdist import gen_zero_sum_tree, wheel_build
from pinvkit.linalg import random_unitary, svd
from pinvkit.matrix import (
    UNIT_ROUNDOFF,
    Tolerance,
    dagger,
    dumps_matrix_json,
    dumps_tree_csv,
    frobenius,
    loads_matrix_json,
)
from pinvkit.sumdecomp import (
    CompletionData,
    auto_completion,
    completion_pinv_pair,
    rank_completion_pinv,
)

# just above the SVD rule's cutoff of a 6 x 6 matrix with sigma_1 = 1, and
# below the LU pivot threshold 10 n u max |a_ij| that lu_solve once held
JUST_FULL = 1.5 * 6 * UNIT_ROUNDOFF


def frame(seed: int, m: int, n: int):
    rng = np.random.default_rng(seed)
    return rng, random_unitary(rng, m), random_unitary(rng, n)


def with_singular_values(seed: int, m: int, n: int, sigma) -> np.ndarray:
    """U diag(sigma) V* from the seeded unitary frame."""
    _, u, v = frame(seed, m, n)
    k = len(sigma)
    return (u[:, :k] * np.asarray(sigma)) @ dagger(v[:, :k])


def pair(seed: int, n: int, sigma, invertible: bool) -> tuple[np.ndarray, np.ndarray]:
    """A = U diag(sigma) V* and a partner B = C N* with N = V's null columns;
    with invertible, C = U's null columns times a square coefficient, so
    R(B) = N(A*) too and A + B is invertible."""
    rng, u, v = frame(seed, n, n)
    r = len(sigma)
    a = (u[:, :r] * np.asarray(sigma)) @ dagger(v[:, :r])
    shape = (n, n - r) if not invertible else (n - r, n - r)
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = u[:, r:] @ coef if invertible else coef
    return a, c @ dagger(v[:, r:])


def write(path, a) -> str:
    path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out.strip() else None, captured.err


def pinv_command(tmp_path, capsys, a, method, b=None):
    """(exit code, report, X or None, stderr) of pinv --method method."""
    out = tmp_path / f"x-{method}.json"
    argv = ["pinv", "--input", write(tmp_path / "a.json", a), "--method", method]
    if b is not None:
        argv += ["--aux", write(tmp_path / "b.json", b)]
    code, report, err = run(capsys, [*argv, "--output", str(out)])
    x = loads_matrix_json(out.read_text()) if code == 0 else None
    return code, report, x, err


def assert_matches_svd_method(tmp_path, capsys, a, code, report, x, rank, rel=1e-9):
    assert code == 0 and report["rank"] == rank
    svd_code, svd_report, x_svd, _ = pinv_command(tmp_path, capsys, a, "svd")
    assert svd_code == 0 and svd_report["rank"] == rank
    assert frobenius(x - x_svd) <= rel * frobenius(x_svd)


# --------------------------------------------------------------------------
# rank completion: LU and Gram breakdowns take pinv(A)


def test_rank_completion_past_an_lu_breakdown(tmp_path, capsys):
    # the LU pivot test refused this with "matrix is singular at working
    # precision", though the SVD rule gives rank 6
    a = with_singular_values(3, 6, 6, [1, 1, 1, 1, 1, JUST_FULL])
    code, report, x, _ = pinv_command(tmp_path, capsys, a, "rank-completion")
    assert_matches_svd_method(tmp_path, capsys, a, code, report, x, 6)


@pytest.mark.parametrize("spread", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("shape", [(8, 4), (4, 8)])
def test_rank_completion_past_a_gram_breakdown(tmp_path, capsys, shape, spread):
    # refused with "completed Gram matrix is not positive definite"
    a = with_singular_values(1, *shape, np.geomspace(1, spread, 4))
    code, report, x, _ = pinv_command(tmp_path, capsys, a, "rank-completion")
    assert_matches_svd_method(tmp_path, capsys, a, code, report, x, 4)


# --------------------------------------------------------------------------
# pair completion


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("n,rank,spread", [(8, 4, 1e-9), (6, 3, 1e-12)])
def test_gram_pair_past_a_cholesky_breakdown(tmp_path, capsys, n, rank, spread, adjoint):
    # refused with "A*A + B*B is not positive definite at tolerance"; the
    # adjoint pair takes the mirrored form, A* (AA* + BB*)^-1
    a, b = pair(0, n, np.geomspace(1, spread, rank), invertible=False)
    if adjoint:
        a, b = dagger(a), dagger(b)
    code, report, x, _ = pinv_command(tmp_path, capsys, a, "pair", b)
    assert_matches_svd_method(tmp_path, capsys, a, code, report, x, rank)


def test_invertible_pair_past_an_lu_breakdown(tmp_path, capsys):
    # refused with "matrix is singular at working precision"; A's smallest
    # sigma sits below the cutoff of A + B, whose sigma_1 comes from B, so
    # only A's own factorization keeps it
    a, b = pair(0, 6, [1, 1, JUST_FULL], invertible=True)
    code, report, x, _ = pinv_command(tmp_path, capsys, a, "pair", b)
    assert_matches_svd_method(tmp_path, capsys, a, code, report, x, 3)


def test_invertible_pair_falls_back_to_the_svd_of_a(monkeypatch):
    # an invertible A + B takes the Gram form; its breakdown hands over too
    a, b = pair(5, 6, [2.0, 1.0, 0.5], invertible=True)
    monkeypatch.setattr(pinvkit.core, "_gram_pinv", lambda stacked, left: None)
    x = completion_pinv_pair(a, b)
    assert frobenius(x - pinv(a)) <= 1e-9 * frobenius(pinv(a))


@pytest.mark.parametrize("invertible,scale", [(True, 1e-17), (False, 1e-17), (False, 1e-12)])
def test_pair_with_a_tiny_partner_past_a_breakdown(invertible, scale):
    # the SVD of A + B drops B's sigma below its cutoff while B^+ is still
    # subtracted (X off by ||B^+||, yet inside the projector check's
    # allowance), and B's small kept sigma spoil A's block of the stack's
    # SVD (off by 6e5 relative at 1e-12); A's own factorization holds
    a, b = pair(2, 6, [1.0, 0.5, 0.1], invertible)
    x = completion_pinv_pair(a, scale * b)
    assert frobenius(x - pinv(a)) <= 1e-9 * frobenius(pinv(a))


@pytest.mark.parametrize("shape,weight", [((6, 6), 1e-17), ((8, 4), 1e-12), ((4, 8), 1e-17)])
def test_full_completion_with_a_tiny_weight_past_a_breakdown(shape, weight):
    # pinv(M) would drop the weight below M's cutoff and still subtract its
    # dyad, leaving 1/d_k in X
    a = with_singular_values(3, *shape, [1.0, 0.5, 0.1])
    auto = auto_completion(a)
    comp = CompletionData(auto.f_basis, auto.g_basis, np.full(auto.count, weight, complex))
    x = rank_completion_pinv(a, comp)
    assert frobenius(x - pinv(a)) <= 1e-9 * frobenius(pinv(a))


# --------------------------------------------------------------------------
# closed-form graph routes: the SVD's rank at the caller's cutoff, or exit 2


def test_wheel_margin_below_a_coarse_cutoff_is_refused(capsys):
    # svd(D) gives rank 1 at this cutoff; the wheel reported rank 8
    code, _, err = run(capsys, ["wheel", "--n", "9", "--tol-rank", "0.05"])
    assert code == 2
    assert "margin 3.330e-01 is below the rank cutoff 6.235e+00" in err
    assert svd(wheel_build(9).D, Tolerance(rank_rel=0.05)).rank == 1


@pytest.mark.parametrize("rank_rel", [1e-3, 0.05])
@pytest.mark.parametrize(
    "graph",
    [("tree", 3, 5), ("tree", 8, 8), ("tree", 11, 12), *(("wheel", n) for n in (5, 9, 13, 21))],
)
def test_graph_routes_report_the_svd_rank_or_fail(tmp_path, capsys, graph, rank_rel):
    # at 1e-3 some of these pass and some fail; at 0.05 all fail, and the
    # wheel at n = 5 and 9 reported rank n - 1 against svd's 1
    tol = ["--tol-rank", str(rank_rel)]
    if graph[0] == "tree":
        tree = gen_zero_sum_tree(*graph[1:])
        path = tmp_path / "tree.csv"
        path.write_text(dumps_tree_csv(tree.edges))
        d = tree.D
        code, report, _ = run(capsys, ["tree", "--input", str(path), *tol])
    else:
        d = wheel_build(graph[1]).D
        code, report, _ = run(capsys, ["wheel", "--n", str(graph[1]), *tol])
    assert code in (0, 2)
    if code == 0:
        assert report["rank"] == svd(d, Tolerance(rank_rel=rank_rel)).rank
