"""Every route factors its inputs once, and the structured routes prove rank
from their own certificates instead of the dense SVD.

Calls are counted by routing every module-level binding of a function
through a recorder, so calls made through names imported elsewhere are seen
too. The SVD oracle runs inside these tests only, never on a route's path.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import pinvkit
import pinvkit.circulant
import pinvkit.cli
import pinvkit.core
import pinvkit.graphdist
import pinvkit.linalg
import pinvkit.matrix
import pinvkit.sumdecomp
from pinvkit.cli import main
from pinvkit.core import gen_random_matrix, is_134_inverse, penrose_residuals, pinv
from pinvkit.graphdist import (
    _auto_alpha,
    gen_zero_sum_tree,
    tree_build,
    tree_pinv,
    tree_shift_inverse,
    wheel_build,
    wheel_z,
)
from pinvkit.linalg import cholesky_factor, inverse, lu_solve, svd, svd_batch, unit_scale
from pinvkit.matrix import (
    DEFAULT_TOL,
    VerificationError,
    dagger,
    dumps_matrix_csv,
    dumps_matrix_json,
    dumps_tree_csv,
    frobenius,
    loads_matrix_json,
)
from pinvkit.sumdecomp import (
    CompletionData,
    auto_completion,
    completion_pinv_pair,
    fill_fishkind_pinv,
    gen_rank_additive_pair,
    gen_svd_block_family,
    pinv_invertible_projector_eq,
    rank_completion_pinv,
)

MODULES = (
    pinvkit,
    pinvkit.circulant,
    pinvkit.cli,
    pinvkit.core,
    pinvkit.graphdist,
    pinvkit.linalg,
    pinvkit.matrix,
    pinvkit.sumdecomp,
)


def record_calls(monkeypatch, func) -> list[np.ndarray]:
    """Record the first argument of every call to func, wherever it is bound.

    For svd, each member of an svd_batch call is recorded too, in call order,
    as the svd call it stands for. svd itself is linalg's svd_batch on one
    member, so that binding is left alone and an svd call is recorded once.
    """
    seen = []

    def recording(first, *args, **kwargs):
        seen.append(np.array(first, copy=True))
        return func(first, *args, **kwargs)

    def recording_batch(mats, *args, **kwargs):
        seen.extend(np.array(a, copy=True) for a in mats)
        return svd_batch(mats, *args, **kwargs)

    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is func:
                monkeypatch.setattr(module, attr, recording)
            elif func is svd and value is svd_batch and module is not pinvkit.linalg:
                monkeypatch.setattr(module, attr, recording_batch)
    return seen


def count_equal(seen, a) -> int:
    return sum(1 for m in seen if m.shape == a.shape and np.array_equal(m, a))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_tree(tmp_path, tree) -> str:
    path = tmp_path / "tree.csv"
    path.write_text(dumps_tree_csv(tree.edges))
    return str(path)


def write_matrix(path, a) -> str:
    path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    return str(path)


# --------------------------------------------------------------------------
# call counts


def test_wheel_and_tree_commands_make_no_svd_calls(tmp_path, capsys, monkeypatch):
    src = write_tree(tmp_path, gen_zero_sum_tree(5, 40))
    calls = record_calls(monkeypatch, svd)
    code, report = run(capsys, ["wheel", "--n", "61"])
    assert code == 0 and report["rank"] == 60
    code, report = run(capsys, ["tree", "--input", src])
    assert code == 0 and report["rank"] == 39
    assert len(calls) == 0


def test_wheel_command_builds_the_wheel_once(capsys, monkeypatch):
    calls = record_calls(monkeypatch, wheel_build)
    code, _ = run(capsys, ["wheel", "--n", "9"])
    assert code == 0
    assert len(calls) == 1


def test_tree_command_factors_the_shifted_matrix_once(tmp_path, capsys, monkeypatch):
    # D^+ comes from the closed form whatever alpha is given, so no LU runs
    src = write_tree(tmp_path, gen_zero_sum_tree(11, 24))
    calls = record_calls(monkeypatch, lu_solve)
    for alpha in (["--alpha", "0.5"], []):
        code, report = run(capsys, ["tree", "--input", src, *alpha])
        assert code == 0 and report["method"] == "closed-form"
    assert len(calls) == 0


def _pair_partner(a, rank, invertible, rng):
    """B with R(B*) = N(A); with invertible, also R(B) = N(A*)."""
    f = svd(a)
    n = a.shape[0]
    coef = rng.standard_normal((n - rank, n - rank)) + 1j * rng.standard_normal((n - rank, n - rank))
    if invertible:
        left = f.u[:, rank:] @ coef
    else:
        left = rng.standard_normal((n, n - rank)) + 1j * rng.standard_normal((n, n - rank))
    return left @ dagger(f.v[:, rank:])


@pytest.mark.parametrize("method", ["normal", "rank-completion", "pair-gram", "pair-invertible"])
def test_dense_methods_factor_each_input_once(tmp_path, capsys, monkeypatch, method):
    a = gen_random_matrix(23, 6, 6, rank=3)
    argv = ["pinv", "--input", write_matrix(tmp_path / "a.json", a)]
    b = None
    if method.startswith("pair"):
        b = _pair_partner(a, 3, method == "pair-invertible", np.random.default_rng(4))
        argv += ["--method", "pair", "--aux", write_matrix(tmp_path / "b.json", b)]
    else:
        argv += ["--method", method]
    calls = record_calls(monkeypatch, svd)
    code, report = run(capsys, argv)
    assert code == 0 and report["rank"] == 3
    assert count_equal(calls, a) == 1
    if b is not None:
        assert count_equal(calls, b) == 1


def test_pair_of_two_shapes_is_refused_before_any_svd(tmp_path, capsys, monkeypatch):
    argv = ["pinv", "--method", "pair",
            "--input", write_matrix(tmp_path / "a.json", gen_random_matrix(3, 4, 4, rank=2)),
            "--aux", write_matrix(tmp_path / "b.json", gen_random_matrix(5, 3, 3, rank=1))]
    calls = record_calls(monkeypatch, svd)
    assert main(argv) == 3
    assert "same shape" in capsys.readouterr().err
    assert len(calls) == 0


def test_normal_method_on_rank_deficient_input_makes_one_svd(tmp_path, capsys, monkeypatch):
    # (A*A)^+ A* comes from the factorization of A, not from an SVD of A*A
    a = gen_random_matrix(31, 16, 16, rank=8)
    calls = record_calls(monkeypatch, svd)
    code, report = run(
        capsys, ["pinv", "--input", write_matrix(tmp_path / "a.json", a), "--method", "normal"]
    )
    assert code == 0 and report["rank"] == 8
    assert len(calls) == 1 and count_equal(calls, a) == 1


@pytest.mark.parametrize(
    "command,rows,cols",
    [
        ("normal", 12, 12),
        ("rank-completion", 10, 10),
        ("verify", 8, 8),
        ("normal", 12, 5),
        ("normal", 5, 12),
        ("rank-completion", 12, 5),
    ],
)
def test_full_rank_input_makes_no_svd(tmp_path, capsys, monkeypatch, command, rows, cols):
    # the route's own inverse certifies the rank, so the dense oracle never runs
    a = gen_random_matrix(29, rows, cols)
    argv = ["--input", write_matrix(tmp_path / "a.json", a)]
    if command == "verify":
        argv = ["verify", *argv, "--aux", write_matrix(tmp_path / "x.json", pinv(a))]
    else:
        argv = ["pinv", "--method", command, *argv]
    calls = record_calls(monkeypatch, svd)
    code, report = run(capsys, argv)
    assert code == 0 and report["passed"] and report["rank"] == min(rows, cols)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--gen", "1.5,-0.25+2i,0.5,3,-1i,0.125"],
        ["--method", "two-term", "--alpha", "1.3", "--beta", "-1.3", "--n", "12", "--k", "4"],
        ["--method", "two-term", "--gen", "0,2-1i,0.5,0,0"],
        ["--method", "zero-sum", "--gen", "1,-2,0.5,0.5", "--alpha", "0.7"],
        ["--method", "block", "--alpha", "1.5", "--beta", "-0.7", "--k", "3", "--q", "4"],
    ],
)
def test_circ_csv_output_skips_the_dense_check_and_writer(tmp_path, capsys, monkeypatch, argv):
    dense_checks = record_calls(monkeypatch, penrose_residuals)
    dense_writes = record_calls(monkeypatch, dumps_matrix_csv)
    code, report = run(capsys, ["circ", *argv, "--output", str(tmp_path / "x.csv")])
    assert code == 0 and report["passed"]
    assert dense_checks == [] and dense_writes == []
    # the recorders do see the dense command's calls
    a = write_matrix(tmp_path / "a.json", gen_random_matrix(3, 4, 4))
    code, _ = run(capsys, ["pinv", "--input", a, "--output", str(tmp_path / "a.csv")])
    assert code == 0 and len(dense_checks) == 1 and len(dense_writes) == 1


def test_fill_fishkind_factors_each_matrix_once(monkeypatch):
    a1, a2 = gen_rank_additive_pair(3, 8)
    r2 = svd(a2).rank
    calls = record_calls(monkeypatch, svd)
    x = fill_fishkind_pinv(a1, a2)
    assert count_equal(calls, a1) == 1
    assert count_equal(calls, a2) == 1
    assert count_equal(calls, a1 + a2) == 1
    # the cores with r2 rows or columns certify their own Gram inverses, so
    # nothing but the three n x n matrices is factored
    assert r2 < 8 and len(calls) == 3
    np.testing.assert_allclose(x, pinv(a1 + a2), atol=1e-9)


def low_rank(rng, n, r):
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return g @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))


@pytest.mark.parametrize("seed", range(3))
def test_fill_fishkind_factors_no_core_on_benchmark_shapes(monkeypatch, seed):
    # the closed-form workload's (n, rank A1, rank A2) slots, drawn as its
    # generator draws them
    rng = np.random.default_rng(seed)
    calls = record_calls(monkeypatch, svd)
    for n, r1, r2 in [(6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6)]:
        a1, a2 = low_rank(rng, n, r1), low_rank(rng, n, r2)
        calls.clear()
        x = fill_fishkind_pinv(a1, a2)
        assert [m.shape for m in calls] == [(n, n)] * 3
        assert penrose_residuals(a1 + a2, x).passed


def tilted_pair(sine: float, n: int = 8):
    """A rank-3 + rank-3 pair whose third co-range vector of A2 lies at a
    principal angle with this sine from R(A1*): the core V2* N1 then has a
    singular value of sine, and A1 + A2 stays rank-additive."""
    rng = np.random.default_rng(5)
    u, w = pinvkit.random_unitary(rng, n), pinvkit.random_unitary(rng, n)
    v2 = w[:, 3:6].copy()
    v2[:, 2] = np.sqrt(1.0 - sine**2) * w[:, 0] + sine * w[:, 5]
    return u[:, :3] @ dagger(w[:, :3]), u[:, 3:6] @ dagger(v2)


@pytest.mark.parametrize("sine,gap", [(1e-5, 1e-8), (1e-8, None)])
def test_fill_fishkind_factors_the_cores_when_their_certificate_fails(monkeypatch, sine, gap):
    # at 1e-5 the Gram inverse proves rank 3, but its residual, about
    # cond^2 u = 1e-6, is above tau, and it would fail the Penrose check of
    # X; at 1e-8 the Cholesky factor of the Gram matrix breaks down
    a1, a2 = tilted_pair(sine)
    calls = record_calls(monkeypatch, svd)
    x = fill_fishkind_pinv(a1, a2)
    cores = [m for m in calls if m.shape != (8, 8)]
    # V2* N1 is 3 x 5 and M1* U2 is 5 x 3; one svd_batch call takes both
    assert len(calls) == 5 and sorted(m.shape for m in cores) == [(3, 5), (5, 3)]
    assert penrose_residuals(a1 + a2, x).passed
    if gap is not None:
        want = np.linalg.pinv(a1 + a2)
        assert frobenius(x - want) <= gap * frobenius(want)


def test_projector_equation_solves_with_the_svd_of_the_sum(monkeypatch):
    # the SVD that proves the family sum invertible also solves for X
    fam = gen_svd_block_family(seed=9, rows=6, cols=6, k=2, ranks=(4, 2))
    wants = [pinv(m) for m in fam.members]
    lu_calls = record_calls(monkeypatch, lu_solve)
    svd_calls = record_calls(monkeypatch, svd)
    for k0, want in enumerate(wants):
        assert frobenius(pinv_invertible_projector_eq(fam, k0) - want) <= 1e-10
        assert count_equal(svd_calls, fam.total()) == k0 + 1
    assert lu_calls == []


# --------------------------------------------------------------------------
# completion forms: the input picks the factorization


def record_forms(monkeypatch) -> dict[str, list[np.ndarray]]:
    return {
        "inverse": record_calls(monkeypatch, inverse),
        "cholesky": record_calls(monkeypatch, cholesky_factor),
        "svd": record_calls(monkeypatch, svd),
    }


def assert_matches_pinv(x, want):
    assert frobenius(x - want) <= 1e-9 * frobenius(want)


@pytest.mark.parametrize(
    "rows,cols,partial,form",
    [
        (5, 5, False, "inverse"),
        (6, 4, False, "gram-left"),
        (4, 6, False, "gram-right"),
        (6, 4, True, "pinv"),
    ],
)
def test_rank_completion_input_picks_its_form(monkeypatch, rows, cols, partial, form):
    a = gen_random_matrix(41, rows, cols, rank=2 if partial else min(rows, cols) - 2)
    comp = auto_completion(a)
    if partial:
        comp = CompletionData(comp.f_basis[:, :1], comp.g_basis[:, :1], comp.d[:1])
    completed = a + (comp.g_basis * comp.d) @ dagger(comp.f_basis)
    want = pinv(a)
    calls = record_forms(monkeypatch)
    x = rank_completion_pinv(a, comp)
    assert_matches_pinv(x, want)
    assert count_equal(calls["svd"], a) == 1
    if form == "inverse":
        # M as it is: inverse scales it by unit_scale(M) itself
        assert count_equal(calls["inverse"], completed) == 1 and calls["cholesky"] == []
    elif form == "pinv":
        assert count_equal(calls["svd"], completed) == 1
        assert calls["inverse"] == [] and calls["cholesky"] == []
    else:
        # the left Gram matrix is M*M (n x n), the right one MM* (m x m), both
        # of M scaled by the power of two unit_scale(M)
        left = form == "gram-left"
        gram = dagger(completed) @ completed if left else completed @ dagger(completed)
        gram = gram * unit_scale(completed) ** 2
        assert calls["inverse"] == [] and len(calls["cholesky"]) == 1
        got = calls["cholesky"][0]
        assert got.shape == gram.shape and frobenius(got - gram) <= 1e-9 * frobenius(gram)


@pytest.mark.parametrize("form", ["invertible", "gram-left", "gram-right"])
def test_pair_completion_input_picks_its_form(monkeypatch, form):
    if form == "gram-right":
        a = np.array([[1.0, 0.0, 0.0]], dtype=np.complex128)  # 1 x 3, N(A*) = 0
        b = np.zeros((1, 3), dtype=np.complex128)
    else:
        a = gen_random_matrix(23, 6, 6, rank=3)
        # B = C N*, with C in N(A*) for the invertible form and random otherwise
        b = _pair_partner(a, 3, form == "invertible", np.random.default_rng(4))
    want = pinv(a)
    calls = record_forms(monkeypatch)
    x = completion_pinv_pair(a, b)
    assert_matches_pinv(x, want)
    # the Gram matrix S*S of S = [A; B] (or SS* of S = [A B]), formed as
    # _gram_pinv forms it, on S times the power of two unit_scale(S); an
    # invertible A + B meets R(B*) = N(A) too and takes the left Gram form
    left = form != "gram-right"
    stacked = np.concatenate((a, b), axis=0 if left else 1)
    scaled = stacked * unit_scale(stacked)
    lhs = dagger(scaled) if left else scaled
    assert calls["inverse"] == []
    assert count_equal(calls["cholesky"], lhs @ dagger(lhs)) == 1


# --------------------------------------------------------------------------
# certificates


def test_certified_wheel_rank_matches_the_oracle(capsys):
    for n in range(5, 62, 2):
        code, report = run(capsys, ["wheel", "--n", str(n)])
        assert code == 0
        assert report["rank"] == svd(wheel_build(n).D).rank == n - 1


def test_certified_tree_rank_matches_the_oracle(tmp_path, capsys):
    for seed, n in enumerate(range(3, 61, 3)):
        tree = gen_zero_sum_tree(100 + seed, n)
        code, report = run(capsys, ["tree", "--input", write_tree(tmp_path, tree)])
        assert code == 0
        assert report["rank"] == svd(tree.D).rank == n - 1


def graded_zero_sum_tree(seed: int, n: int = 20, spread: float = 1e8):
    """Random tree whose weight magnitudes are log-uniform over [1, spread],
    with random signs and the last weight minus the sum of the others."""
    rng = np.random.default_rng(seed)
    shape = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    weights = np.exp(rng.uniform(0.0, np.log(spread), size=n - 2))
    weights *= rng.choice([-1.0, 1.0], size=n - 2)
    edges = [(i, j, float(w)) for (i, j), w in zip(shape[:-1], weights)]
    edges.append((shape[-1][0], shape[-1][1], -float(weights.sum())))
    return tree_build(edges)


@pytest.mark.parametrize("seed", range(6))
def test_graded_trees_certify_rank_without_lu(tmp_path, capsys, monkeypatch, seed):
    # the former LU shift route failed penrose4 on seeds 0, 1, 2 and 5
    tree = graded_zero_sum_tree(seed)
    out = tmp_path / "x.json"
    calls = record_calls(monkeypatch, lu_solve)
    code, report = run(capsys, ["tree", "--input", write_tree(tmp_path, tree),
                                "--output", str(out)])
    assert code == 0 and len(calls) == 0
    assert report["rank"] == svd(tree.D).rank == 19
    x = loads_matrix_json(out.read_text()).real
    assert penrose_residuals(tree.D, x).passed


def test_explicit_auto_alpha_on_a_graded_tree_passes():
    # an LU inverse of D + alpha tau tau^t misses penrose4 here by 20 times
    # its bound, as cond(D + alpha tau tau^t) is 3.9e8
    tree = graded_zero_sum_tree(0)
    tree_pinv(tree, _auto_alpha(tree, DEFAULT_TOL))


@pytest.mark.parametrize("spread", [1e6, 1e8])
@pytest.mark.parametrize("seed", range(20))
def test_tree_routes_at_an_explicit_auto_alpha_factor_nothing_on_graded_trees(
    tmp_path, capsys, monkeypatch, seed, spread
):
    # an LU inverse of D + alpha tau tau^t misses penrose4 on 17 of these 20
    # seeds at spread 1e8 and on 4 at 1e6
    tree = graded_zero_sum_tree(seed, spread=spread)
    alpha = _auto_alpha(tree, DEFAULT_TOL)
    src = write_tree(tmp_path, tree)
    calls = [record_calls(monkeypatch, f) for f in (lu_solve, svd, cholesky_factor)]
    code, report = run(capsys, ["tree", "--input", src, f"--alpha={alpha!r}"])
    assert code == 0 and report["extras"]["alpha"] == alpha
    x = tree_shift_inverse(tree, alpha)
    assert calls == [[], [], []]
    assert is_134_inverse(tree.D, x)
    shifted = tree.D + alpha * np.outer(tree.tau, tree.tau)
    residual = frobenius(shifted @ x - np.eye(tree.n))
    assert residual <= 1e-15 * frobenius(shifted) * frobenius(x)


def test_perturbed_tree_laplacian_breaks_the_certificate(tmp_path, capsys, monkeypatch):
    tree = gen_zero_sum_tree(4, 12)
    broken = dataclasses.replace(tree, L=1.5 * tree.L)
    assert broken.dl_residual > 2.0 > tree.dl_residual
    with pytest.raises(VerificationError, match="margin .* cutoff"):
        tree_pinv(broken)
    src = write_tree(tmp_path, tree)
    monkeypatch.setattr(pinvkit.cli, "tree_build", lambda edges, tol: broken)
    assert main(["tree", "--input", src]) == 2
    assert capsys.readouterr().out == ""


def test_perturbed_wheel_z_breaks_the_certificate(capsys, monkeypatch):
    def perturbed(n):
        z24 = wheel_z(n).copy()
        z24[0] += 1
        z24[1] -= 1
        return z24

    monkeypatch.setattr(pinvkit.graphdist, "wheel_z", perturbed)
    with pytest.raises(VerificationError):
        wheel_build(9)
    assert main(["wheel", "--n", "9"]) == 2
    assert capsys.readouterr().out == ""
