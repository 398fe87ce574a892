"""One admission rule for every fast kernel.

The completion, pair and Gram formulas are exact, but their LU and Cholesky
kernels are not: the Gram solve loses cond^2 u, and a form that subtracts
dyads, M^-1 - sum (1/d_k) f_k g_k*, can cancel.
core._admitted keeps such an X only when the inverted matrix shows its
full-rank margin, X maps the filled columns of N(A*) to zero, and X passes
its Penrose check. Otherwise the route returns pinv(A) from A's own
factorization, so `pinv --method normal`, `rank-completion` and `pair` exit
0 wherever `--method svd` does, and a refused X becomes svd's X byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvkit.circulant
import pinvkit.cli
import pinvkit.core
import pinvkit.sumdecomp
from pinvkit.cli import main
from pinvkit.core import PENROSE_KEYS, ResidualReport, gen_random_matrix, pinv
from pinvkit.linalg import inverse, random_unitary, svd
from pinvkit.matrix import UNIT_ROUNDOFF, dagger, dumps_matrix_json, frobenius, loads_matrix_json
from pinvkit.sumdecomp import CompletionData, auto_completion, completion_pinv_pair, rank_completion_pinv

# A kept Gram X passes the Penrose bounds, tau ||A||_F ||X||_F, while its
# error relative to X_svd stays below about tau / u = 9.0e3 times u cond(A).
# 2200 seeded draws of the property below peaked at 9.0e3.
C_PRIME = 2e4


def graded(seed: int, m: int, n: int, rank: int, cond: float, invertible: bool, scale: float):
    """A = U diag(geomspace(1, 1/cond, rank)) V* from a seeded unitary frame,
    and a partner B, times scale, whose range or co-range fills a null space
    of A: B = C N* with N the null columns of V, C in N(A*) when invertible
    asks for an invertible A + B and m = n; or B = M D* with M the null
    columns of U when C N* cannot fill N(A)."""
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, m), random_unitary(rng, n)
    a = (u[:, :rank] * np.geomspace(1.0, 1.0 / cond, rank)) @ dagger(v[:, :rank])

    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    k = n - rank
    if invertible and m == n:
        b = u[:, rank:] @ gaussian(k, k) @ dagger(v[:, rank:])
    elif k <= m:
        b = gaussian(m, k) @ dagger(v[:, rank:])
    else:
        b = u[:, rank:] @ dagger(gaussian(n, m - rank))
    return a, scale * b


def pinv_command(workdir: str, a, method: str, b=None):
    """(exit code, report, output bytes or None) of pinv --method method."""
    src, out = os.path.join(workdir, "a.json"), os.path.join(workdir, f"x-{method}.json")
    with open(src, "w", encoding="utf-8") as handle:
        handle.write(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    argv = ["pinv", "--method", method, "--input", src, "--output", out]
    if b is not None:
        aux = os.path.join(workdir, "b.json")
        with open(aux, "w", encoding="utf-8") as handle:
            handle.write(dumps_matrix_json(b))
        argv += ["--aux", aux]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    line = stdout.getvalue().strip()
    written = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            written = handle.read()
        os.remove(out)
    return code, json.loads(line) if line else None, written


def read_x(data: bytes) -> np.ndarray:
    return loads_matrix_json(data.decode())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 16),
    n=st.integers(1, 16),
    deficient=st.booleans(),
    rank_draw=st.floats(0.0, 1.0),
    log_cond=st.floats(2.0, 12.0),
    invertible=st.booleans(),
    log_scale=st.floats(-14.0, 2.0),
)
def test_dense_methods_exit_0_wherever_svd_does(
    seed, m, n, deficient, rank_draw, log_cond, invertible, log_scale
):
    # every kept sigma, at least 1e-12, is above 16 times the cutoff u max(m, n)
    rank = min(m, n) if not deficient else 1 + int(rank_draw * (min(m, n) - 1))
    cond = 10.0**log_cond
    a, b = graded(seed, m, n, rank, cond, invertible, 10.0**log_scale)
    with tempfile.TemporaryDirectory() as workdir:
        code, report, x_svd = pinv_command(workdir, a, "svd")
        assert code == 0 and report["rank"] == rank
        want = read_x(x_svd)
        for method, aux in (("normal", None), ("rank-completion", None), ("pair", b)):
            code, report, x = pinv_command(workdir, a, method, aux)
            assert code == 0 and report["passed"] and report["rank"] == rank, method
            assert frobenius(read_x(x) - want) <= C_PRIME * UNIT_ROUNDOFF * cond * frobenius(want)
            if method == "normal" and rank < min(m, n):
                # below full rank (A*A)^+ A* is pinv(A) exactly; no Gram arithmetic
                assert x == x_svd


@pytest.mark.parametrize("cond", [1e5, 1e6])
@pytest.mark.parametrize("shape", [(8, 4), (4, 8), (16, 12), (8, 8)])
def test_a_refused_kernel_writes_the_svd_bytes(tmp_path, shape, cond):
    # ROADMAP item 1's graded cases: normal and rank-completion exited 2 on
    # most of these, as their Gram or LU X lost cond^2 u
    rank = min(shape)
    a, _ = graded(7, *shape, rank, cond, False, 1.0)
    code, _, x_svd = pinv_command(str(tmp_path), a, "svd")
    assert code == 0
    for method in ("normal", "rank-completion"):
        code, report, x = pinv_command(str(tmp_path), a, method)
        assert code == 0 and report["passed"] and report["rank"] == rank, method
        if method == "normal" or shape[0] != shape[1]:
            # the Gram solve's cond^2 u = 1e-6 or more fails the Penrose check
            assert x == x_svd, method


def test_an_exact_inverse_below_the_cutoff_is_refused_by_the_margin(tmp_path):
    # unit upper triangular with -1 above the diagonal: its inverse has
    # integer entries up to 2^48, the LU inverse is exact, and both kernels'
    # X pass the Penrose check, whose bounds are 0 once ||A|| ||X|| > 1/u;
    # but sigma_min is below the cutoff, and svd gives rank 49. Only the
    # margin of the inverted matrix refuses the kernels' rank 50, and
    # rank-completion then completes the one null direction
    a = np.triu(-np.ones((50, 50)), 1) + np.eye(50)
    code, report, x_svd = pinv_command(str(tmp_path), a, "svd")
    assert code == 0 and report["rank"] == 49
    for method in ("normal", "rank-completion"):
        code, report, x = pinv_command(str(tmp_path), a, method)
        assert code == 0 and report["passed"] and report["rank"] == 49, method
        assert method != "normal" or x == x_svd


# --------------------------------------------------------------------------
# library calls that returned a wrong X without raising


def assert_is_pinv(x, a):
    want = pinv(a)
    assert frobenius(x - want) <= 1e-9 * frobenius(want)


@pytest.mark.parametrize("scale", [1e-8, 1e-12, 1e-14])
@pytest.mark.parametrize("seed", range(6))
def test_invertible_pair_with_a_small_partner(seed, scale):
    # (A + B)^-1 - B^+, the pair's former form for these inputs, cancelled:
    # off by 0.06 at 1e-8 and 4e6 relative at 1e-12, and at 1e-14 seeds 3, 4
    # and 5 passed the margin of A + B and all four Penrose bounds, off by
    # 1e11 to 7e11 relative. The Gram form subtracts nothing
    a, b = graded(seed, 6, 6, 3, 10.0, True, scale)
    assert_is_pinv(completion_pinv_pair(a, b), a)


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-14])
def test_an_invertible_pair_takes_the_gram_form(monkeypatch, scale):
    # R(B*) = N(A) and R(B) = N(A*): one Gram solve of [A; B], no LU inverse
    a, b = graded(0, 6, 6, 3, 10.0, True, scale)
    gram, calls = pinvkit.core._gram_pinv, []

    def recorded(stacked, left):
        calls.append((stacked.shape, left))
        return gram(stacked, left)

    monkeypatch.setattr(pinvkit.sumdecomp, "inverse", None)
    monkeypatch.setattr(pinvkit.core, "_gram_pinv", recorded)
    assert_is_pinv(completion_pinv_pair(a, b), a)
    assert calls == [((12, 6), True)]


def test_the_papers_pair_form_is_a_rank_completion():
    # (A + B)^-1 - B^+ is M^-1 less the dyads of B = U_B Sigma_B V_B*
    a, b = graded(1, 6, 6, 3, 10.0, True, 1.0)
    fb = svd(b, deflate=True)
    ub, vb = fb.cutoff_slices
    x = rank_completion_pinv(a, CompletionData(vb, ub, fb.sigma[: fb.rank]))
    assert_is_pinv(x, a)
    np.testing.assert_allclose(x, inverse(a + b) - pinv(b), rtol=0, atol=1e-9 * frobenius(x))


@pytest.mark.parametrize("case,rank", [("16x16-r8", 8), ("int-8x8-r7", 7)])
def test_rank_deficient_input_past_the_former_pivot_threshold(tmp_path, case, rank):
    # LU meets pivots near 1e-16 on these and goes on, as the pivot threshold
    # is gone; _admitted refuses the rank the kernel claims. normal writes
    # svd's bytes, and rank-completion completes the null spaces of A
    rng = np.random.default_rng(5)
    integer = rng.integers(-3, 4, (8, 7)) @ rng.integers(-3, 4, (7, 8))
    a = gen_random_matrix(2, 16, 16, rank=8) if case == "16x16-r8" else integer.astype(float)
    code, report, x_svd = pinv_command(str(tmp_path), a, "svd")
    assert code == 0 and report["rank"] == rank
    code, report, x = pinv_command(str(tmp_path), a, "normal")
    assert code == 0 and report["rank"] == rank and x == x_svd
    code, report, x = pinv_command(str(tmp_path), a, "rank-completion")
    assert code == 0 and report["rank"] == rank
    np.testing.assert_array_equal(read_x(x), rank_completion_pinv(a, auto_completion(a)))


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("shape,weight", [((6, 6), 1e-12), ((8, 4), 1e-12), ((8, 4), 1e-14)])
def test_completion_with_a_small_weight(shape, weight, partial):
    # M^-1 or pinv(M) less the dyads sum (1/d_k) f_k g_k* cancelled: off by
    # 7e6 relative at 1e-12
    a, _ = graded(3, *shape, 2, 10.0, False, 1.0)
    auto = auto_completion(a)
    keep = 1 if partial else auto.count
    comp = CompletionData(auto.f_basis[:, :keep], auto.g_basis[:, :keep], np.full(keep, weight))
    assert_is_pinv(rank_completion_pinv(a, comp), a)


@pytest.mark.parametrize("weight", [1e-13, 1e-14])
@pytest.mark.parametrize("shape,partial", [((6, 6), False), ((6, 6), True), ((8, 4), True), ((4, 8), True)])
@pytest.mark.parametrize("seed", range(10))
def test_completion_x_maps_the_filled_columns_to_zero(seed, shape, partial, weight):
    # A random rank-2 A, unlike a graded one, gives a cancelled X that passes
    # every Penrose bound (off by 1e11 to 6e14 relative); only _admitted's
    # X G = 0 test on the filled columns G refuses it
    a = gen_random_matrix(seed, *shape, rank=2)
    auto = auto_completion(a)
    keep = 1 if partial else auto.count
    comp = CompletionData(auto.f_basis[:, :keep], auto.g_basis[:, :keep], np.full(keep, weight))
    want = np.linalg.pinv(a, rcond=1e-10)
    assert frobenius(rank_completion_pinv(a, comp) - want) <= 1e-8 * frobenius(want)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_pair_command_with_a_tiny_partner_writes_the_svd_bytes(tmp_path, seed):
    # pinv --method pair exited 0 here with X off by 1e11 to 7e11 relative;
    # the cancelled X passed all four Penrose bounds, which grow with ||X||
    a, b = graded(seed, 6, 6, 3, 10.0, True, 1e-14)
    code, _, x_svd = pinv_command(str(tmp_path), a, "svd")
    assert code == 0
    code, report, x = pinv_command(str(tmp_path), a, "pair", b)
    assert code == 0 and report["rank"] == 3 and x == x_svd


# --------------------------------------------------------------------------
# verify, the float range and the report line


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("size", [1e13, 1e15])
def test_verify_refuses_a_candidate_of_higher_rank(tmp_path, capsys, size):
    # X = A^+ + E with E mapping N(A*) into N(A): ||A||_F ||X||_F exceeds
    # 1/tau, so every Penrose and characterization bound exceeds the
    # residual it tests, and verify passed X with rank 3 against A's 3
    rng = np.random.default_rng(0)
    u, v = random_unitary(rng, 6), random_unitary(rng, 6)
    a = (u[:, :3] * np.array([1.0, 0.5, 0.1])) @ dagger(v[:, :3])
    e = v[:, 3:] @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) @ dagger(u[:, 3:])
    x = pinv(a) + size * e / frobenius(e)
    paths = []
    for name, m in (("a", a), ("x", x)):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(dumps_matrix_json(m))
    code, out, _ = run_cli(capsys, ["verify", "--input", paths[0], "--aux", paths[1]])
    assert code == 2 and json.loads(out)["passed"] is False


@pytest.mark.parametrize("method", ["svd", "normal", "rank-completion"])
def test_a_pseudoinverse_past_the_float_range_is_refused(tmp_path, capsys, method):
    # the residuals printed as NaN after RuntimeWarnings, and the run exited 2;
    # pytest turns any RuntimeWarning into an error here
    src, out = tmp_path / "a.json", tmp_path / "x.json"
    src.write_text(dumps_matrix_json(np.array([[1e-320]], dtype=np.complex128)))
    argv = ["pinv", "--method", method, "--input", str(src), "--output", str(out)]
    code, stdout, err = run_cli(capsys, argv)
    assert code == 3 and stdout == ""
    assert "the pseudoinverse leaves the float range" in err
    assert not out.exists()


def refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_the_report_line_is_strict_json(capsys, monkeypatch):
    # an overflowed circulant spectrum printed the bare tokens Infinity and NaN;
    # circ now refuses such a generator before any route runs, so a check
    # with NaN residuals and infinite bounds stands in for its report
    nan_report = ResidualReport(dict.fromkeys(PENROSE_KEYS, math.nan), dict.fromkeys(PENROSE_KEYS, math.inf))
    monkeypatch.setattr(pinvkit.circulant, "circ_penrose_residuals", lambda gen, xgen, tol: nan_report)
    code, out, _ = run_cli(capsys, ["circ", "--gen", "1,2,3"])
    assert code == 2
    report = json.loads(out, parse_constant=refuse)
    assert report["passed"] is False and report["max_penrose_residual"] is None
