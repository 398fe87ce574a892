"""Every route holds at any scale, because its kernels scale themselves.

linalg.unit_scale is the one scale, and three dense kernels apply it: the
Jacobi SVD (svd, svd_batch), the LU inverse (linalg.inverse) and the
full-rank Gram solve (core._gram_pinv). Each runs on its input times that
power of two and scales back, which is exact, so a route that hands its
matrices to them as they are returns 2^-k X for 2^k A, bit for bit, with
the same rank and verdict. The routes keep no scaling of their own, apart
from tests homogeneous in each operand apart (the pair completion's range
tests, the orthogonality certificate), which scale each operand by its own
unit_scale. Its exponent is clamped, so it stays finite when the largest
entry is subnormal. Every case runs with RuntimeWarnings raised as errors.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinvkit.sumdecomp
from pinvkit.cli import main
from pinvkit.core import (
    _gram_pinv,
    full_rank_normal_pinv,
    gen_random_matrix,
    penrose_residuals,
    pinv,
    pinv_normal_equations,
)
from pinvkit.linalg import inverse, svd, unit_scale
from pinvkit.matrix import dagger, dumps_matrix_json, loads_matrix_json
from pinvkit.sumdecomp import (
    OperatorFamily,
    completion_pinv_pair,
    fill_fishkind_pinv,
    full_rank_completion_pinv,
    gen_rank_additive_pair,
    gen_svd_block_family,
    pinv_invertible_projector_eq,
    pinv_sum,
    pinv_via_gram_equation,
    rank_completion_pinv,
)

SUBNORMAL = np.ones((64, 64)) * 1e-310
TALL = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]])


def pinv_cli(tmp_path, capsys, a, method, aux=None):
    """(exit code, report, X or None) of pinv --method method on a, with
    aux as the --aux partner if given."""
    a_path, out = tmp_path / "a.json", tmp_path / f"x-{method}.json"
    a_path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    argv = ["pinv", "--method", method, "--input", str(a_path), "--output", str(out)]
    if aux is not None:
        aux_path = tmp_path / "b.json"
        aux_path.write_text(dumps_matrix_json(np.asarray(aux, dtype=np.complex128)))
        argv += ["--aux", str(aux_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report, loads_matrix_json(out.read_text()) if code == 0 else None


def test_unit_scale_is_finite_for_subnormal_entries():
    assert unit_scale(SUBNORMAL) == 2.0**1000
    assert unit_scale(np.zeros((2, 2))) == 1.0
    assert unit_scale(np.array([[0.75, -3.0]])) == 0.25


def test_svd_keeps_the_rank_of_a_subnormal_matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = svd(SUBNORMAL)
        g = svd(SUBNORMAL, deflate=True)
    assert f.rank == g.rank == 1
    # sigma_1 = 64 * 1e-310, with the subnormal's own reduced precision
    assert f.sigma[0] == pytest.approx(64 * 1e-310, rel=1e-12)


@pytest.mark.parametrize("method", ["svd", "normal"])
def test_pinv_of_a_subnormal_matrix(tmp_path, capsys, method):
    code, report, x = pinv_cli(tmp_path, capsys, SUBNORMAL, method)
    assert code == 0 and report["passed"] and report["rank"] == 1
    # A = c e e^t gives A^+ = e e^t / (64^2 c), about 2.4e306 in each entry
    want = 1.0 / (64**2 * SUBNORMAL[0, 0])
    assert np.all(np.isfinite(x)) and np.max(np.abs(x - want)) <= 1e-12 * want


def test_square_rank_completion_of_a_subnormal_matrix(tmp_path, capsys):
    # the completed matrix is inverted at unit scale: unscaled, the LU's
    # pivot test and solve ran at subnormal scale and overflowed
    code, report, x = pinv_cli(tmp_path, capsys, SUBNORMAL, "rank-completion")
    assert code == 0 and report["passed"] and report["rank"] == 1
    code, _, want = pinv_cli(tmp_path, capsys, SUBNORMAL, "svd")
    assert code == 0
    # entries near 2.4e306: a 2-norm would overflow, so compare by max norm
    peak = np.max(np.abs(want))
    assert np.all(np.isfinite(x)) and np.max(np.abs(x - want)) <= 1e-12 * peak


@pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["1e200", "1e-170"])
@pytest.mark.parametrize("a", [TALL, TALL.T], ids=["tall", "wide"])
def test_rank_completion_gram_solve_holds_at_extreme_scales(tmp_path, capsys, a, scale):
    code, report, x = pinv_cli(tmp_path, capsys, a * scale, "rank-completion")
    assert code == 0 and report["passed"] and report["rank"] == 2
    code, _, want = pinv_cli(tmp_path, capsys, a * scale, "svd")
    assert code == 0
    # both are of order 1 / scale; compare them brought back to order 1
    assert np.linalg.norm((x - want) * scale) <= 1e-14 * np.linalg.norm(want * scale)


# --------------------------------------------------------------------------
# scale equivariance of every matrix route


def pair_partner(a, rank, invertible, seed):
    """B with R(B*) = N(A); with invertible, also R(B) = N(A*), so A + B is
    invertible; otherwise B picks the (A*A + B*B)^-1 A* form."""
    rng = np.random.default_rng(seed)
    f, n = svd(a), a.shape[0]
    shape = (n - rank if invertible else n, n - rank)
    left = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if invertible:
        left = f.u[:, rank:] @ left
    return left @ dagger(f.v[:, rank:])


def family_route(route, fam, *args):
    """route on an OperatorFamily of the given members, and the matrix its
    result is a pseudoinverse of (member args[0], or the sum)."""
    def run(*members):
        x = route(OperatorFamily(members), *args)
        return x[0] if isinstance(x, tuple) else x

    def target(*members):
        return members[args[0]] if args else np.sum(members, axis=0)

    return run, target, fam.members


def first(*mats):
    return mats[0]


def route_cases() -> dict:
    """name -> (route, target, inputs): route(*inputs) is X, a pseudoinverse
    of target(*inputs)."""
    deficient = gen_random_matrix(7, 6, 6, rank=3)
    tall = gen_random_matrix(9, 7, 4, rank=2)
    pair_a = gen_random_matrix(23, 6, 6, rank=3)
    invertible_b, gram_b = (pair_partner(pair_a, 3, invertible, 4) for invertible in (True, False))
    wide = gen_svd_block_family(seed=5, rows=6, cols=4, k=2, ranks=(2, 2))
    return {
        "pinv": (pinv, first, (gen_random_matrix(5, 6, 4, rank=3),)),
        "normal-full": (pinv_normal_equations, first, (gen_random_matrix(6, 7, 5),)),
        "normal-deficient": (pinv_normal_equations, first, (deficient,)),
        "full-rank-normal": (full_rank_normal_pinv, first, (gen_random_matrix(8, 5, 7),)),
        "rank-completion-square": (rank_completion_pinv, first, (deficient,)),
        "rank-completion-tall": (rank_completion_pinv, first, (tall,)),
        "full-rank-completion": (full_rank_completion_pinv, first, (gen_random_matrix(10, 5, 5),)),
        "pair-invertible": (completion_pinv_pair, first, (pair_a, invertible_b)),
        "pair-gram": (completion_pinv_pair, first, (pair_a, gram_b)),
        # the left Gram sum is positive definite (the Cholesky form), the
        # right one is not (the SVD fallback)
        "gram-equation-left": family_route(pinv_via_gram_equation, wide, 1, "left"),
        "gram-equation-right": family_route(pinv_via_gram_equation, wide, 1, "right"),
        "projector-equation": family_route(
            pinv_invertible_projector_eq, gen_svd_block_family(9, 6, 6, 2, (4, 2)), 0
        ),
        "pinv-sum": family_route(pinv_sum, gen_svd_block_family(11, 7, 7, 2, (3, 2))),
        "fill-fishkind": (fill_fishkind_pinv, np.add, gen_rank_additive_pair(3, 6)),
    }


ROUTES = route_cases()


def scaled_run(name: str, k: int):
    """(X, rank of X, Penrose verdict) of the route on its inputs times 2^k."""
    route, target, inputs = ROUTES[name]
    mats = [m * 2.0**k for m in inputs]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = route(*mats)
        return x, svd(x, deflate=True).rank, penrose_residuals(target(*mats), x).passed


@pytest.mark.parametrize("name", list(ROUTES))
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(k=st.integers(-900, 900))
@example(k=900)
@example(k=-900)
def test_routes_are_scale_equivariant(name, k):
    x0, rank0, passed0 = scaled_run(name, 0)
    x, rank, passed = scaled_run(name, k)
    assert passed0 and rank0 > 0
    assert x.shape == x0.shape and np.array_equal(x, x0 * 2.0**-k)
    assert rank == rank0 and passed == passed0


TALL_PAIR = (
    np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
)
SQUARE_PAIR = (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0, -1.0], [-1.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["1e200", "1e-170"])
@pytest.mark.parametrize("pair", [TALL_PAIR, SQUARE_PAIR], ids=["tall", "square"])
def test_pair_method_holds_at_extreme_scales(tmp_path, capsys, pair, scale):
    # unscaled, A*A + B*B and the range products left the float range: the
    # tall pair exited 3, and the square pair passed its range test as inf <= inf
    a, b = (m * scale for m in pair)
    code, report, x = pinv_cli(tmp_path, capsys, a, "pair", aux=b)
    assert code == 0 and report["passed"] and report["rank"] == 1
    code, _, want = pinv_cli(tmp_path, capsys, a, "svd")
    assert code == 0
    assert np.linalg.norm((x - want) * scale) <= 1e-14 * np.linalg.norm(want * scale)


def test_gram_pair_keeps_its_form_at_a_tiny_scale(monkeypatch):
    # at 2^-900 the unscaled range product A* B underflowed to 0, so the pair
    # passed for the invertible form, whose check then failed
    a, b = ROUTES["pair-gram"][2]
    scale = 2.0**-900
    calls = {"inverse": 0, "gram": []}

    def no_inverse(m):
        calls["inverse"] += 1
        return inverse(m)

    def gram(m, left):
        calls["gram"].append((m.copy(), left))
        return _gram_pinv(m, left)

    monkeypatch.setattr(pinvkit.sumdecomp, "inverse", no_inverse)
    monkeypatch.setattr(pinvkit.sumdecomp, "_gram_pinv", gram)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = completion_pinv_pair(a * scale, b * scale)
    assert calls["inverse"] == 0 and len(calls["gram"]) == 1
    stacked, left = calls["gram"][0]
    assert left and np.array_equal(stacked, np.concatenate((a, b)) * scale)
    assert penrose_residuals(a * scale, x).passed
    assert np.array_equal(x, completion_pinv_pair(a, b) / scale)


@pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["1e200", "1e-170"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_gram_equation_holds_at_extreme_scales(side, scale):
    # unscaled, the Gram sum overflowed at 1e200 (the fallback raised) and
    # underflowed to 0 at 1e-170, which gave X = 0
    members = (np.diag([1.0, 0.0]) * scale, np.diag([0.0, 2.0]) * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = pinv_via_gram_equation(OperatorFamily(members), 0, side=side)
        assert penrose_residuals(members[0], x).passed
    assert np.allclose(x * scale, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)
