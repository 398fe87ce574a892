"""Every checked route returns one shape, factors what it needs itself, and
raises when its Penrose report fails; the zero-sum shift accepts any alpha.
Every public pseudoinverse route returns its X as a numpy array.

A route's checked form gives (X, rank, report). The CLI prints that report,
so a failing one exits 2 with passed false and writes nothing; the public
function raises VerificationError through core._returned instead. A failing
report is made by patching the module's penrose_residuals, so X itself is
the correct one and only the verdict changes.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import pinvkit.core
import pinvkit.graphdist
import pinvkit.sumdecomp
from pinvkit.circulant import (
    block_pattern_pinv,
    circ_penrose_residuals,
    circ_pinv_spectral,
    support_split_pinv,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import main
from pinvkit.core import (
    ResidualReport,
    _gram_pinv,
    gen_random_matrix,
    penrose_residuals,
    pinv,
    pinv_normal_equations,
)
from pinvkit.graphdist import gen_zero_sum_tree, tree_build, tree_pinv, wheel_build, wheel_pinv
from pinvkit.linalg import svd, svd_batch
from pinvkit.matrix import (
    DEFAULT_TOL,
    VerificationError,
    dagger,
    dumps_tree_csv,
    frobenius,
    loads_generator_json,
)
from pinvkit.sumdecomp import (
    completion_pinv_pair,
    fill_fishkind_pinv,
    gen_rank_additive_pair,
    gen_svd_block_family,
    pinv_invertible_projector_eq,
    pinv_via_gram_equation,
    rank_completion_pinv,
)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def failing_penrose(a, x, tol=DEFAULT_TOL) -> ResidualReport:
    """penrose_residuals with penrose2 put at twice its bound plus one."""
    real = penrose_residuals(a, x, tol)
    return ResidualReport(
        {**real.residuals, "penrose2": 2.0 * real.bounds["penrose2"] + 1.0}, real.bounds
    )


def pair_partner(a, rank, rng):
    """B with R(B*) = N(A) for a square A of the given rank."""
    f = svd(a)
    n = a.shape[0]
    left = rng.standard_normal((n, n - rank)) + 1j * rng.standard_normal((n, n - rank))
    return left @ dagger(f.v[:, rank:])


# --------------------------------------------------------------------------
# one contract: the CLI prints a failing report, the library raises


@pytest.mark.parametrize("command", ["tree", "wheel"])
def test_graph_commands_print_a_failing_report_and_write_nothing(
    tmp_path, capsys, monkeypatch, command
):
    if command == "tree":
        src = tmp_path / "tree.csv"
        src.write_text(dumps_tree_csv(gen_zero_sum_tree(5, 12).edges))
        argv, rank = ["tree", "--input", str(src)], 11
    else:
        argv, rank = ["wheel", "--n", "9"], 8
    monkeypatch.setattr(pinvkit.graphdist, "penrose_residuals", failing_penrose)
    out = tmp_path / "x.json"
    code, report = run(capsys, [*argv, "--output", str(out)])
    assert code == 2
    assert report["passed"] is False and report["output_digest"] is None
    assert report["rank"] == rank and report["max_penrose_residual"] > report["residual_bound"]
    assert not out.exists()
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


@pytest.mark.parametrize("rank", [3, 6])
def test_library_routes_raise_on_a_failing_report(monkeypatch, rank):
    # a dense route's kernel X is refused, and so is pinv(A) after it
    a = gen_random_matrix(23, 6, 6, rank=rank)
    routes = [lambda: pinv_normal_equations(a), lambda: rank_completion_pinv(a)]
    if rank == 3:
        b = pair_partner(a, 3, np.random.default_rng(4))
        routes.append(lambda: completion_pinv_pair(a, b))
    for route in routes:
        route()  # passes with the real check
    monkeypatch.setattr(pinvkit.core, "penrose_residuals", failing_penrose)
    for route in routes:
        with pytest.raises(VerificationError, match="failed penrose2"):
            route()
    tree = tree_build(gen_zero_sum_tree(5, 12).edges)
    wheel = wheel_build(9)
    monkeypatch.setattr(pinvkit.graphdist, "penrose_residuals", failing_penrose)
    with pytest.raises(VerificationError, match="tree pseudoinverse failed penrose2"):
        tree_pinv(tree)
    with pytest.raises(VerificationError, match="wheel pseudoinverse failed penrose2"):
        wheel_pinv(wheel)


# --------------------------------------------------------------------------
# factoring once: the routes factor for themselves


def count_factorizations(monkeypatch) -> dict[str, list]:
    """Record the arguments of every svd and svd_batch call the routes make."""
    calls = {"svd": [], "svd_batch": []}

    def counting_svd(m, *args, **kwargs):
        calls["svd"].append(m)
        return svd(m, *args, **kwargs)

    def counting_batch(mats, *args, **kwargs):
        calls["svd_batch"].append(tuple(mats))
        return svd_batch(mats, *args, **kwargs)

    for module in (pinvkit.core, pinvkit.sumdecomp):
        monkeypatch.setattr(module, "svd", counting_svd)
    monkeypatch.setattr(pinvkit.sumdecomp, "svd_batch", counting_batch)
    return calls


@pytest.mark.parametrize("kernel", ["admitted", "refused"])
def test_library_pair_factors_a_and_b_in_one_batch(monkeypatch, kernel):
    # the command's refusal of two shapes before any factorization is
    # test_factor_once.py's test_pair_of_two_shapes_is_refused_before_any_svd
    a = gen_random_matrix(23, 6, 6, rank=3)
    b = pair_partner(a, 3, np.random.default_rng(4))
    if kernel == "admitted":
        want = _gram_pinv(np.concatenate((a, b)), True)[:, :6]
    else:
        # the refused kernel hands over to pinv(A), bit for bit svd's
        monkeypatch.setattr(pinvkit.core, "_gram_pinv", lambda *args: None)
        want = pinv(a)
    calls = count_factorizations(monkeypatch)
    x = completion_pinv_pair(a, b)
    assert calls["svd"] == []
    assert len(calls["svd_batch"]) == 1
    got_a, got_b = calls["svd_batch"][0]
    assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
    assert x.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# zero-sum shift: any nonzero alpha


ALPHAS = [1e-300, 1e-20, 1e-5, 0.5, 2.0, 1e5, 1e20, 1e300]


def zero_sum_generator(scale: float) -> np.ndarray:
    rng = np.random.default_rng(17)
    gen = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    return (gen - gen.mean()) * scale


@pytest.mark.parametrize("gen", [
    *(zero_sum_generator(scale) for scale in (1e-200, 1e-50, 1.0, 1e100)),
    # max |lambda| near the float limit, where n^2 alpha overflows
    np.array([5e307, -5e307, 0.0], dtype=np.complex128),
], ids=["1e-200", "1e-50", "1", "1e100", "5e307"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_zero_sum_shift_takes_any_alpha(gen, alpha):
    x = zero_sum_shift_pinv(gen, alpha=alpha)
    assert circ_penrose_residuals(gen, x).passed
    want = circ_pinv_spectral(gen)
    assert frobenius((x - want)[None, :]) <= 1e-10 * frobenius(want[None, :])


def test_zero_sum_shift_alpha_moves_only_by_powers_of_two():
    gen = zero_sum_generator(1.0)
    ones = np.ones(6, dtype=np.complex128)
    # within 2^4 of the spectrum alpha is used as given
    x = zero_sum_shift_pinv(gen, alpha=0.7)
    assert x.tobytes() == (circ_pinv_spectral(gen + 0.7 * ones) - ones / (36 * 0.7)).tobytes()
    # outside it, alphas that differ by a power of two give the same bytes
    for alpha in (1e-20, 1e20):
        x = zero_sum_shift_pinv(gen, alpha=alpha)
        assert x.tobytes() == zero_sum_shift_pinv(gen, alpha=alpha * 2.0**40).tobytes()


@pytest.mark.parametrize("scale", [1.0, 5e307])
@pytest.mark.parametrize("alpha", [*ALPHAS, 1e308])
def test_zero_sum_command_takes_any_alpha(tmp_path, capsys, scale, alpha):
    out = tmp_path / "x.json"
    code, report = run(capsys, ["circ", "--method", "zero-sum", "--gen", f"{scale!r},{-scale!r},0",
                                f"--alpha={alpha!r}", "--output", str(out)])
    assert code == 0 and report["passed"] is True and report["rank"] == 2
    x = loads_generator_json(out.read_text())
    np.testing.assert_allclose(x, np.array([1 / 3, 0.0, -1 / 3]) / scale, atol=1e-13 / scale)


# --------------------------------------------------------------------------
# every public route returns X as an array


def _dense_square():
    return gen_random_matrix(41, 6, 6, rank=3)


def _pair():
    a = _dense_square()
    return a, pair_partner(a, 3, np.random.default_rng(42))


# route -> (call returning X, X's shape); a circulant route's X is its generator
ROUTES = {
    "circ_pinv_spectral": (lambda: circ_pinv_spectral([2.0, -1.0, 0.0, -1.0]), (4,)),
    "two_term_pinv": (lambda: two_term_pinv(1.0, -1.0, 5), (5,)),
    "zero_sum_shift_pinv": (lambda: zero_sum_shift_pinv([2.0, -1.0, -1.0, 0.0], alpha=1.5), (4,)),
    "block_pattern_pinv": (lambda: block_pattern_pinv(1.0, 2.0, k=1, q=3), (6,)),
    "support_split_pinv": (
        lambda: support_split_pinv([np.ones(3), np.array([1.0, -1.0, 0.0])])[0], (3,)
    ),
    "wheel_pinv": (lambda: wheel_pinv(wheel_build(7)), (7, 7)),
    "tree_pinv": (lambda: tree_pinv(tree_build(gen_zero_sum_tree(3, 6).edges)), (6, 6)),
    "pinv": (lambda: pinv(gen_random_matrix(40, 5, 3)), (3, 5)),
    "pinv_normal_equations": (lambda: pinv_normal_equations(gen_random_matrix(40, 5, 3)), (3, 5)),
    "rank_completion_pinv": (lambda: rank_completion_pinv(_dense_square()), (6, 6)),
    "completion_pinv_pair": (lambda: completion_pinv_pair(*_pair()), (6, 6)),
    "fill_fishkind_pinv": (lambda: fill_fishkind_pinv(*gen_rank_additive_pair(5, 6)), (6, 6)),
    "pinv_via_gram_equation": (
        lambda: pinv_via_gram_equation(gen_svd_block_family(5, 5, 5, 2, ranks=(3, 2)), 0), (5, 5)
    ),
    "pinv_invertible_projector_eq": (
        lambda: pinv_invertible_projector_eq(gen_svd_block_family(9, 6, 6, 2, ranks=(4, 2)), 0),
        (6, 6),
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_returns_x_as_an_array(route):
    call, shape = ROUTES[route]
    x = call()
    assert type(x) is np.ndarray
    assert x.shape == shape
