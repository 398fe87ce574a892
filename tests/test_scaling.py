"""Routes that run on A scaled by a power of two hold at extreme scales.

linalg.unit_scale is the one scale: the Jacobi SVD and the full-rank Gram
solves (pinv --method normal, and rank-completion's full non-square
completion) and the LU inverse of rank-completion's full square completion
run on A times it and scale back, which is exact. Its exponent
is clamped, so it stays finite when the largest entry is subnormal. Every
case runs with RuntimeWarnings raised as errors.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from pinvkit.cli import main
from pinvkit.linalg import svd, unit_scale
from pinvkit.matrix import dumps_matrix_json, loads_matrix_json

SUBNORMAL = np.ones((64, 64)) * 1e-310
TALL = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]])


def pinv_cli(tmp_path, capsys, a, method):
    """(exit code, report, X or None) of pinv --method method on a."""
    a_path, out = tmp_path / "a.json", tmp_path / f"x-{method}.json"
    a_path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["pinv", "--method", method, "--input", str(a_path), "--output", str(out)])
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
