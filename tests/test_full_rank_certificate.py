"""The full-rank certificate and the commands that rely on it.

full_rank_certified(a, x) proves from an approximate inverse X that the SVD
rule gives A rank min(m, n): r = ||P - I||_F + gamma ||X||_F ||A||_F < 1,
with P = XA or AX and gamma the rounding bound of the product, and
(1 - r) / ||X||_F above tol.rank_cutoff(||A||_F, m, n). pinv --method normal
and rank-completion return their full-rank form when core._admitted keeps
it, and verify skips every factorization when X certifies a square A and A
certifies X. numpy.linalg is the oracle for rank and for the inverses here.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvkit.core
from pinvkit.cli import main
from pinvkit.core import (
    ResidualReport,
    _admitted,
    _gram_pinv,
    _normal_checked,
    characterization_residuals,
    full_rank_certified,
    inverse_certified,
    penrose_residuals,
    pinv,
)
from pinvkit.linalg import inverse, svd
from pinvkit.matrix import DEFAULT_TOL, UNIT_ROUNDOFF, dumps_matrix_json, loads_matrix_json
from pinvkit.sumdecomp import _rank_completion_checked, auto_completion, rank_completion_pinv

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def frame(seed, m, n, kappa, scale):
    """scale * U diag(sigma) V* with numpy QR factors and sigma log-spaced
    from 1 down to 1/kappa."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    sigma = np.logspace(0.0, -math.log10(kappa), k)

    def columns(rows):
        g = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
        return np.linalg.qr(g)[0]

    return scale * ((columns(m) * sigma) @ columns(n).conj().T)


def oracle_rank(a, tol=DEFAULT_TOL):
    sigma = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sigma > tol.rank_cutoff(sigma[0], *a.shape)))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(path, a) -> str:
    path.write_text(dumps_matrix_json(np.asarray(a, dtype=np.complex128)))
    return str(path)


def verify(capsys, tmp_path, a, x):
    a_path, x_path = write(tmp_path / "a.json", a), write(tmp_path / "x.json", x)
    return run(capsys, ["verify", "--input", a_path, "--aux", x_path])


# --------------------------------------------------------------------------
# the certificate against the oracle


@RULE
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 8),
    st.floats(0.0, 12.0),
    st.floats(-150.0, 150.0),
)
def test_certified_rank_is_the_svd_rank_and_x_is_the_factored_x(seed, m, n, log_kappa, log_scale):
    a = frame(seed, m, n, 10.0**log_kappa, 10.0**log_scale)
    k = min(m, n)
    f = svd(a, DEFAULT_TOL, deflate=True)
    normal = _normal_checked(a, DEFAULT_TOL)
    completion = _rank_completion_checked(a, None, DEFAULT_TOL)
    gram = _gram_pinv(a, m >= n)
    kept = _admitted(a, gram, DEFAULT_TOL, (a, gram)) is not None
    routes = (
        # the Gram X when _admitted keeps it, else pinv from svd(a)
        (normal, lambda: gram if kept else pinv(a, DEFAULT_TOL, f)),
        # the completion svd(a) yields, which takes the dyad form past the kernel
        (completion, lambda: rank_completion_pinv(a, auto_completion(a, DEFAULT_TOL, f))),
    )
    for (x, rank, _), factored in routes:
        assert rank == f.rank == oracle_rank(a) == k
        assert x.tobytes() == factored().tobytes()
    if full_rank_certified(a, np.linalg.pinv(a)):
        assert f.rank == oracle_rank(a) == k
    if log_kappa <= 4.0:
        # the Gram form runs on A scaled by a power of two, so it holds at any scale
        assert normal[0].tobytes() == _gram_pinv(a, m >= n).tobytes()
        if m == n:
            assert completion[0].tobytes() == inverse(a).tobytes()


def test_rounding_of_the_product_is_part_of_the_bound():
    # XA = I exactly, and sigma_2 = 2^-51 clears the SVD cutoff 2^-52; but the
    # rounding bound of the product is 0.5 here, so the margin 2^-52 does not
    # clear the cutoff and the certificate refuses
    a = np.diag([1.0, 2.0**-51]).astype(np.complex128)
    x = np.diag([1.0, 2.0**51]).astype(np.complex128)
    assert np.array_equal(x @ a, np.eye(2))
    assert svd(a).rank == 2
    assert not full_rank_certified(a, x)
    gamma = 2 * UNIT_ROUNDOFF / (1 - 2 * UNIT_ROUNDOFF)
    assert gamma * np.linalg.norm(x) * np.linalg.norm(a) == pytest.approx(0.5)


@pytest.mark.parametrize("shape", [(5, 5), (7, 3), (3, 7)])
def test_a_zero_or_wrong_candidate_certifies_nothing(shape):
    a = frame(3, *shape, 10.0, 1.0)
    assert not full_rank_certified(a, np.zeros(shape[::-1], dtype=np.complex128))
    assert not full_rank_certified(a, 1e6 * np.linalg.pinv(a))
    assert not full_rank_certified(a, np.full(shape[::-1], np.nan, dtype=np.complex128))
    assert full_rank_certified(a, np.linalg.pinv(a))


def test_rank_deficient_input_is_never_certified():
    for rows, cols, rank in ((6, 6, 5), (8, 3, 2), (3, 8, 1)):
        a = frame(11, rows, cols, 10.0, 1.0)
        u, s, vh = np.linalg.svd(a)
        s[rank:] = 0.0
        a = (u[:, : s.size] * s) @ vh[: s.size]
        assert _normal_checked(a, DEFAULT_TOL)[1] == rank
        assert _rank_completion_checked(a, None, DEFAULT_TOL)[1] == rank
        assert not full_rank_certified(a, np.linalg.pinv(a))


# --------------------------------------------------------------------------
# verify with adversarial candidates: the certified path gives the verdict
# and rank of the factored one


def factored_verdict(a, x, tol=DEFAULT_TOL):
    f = svd(a, tol, deflate=True)
    passed = penrose_residuals(a, x, tol).passed
    passed = passed and characterization_residuals(a, x, tol, f).passed
    return (0 if passed else 2), passed, f.rank


def candidates(a):
    inv = np.linalg.inv(a)
    spurious = inv.copy()
    spurious[0, -1] += 1.0
    return {
        "exact": inv,
        "plus-1e-6": (1 + 1e-6) * inv,
        "minus-1e-6": (1 - 1e-6) * inv,
        "spurious-entry": spurious,
        "zero": np.zeros_like(inv),
        "times-1e6": 1e6 * inv,
        "half": 0.5 * inv,
    }


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize(
    "name", ["exact", "plus-1e-6", "minus-1e-6", "spurious-entry", "zero", "times-1e6", "half"]
)
def test_verify_keeps_the_factored_verdict_on_adversarial_candidates(tmp_path, capsys, n, name):
    a = frame(5, n, n, 10.0, 1.0)
    x = candidates(a)[name]
    code, report = verify(capsys, tmp_path, a, x)
    assert (code, report["passed"], report["rank"]) == factored_verdict(a, x)
    if name == "half" and n == 2:
        # ||0.5 I - I||_F = 0.71 < 1: certified, yet every system fails
        assert inverse_certified(a, x) and not report["passed"]


@pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
def test_verify_factors_a_full_rank_non_square_input(tmp_path, capsys, shape):
    # XA = I (tall) or AX = I (wide) certifies the rank, but P_R(A) or
    # P_R(A*) is a proper projector, never I
    a = frame(7, *shape, 10.0, 1.0)
    x = np.linalg.pinv(a)
    assert not inverse_certified(a, x)
    code, report = verify(capsys, tmp_path, a, x)
    assert code == 0 and report["passed"] and report["rank"] == min(shape)


# --------------------------------------------------------------------------
# extreme scales


SQUARE = np.array([[3.0, 1.0], [0.0, 2.0]])
SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])
TALL = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "a",
    [
        SQUARE * 1e200,
        SQUARE * 1e-170,
        np.diag([1e-300, 2e-300]),
        SINGULAR * 1e200,
        SINGULAR * 1e-300,
        TALL * 1e200,
        TALL.T * 1e-170,
    ],
    ids=["1e200", "1e-170", "diag-1e-300", "singular-1e200", "singular-1e-300", "tall", "wide"],
)
def test_normal_method_holds_at_extreme_scales(tmp_path, capsys, a):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["pinv", "--method", "normal", "--input", write(tmp_path / "a.json", a)]
        code, report = run(capsys, [*argv, "--output", str(out)])
    assert code == 0 and report["passed"] and report["rank"] == oracle_rank(a)
    want = np.linalg.pinv(a)
    top = np.abs(want).max()
    got = loads_matrix_json(out.read_text())
    assert np.linalg.norm((got - want) / top) <= 1e-12 * np.linalg.norm(want / top)


@pytest.mark.parametrize(
    "a",
    [SQUARE * 1e200, SQUARE * 1e-170, SQUARE * 1e-300, SINGULAR * 1e200],
    ids=["1e200", "1e-170", "1e-300", "singular-1e200"],
)
def test_verify_accepts_the_exact_pinv_at_extreme_scales(tmp_path, capsys, a):
    x = np.linalg.pinv(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = verify(capsys, tmp_path, a, x)
    assert code == 0 and report["passed"] and report["rank"] == oracle_rank(a)
    assert all(math.isfinite(value) for value in report["extras"]["residuals"].values())


def test_a_nan_residual_fails_its_system_in_any_position(monkeypatch):
    a = frame(2, 4, 4, 10.0, 1.0)
    x = np.linalg.inv(a)
    f = svd(a, DEFAULT_TOL, deflate=True)
    frobenius = pinvkit.core.frobenius
    calls = []

    def counting(m):
        calls.append(None)
        return frobenius(m)

    monkeypatch.setattr(pinvkit.core, "frobenius", counting)
    assert characterization_residuals(a, x, DEFAULT_TOL, f).passed
    total = len(calls)
    # two calls are the norms of A and X; every other one is the residual of
    # one equation, system by system
    for target in range(total):
        seen = []

        def poisoned(m, target=target, seen=seen):
            seen.append(None)
            return math.nan if len(seen) - 1 == target else frobenius(m)

        monkeypatch.setattr(pinvkit.core, "frobenius", poisoned)
        assert not characterization_residuals(a, x, DEFAULT_TOL, f).passed, target


@pytest.mark.parametrize("position", range(3))
def test_the_worst_entry_is_the_non_finite_one(position):
    names = ["p", "q", "r"]
    residuals = dict.fromkeys(names, 1e-15)
    residuals[names[position]] = math.nan
    report = ResidualReport(residuals, dict.fromkeys(names, 1e-12))
    assert report.worst[0] == names[position]
    assert not report.passed
