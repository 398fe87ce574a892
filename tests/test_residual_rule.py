"""Property tests for the one residual rule.

Every Penrose residual is held to tau times the norms its equation is built
from, with k = ||A||_F ||X||_F: k ||A|| for AXA - A, k ||X|| for XAX - X and k
for the symmetry of AX and XA. AXA - A and XAX - X also allow what the rank
rule drops, rho ||A||_F and rho ||X||_F with rho = sqrt(min(m, n)) rank
cutoffs of 1; a candidate whose k exceeds what the rank rule allows gets
bound 0. numpy.linalg is the oracle here: the correct X is
built from factors that numpy.linalg.qr or numpy.linalg.svd produced.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvkit import DEFAULT_TOL, Tolerance, penrose_residuals, pinv
from pinvkit.cli import main
from pinvkit.matrix import dumps_matrix_json

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=40)
TAU = DEFAULT_TOL.residual_rel
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 12)


def unitary_columns(rng, rows, cols):
    shape = (rows, cols)
    return np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]


def frame(seed, m, n, sigma):
    """A = U diag(sigma) V* and its pseudoinverse V diag(1/sigma) U*, both
    formed from the same numpy QR factors, plus those factors."""
    rng = np.random.default_rng(seed)
    sigma = np.asarray(sigma, dtype=float)
    u = unitary_columns(rng, m, sigma.size)
    v = unitary_columns(rng, n, sigma.size)
    return (u * sigma) @ v.conj().T, (v / sigma) @ u.conj().T, u, v


def log_spaced(r, kappa):
    return np.logspace(0.0, -math.log10(kappa), r)


def passes(a, x, tol=DEFAULT_TOL):
    return penrose_residuals(a, x, tol).passed


@RULE
@given(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4))
def test_bound_is_the_product_of_norms_at_any_scale(log_norms):
    # a plain running product would overflow or underflow partway for
    # norms like (1e300, 1e300, 1e-300)
    norms = [10.0**e for e in log_norms]
    exact = Fraction(TAU) * math.prod(Fraction(norm) for norm in norms)
    expected = float(exact) if exact < sys.float_info.max else sys.float_info.max
    assert DEFAULT_TOL.bound(*norms) == pytest.approx(expected, rel=1e-12, abs=1e-300)


# --------------------------------------------------------------------------
# correct pseudoinverses pass


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(0.0, 12.0))
def test_correct_x_passes_up_to_kappa_1e12(seed, m, n, log_kappa):
    a, x, _, _ = frame(seed, m, n, log_spaced(min(m, n), 10.0**log_kappa))
    assert passes(a, x)


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(-150.0, 150.0))
def test_correct_x_passes_at_any_scale(seed, m, n, log_scale):
    a, x, _, _ = frame(seed, m, n, log_spaced(min(m, n), 1e3))
    scale = 10.0**log_scale
    assert passes(a * scale, x / scale)


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(-14.0, -8.0), st.integers(-500, 500))
def test_verdict_is_invariant_under_exact_scaling(seed, m, n, log_delta, exponent):
    # a power of two scales A, X and every residual and bound exactly; the
    # relative error delta straddles the bound, so both verdicts occur
    a, x, _, _ = frame(seed, m, n, log_spaced(min(m, n), 1e3))
    x = x * (1.0 + 10.0**log_delta)
    scale = 2.0**exponent
    assert passes(a * scale, x / scale) == passes(a, x)


@RULE
@given(SEEDS, st.integers(2, 10), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_graded_matrices_pass(seed, n, rows_decades, cols_decades):
    # Demmel-Veselic grading: A = D1 B D2 with B well conditioned
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d1 = np.logspace(0.0, -rows_decades, n)
    d2 = np.logspace(0.0, -cols_decades, n)
    a = d1[:, None] * b * d2
    u, s, vh = np.linalg.svd(a)
    assert passes(a, (vh.conj().T / s) @ u.conj().T)
    assert passes(a, pinv(a))


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(-12.0, -6.0))
def test_clustered_singular_values_pass(seed, m, n, log_spread):
    r = min(m, n)
    rng = np.random.default_rng(seed)
    a, x, _, _ = frame(seed, m, n, 1.0 + 10.0**log_spread * rng.standard_normal(r))
    assert passes(a, x)


@RULE
@given(SEEDS, st.integers(2, 12), st.integers(2, 12), st.floats(2.0, 1e3))
def test_singular_values_near_the_cutoff_pass(seed, m, n, above):
    # the smallest kept singular value sits just above the rank cutoff
    r = min(m, n)
    sigma = np.ones(r)
    sigma[-1] = above * DEFAULT_TOL.rank_cutoff(1.0, m, n)
    a, x, _, _ = frame(seed, m, n, sigma)
    assert passes(a, x)


@RULE
@given(SEEDS, st.integers(1, 40), st.booleans())
def test_row_and_column_vectors_pass(seed, length, row):
    rng = np.random.default_rng(seed)
    shape = (1, length) if row else (length, 1)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert passes(a, np.linalg.pinv(a))
    assert passes(a, pinv(a))


# --------------------------------------------------------------------------
# wrong candidates fail


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(-300.0, 300.0))
def test_zero_is_rejected_for_nonzero_a_at_any_scale(seed, m, n, log_scale):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * 10.0**log_scale
    assert not passes(a, np.zeros((n, m), dtype=complex))


def well_conditioned(seed, m, n, log_kappa):
    return frame(seed, m, n, log_spaced(min(m, n), 10.0**log_kappa))


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(0.0, 3.0), st.sampled_from([1e-6, -1e-6]))
def test_scaled_x_is_rejected(seed, m, n, log_kappa, delta):
    a, x, _, _ = well_conditioned(seed, m, n, log_kappa)
    assert not passes(a, (1.0 + delta) * x)


@RULE
@given(SEEDS, SIZES, SIZES, st.floats(0.0, 3.0), st.data())
def test_spurious_entry_is_rejected(seed, m, n, log_kappa, data):
    a, x, _, _ = well_conditioned(seed, m, n, log_kappa)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, m - 1))
    bad = x.copy()
    bad[i, j] += np.max(np.abs(x))
    assert not passes(a, bad)


@RULE
@given(SEEDS, st.integers(2, 12), st.integers(2, 12), st.floats(0.0, 3.0))
def test_rank_r_minus_1_is_rejected(seed, m, n, log_kappa):
    r = min(m, n)
    sigma = log_spaced(r, 10.0**log_kappa)
    a, _, u, v = frame(seed, m, n, sigma)
    truncated = (v[:, : r - 1] / sigma[: r - 1]) @ u[:, : r - 1].conj().T
    assert not passes(a, truncated)


@RULE
@given(SEEDS, st.integers(2, 12), st.integers(2, 12), st.floats(0.0, 100.0))
def test_inflating_x_cannot_loosen_the_check(seed, m, n, log_size):
    # Z maps N(A*) into N(A), so X = A^+ + Z leaves AXA - A, AX and XA
    # untouched, and XAX - X = -Z grows only like ||Z||, while k ||X|| grows
    # like ||Z||^2. Only the rank rule's cap on k keeps such an X out.
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, min(m, n)))
    u, v = unitary_columns(rng, m, m), unitary_columns(rng, n, n)
    sigma = log_spaced(r, 10.0)
    a = (u[:, :r] * sigma) @ v[:, :r].conj().T
    x = (v[:, :r] / sigma) @ u[:, :r].conj().T
    w = rng.standard_normal((n - r, m - r))
    z = v[:, r:] @ w @ u[:, r:].conj().T * (10.0**log_size / np.linalg.norm(w))
    assert not passes(a, x + z)


# --------------------------------------------------------------------------
# the wrong-rank boundary against the rank rule


def wrong_rank_boundary(seed, n, tol):
    """The smallest singular value s at which the rank n-1 candidate that
    drops s starts to fail, for A = U diag(1, ..., 1, s) V*, by bisection
    on log10(s)."""
    low, high = -20.0, 0.0  # passes at 1e-20, fails at 1
    for _ in range(50):
        mid = (low + high) / 2.0
        sigma = np.ones(n)
        sigma[-1] = 10.0**mid
        a, _, u, v = frame(seed, n, n, sigma)
        dropped = v[:, :-1] @ u[:, :-1].conj().T
        low, high = (mid, high) if passes(a, dropped, tol) else (low, mid)
    return 10.0**high


@pytest.mark.parametrize("rank_rel", [DEFAULT_TOL.rank_rel, 1e-14])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(SEEDS, st.integers(2, 12))
def test_wrong_rank_boundary_is_a_stated_factor_above_the_rank_rule(rank_rel, seed, n):
    # Dropping s leaves AXA - A = -s u_n v_n*, against the bound
    # tau ||A||_F^2 ||X||_F + rho ||A||_F, with rho = sqrt(n) rank_cutoff(1),
    # ||A||_F about sqrt(n - 1) and ||X||_F = sqrt(n - 1). So the candidate
    # passes exactly while s stays below about tau (n - 1)^1.5 + rho sqrt(n - 1):
    # a factor between 1 and (tau / rank_rel) sqrt(n) + n above the rank
    # cutoff rank_rel n, below which the rank rule drops s as well. The
    # bisection finds it to within the residual's own rounding, about
    # eps n, which is under 1e-3 of it; at rank_rel 1e-14 the rho term is
    # 3-4% of the boundary, so the check tells the two rules apart.
    tol = Tolerance(rank_rel=rank_rel)
    cutoff = tol.rank_cutoff(1.0, n, n)
    expected = TAU * (n - 1) ** 1.5 + math.sqrt(n) * tol.rank_cutoff(math.sqrt(n - 1), n, n)
    boundary = wrong_rank_boundary(seed, n, tol)
    assert boundary == pytest.approx(expected, rel=1e-3, abs=0.0)
    assert cutoff < boundary <= ((TAU / rank_rel) * math.sqrt(n) + n) * cutoff


# --------------------------------------------------------------------------
# the command line on the same inputs


def cli(tmp_path, capsys, argv, **matrices):
    for name, value in matrices.items():
        (tmp_path / f"{name}.json").write_text(dumps_matrix_json(np.asarray(value, complex)))
    code = main([str(tmp_path / f"{arg}.json") if arg in matrices else arg for arg in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
def test_pinv_command_accepts_log_spaced_32x32(tmp_path, capsys, kappa):
    a, _, _, _ = frame(32, 32, 32, log_spaced(32, kappa))
    code, report = cli(tmp_path, capsys, ["pinv", "--input", "a"], a=a)
    assert code == 0 and report["passed"] and report["rank"] == 32


def test_pinv_command_accepts_a_tiny_matrix(tmp_path, capsys):
    a = np.array([[3.0, 1.0], [0.0, 2.0]]) * 1e-170
    code, report = cli(tmp_path, capsys, ["pinv", "--input", "a"], a=a)
    assert code == 0 and report["residual_bound"] > 0


def test_verify_command_rejects_zero_for_a_tiny_matrix(tmp_path, capsys):
    a = np.diag([1e-10, 2e-10])
    argv = ["verify", "--input", "a", "--aux", "x"]
    code, _ = cli(tmp_path, capsys, argv, a=a, x=np.zeros((2, 2)))
    assert code == 2
    assert not passes(a, np.zeros((2, 2)))


@pytest.mark.parametrize("dropped", [1e-11, 1e-9])
@pytest.mark.parametrize("method", ["svd", "rank-completion"])
def test_coarse_rank_cutoff_is_honoured_by_every_route(tmp_path, capsys, method, dropped):
    # --tol-rank 1e-10 drops the singular value `dropped` (the cutoff is
    # 1.8e-9); the completion basis the route builds for it must pass the
    # route's own null-space gate, and the Penrose check must pass even where
    # `dropped` exceeds tau k ||A||: AXA - A keeps `dropped`, and the
    # completion's X keeps about dropped / 9 in the dropped directions
    a, _, _, _ = frame(3, 6, 6, [3.0, 2.0, 1.0, 0.5, dropped])
    argv = ["pinv", "--input", "a", "--method", method, "--tol-rank", "1e-10"]
    code, report = cli(tmp_path, capsys, argv, a=a)
    assert code == 0 and report["rank"] == 4
