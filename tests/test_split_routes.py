"""Every split route decides rank by the whole input's rule and checks the whole.

A route that splits its input into parts and inverts each part must cut
every part at the rank cutoff of the whole input, as core.pinv does: the
sum theorem's pinv_sum, support_split_pinv on circulant members, both
branches of zero_sum_shift_pinv and fill_fishkind_pinv. The property
places one part's singular value, or eigenvalue magnitude, at 2^k times the
whole input's cutoff, for k from -8 to 8. Each route either refuses (PreconditionError, or
VerificationError when the whole's Penrose check fails the X it formed), or
returns an X within C u kappa of pinv(materialized), at the rank that
svd(materialized, deflate=True) gives, with kappa = sigma_1 / sigma_rank.

Within a factor 2 of the cutoff (|k| <= 1) rounding of order u sigma_1, in
forming the input and, on the shifted zero-sum branch, in its second
transform, decides on which side the part falls, for the route and the
oracle alike. There X may have the rank on either side of the part, and must
match the oracle's pseudoinverse truncated at that rank.

C = 64 is about 4 times the worst ratio measured over 300 draws per route
and k, half of them real for the circulant routes: 7.7 for pinv_sum, 9.4
for fill_fishkind_pinv, 8.7 for support_split_pinv, 8.1 for the mean split
and 15.9 for the shifted branch. Of those 5100 draws per route,
fill_fishkind_pinv refuses 2286, by its tie and rank-additivity rules; the
shifted branch 1053, where n ALPHA = 14 TOP puts the small eigenvalue
within its second transform's rounding (k from 0 to 3); and pinv_sum 1371,
by VerificationError: a member whose sigma_1 is near 1 fixes its singular
vectors for a sigma near the cutoff only to u sigma_1(A_k) / sigma, and they
leak into the other member's range, which the sum's check sees.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvkit.sumdecomp
from pinvkit.circulant import (
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_pinv_spectral,
    generator_from_spectrum,
    support_split_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import main
from pinvkit.core import penrose_residuals, pinv
from pinvkit.linalg import random_unitary, svd
from pinvkit.matrix import (
    DEFAULT_TOL,
    UNIT_ROUNDOFF,
    PreconditionError,
    VerificationError,
    dagger,
    frobenius,
)
from pinvkit.sumdecomp import OperatorFamily, fill_fishkind_pinv, gen_rank_additive_pair, pinv_sum

C = 64.0
ALPHA = 3.5  # n alpha = 14 TOP: the shifted spectrum's own cutoff is 14 times the whole's
N = 8
TOP = 2.0  # the whole input's sigma_1, or its largest |lambda|
CUTOFF = DEFAULT_TOL.rank_cutoff(TOP, N, N)
RULE = settings(derandomize=True, database=None, deadline=None, max_examples=6)
PLACEMENTS = pytest.mark.parametrize("k", range(-8, 9))
seeds = st.integers(0, 2**32 - 1)


def truncated_pinv(f, rank: int) -> np.ndarray:
    return (f.v[:, :rank] / f.sigma[:rank]) @ dagger(f.u[:, :rank])


def assert_whole_rule(x: np.ndarray, a: np.ndarray, k: int) -> None:
    """X matches pinv(a) at the rank of svd(a, deflate=True), or, for |k| <= 1,
    a's pseudoinverse truncated one rank either side of it."""
    f = svd(a, DEFAULT_TOL, deflate=True)
    ranks = [f.rank] if abs(k) > 1 else [f.rank - 1, f.rank, f.rank + 1]
    ratios = []
    for rank in ranks:
        if 1 <= rank <= len(f.sigma) and f.sigma[rank - 1] > 0:
            want = truncated_pinv(f, rank)
            kappa = f.sigma[0] / f.sigma[rank - 1]
            ratios.append(frobenius(x - want) / (UNIT_ROUNDOFF * kappa * frobenius(want)))
    assert ratios and min(ratios) <= C, (k, f.rank, ratios)


# --------------------------------------------------------------------------
# the constructions: a dense orthogonal pair and a spectrum split in two


def orthogonal_pair(seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A1 of rank 3 with sigma_1 = TOP, and A2, orthogonal to it, with
    sigma (y, 2^k CUTOFF): y is a singular value near 1 or 1.5 2^k CUTOFF."""
    rng = np.random.default_rng(seed)
    u, v = random_unitary(rng, N), random_unitary(rng, N)
    first = np.array([TOP, *rng.uniform(0.5, TOP, 2)])
    small = 2.0**k * CUTOFF
    second = np.array([rng.uniform(0.5, 1.5) if rng.random() < 0.5 else 1.5 * small, small])
    a1 = (u[:, :3] * first) @ dagger(v[:, :3])
    a2 = (u[:, 3:5] * second) @ dagger(v[:, 3:5])
    return a1, a2


def split_spectrum(seed: int, k: int, real: bool, zero_sum: bool):
    """(values, owner): the largest |lambda| is TOP, at index 0 or, for a
    zero-sum spectrum (lambda_0 = 0), at another; the rest lie between
    2^-8 TOP and TOP, about a quarter of them are 0, and one is 2^k CUTOFF.
    owner splits the indices between two members, the small one in member 1.
    A real spectrum is conjugate-symmetric, and so is its split, so that both
    members are real."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    values *= TOP * 2.0 ** rng.uniform(-8.0, 0.0, N) / np.abs(values)
    values[rng.random(N) < 0.25] = 0.0
    owner = rng.integers(0, 2, N)
    mirror = -np.arange(N) % N
    if real:
        lower = np.arange(N) <= mirror
        values = np.where(lower, values, np.conj(values[mirror]))
        values[[0, N // 2]] = values[[0, N // 2]].real
        owner = np.where(lower, owner, owner[mirror])
    small, big = rng.choice(np.arange(1, N // 2 + 1) if real else np.arange(1, N), 2, replace=False)
    top = 0 if not zero_sum else big
    values[0] = 0.0
    for index, size in ((top, TOP), (small, 2.0**k * CUTOFF)):
        on_axis = real and index in (0, N // 2)
        values[index] = size * (1.0 if on_axis else np.exp(2j * np.pi * rng.random()))
        if real:
            values[mirror[index]] = np.conj(values[index])
    owner[0] = 0
    owner[[small, mirror[small]]] = 1
    return values, owner


def generator(values: np.ndarray, real: bool) -> np.ndarray:
    gen = generator_from_spectrum(values)
    return gen.real.copy() if real else gen


def circ_case(route: str, seed: int, k: int, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """(X, the materialized input) of a circulant route on the split spectrum."""
    values, owner = split_spectrum(seed, k, real, zero_sum=route == "shifted")
    if route == "support-split":
        members = [generator(np.where(owner == j, values, 0.0), real) for j in (0, 1)]
        x = support_split_pinv(members)[0]
        return circ_materialize(x), circ_materialize(members[0] + members[1])
    gen = generator(values, real)
    if route == "mean-split":
        return circ_materialize(zero_sum_shift_pinv(gen)), circ_materialize(gen)
    gen = gen - gen.mean()
    return circ_materialize(zero_sum_shift_pinv(gen, alpha=ALPHA)), circ_materialize(gen)


# --------------------------------------------------------------------------
# the property, one test per route


@PLACEMENTS
@RULE
@given(seeds)
def test_pinv_sum_follows_the_sums_rule(k, seed):
    a1, a2 = orthogonal_pair(seed, k)
    try:
        x, _ = pinv_sum(OperatorFamily((a1, a2)))
    except (PreconditionError, VerificationError):
        return
    assert_whole_rule(x, a1 + a2, k)


@PLACEMENTS
@RULE
@given(seeds)
def test_fill_fishkind_follows_the_sums_rule(k, seed):
    a1, a2 = orthogonal_pair(seed, k)
    try:
        x = fill_fishkind_pinv(a1, a2)
    except PreconditionError:
        return
    assert_whole_rule(x, a1 + a2, k)


@pytest.mark.parametrize("route", ["support-split", "mean-split", "shifted"])
@PLACEMENTS
@RULE
@given(seeds, st.booleans())
def test_circulant_split_follows_the_wholes_rule(route, k, seed, real):
    try:
        x, a = circ_case(route, seed, k, real)
    except PreconditionError:
        return
    assert_whole_rule(x, a, k)


# --------------------------------------------------------------------------
# through main: no circ method exits 2 where --method spectral exits 0 on
# the same generator


def circ_exit(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["circ", *argv])


def gen_arg(gen: np.ndarray) -> str:
    return "--gen=" + ",".join(repr(complex(v)) for v in gen)


@PLACEMENTS
@RULE
@given(seeds, st.booleans(), st.booleans())
def test_no_circ_method_fails_where_spectral_passes(k, seed, real, zero_sum):
    gen = generator(split_spectrum(seed, k, real, zero_sum)[0], real)
    if circ_exit([gen_arg(gen)]) == 0:
        assert circ_exit(["--method", "zero-sum", gen_arg(gen), f"--alpha={ALPHA!r}"]) != 2
    # a two-term pair with |alpha + beta| = 2^k CUTOFF
    pair = np.zeros(N)
    pair[seed % N], pair[(seed + 1) % N] = TOP / 2, 2.0**k * CUTOFF - TOP / 2
    if circ_exit([gen_arg(pair)]) == 0:
        assert circ_exit(["--method", "two-term", gen_arg(pair)]) != 2
    # a block circulant whose term alpha ones or beta pattern has eigenvalue
    # n |coefficient| = 2^k CUTOFF, and the other TOP
    k_pattern = (1, 3, 7)[seed % 3]
    q = N // (k_pattern + 1)
    small, big = (-1.0) ** (seed // 6) * 2.0**k * CUTOFF / N, TOP / N
    alpha, beta = (small, big) if seed % 2 else (big, small)
    if circ_exit([gen_arg(alpha + beta * block_pattern_generator(k_pattern, q))]) == 0:
        flags = [f"--alpha={alpha!r}", f"--beta={beta!r}", f"--k={k_pattern}", f"--q={q}"]
        assert circ_exit(["--method", "block", *flags]) != 2


# --------------------------------------------------------------------------
# the two inputs that showed the defect


@pytest.mark.parametrize("s", [1e-15, 1e-17, 1e-20])
def test_pinv_sum_of_a_member_below_the_sums_cutoff(s):
    # A1 of rank 3 (sigma 1, 2, 3) plus s times a rank-2 A2 (sigma 1, 2),
    # orthogonal, 8 x 8: each member was cut at its own rule, so at s = 1e-15
    # X read 3.4e14 and still passed the sum's check, and at s = 1e-17 X failed
    # that check and was returned unchecked
    rng = np.random.default_rng(3)
    u, v = random_unitary(rng, 8), random_unitary(rng, 8)
    a1 = (u[:, :3] * [1.0, 2.0, 3.0]) @ dagger(v[:, :3])
    a2 = s * (u[:, 3:5] * [1.0, 2.0]) @ dagger(v[:, 3:5])
    total = a1 + a2
    want = pinv(total)
    try:
        x, terms = pinv_sum(OperatorFamily((a1, a2)))
    except VerificationError:
        return
    assert frobenius(x - want) <= 1e-12 * frobenius(want)
    assert penrose_residuals(total, x).passed
    assert frobenius(terms[1]) == 0.0


def test_pinv_sum_returns_x_only_when_the_sums_check_passes(monkeypatch):
    inner = pinvkit.sumdecomp._cut_pinv
    monkeypatch.setattr(pinvkit.sumdecomp, "_cut_pinv", lambda f, cutoff: 2 * inner(f, cutoff))
    a1, a2 = orthogonal_pair(0, 8)
    with pytest.raises(VerificationError, match="orthogonal-sum pseudoinverse failed penrose"):
        pinv_sum(OperatorFamily((a1, a2)))


@pytest.mark.parametrize("alpha", [1e-17, 3e-16])
def test_block_keeps_only_the_terms_the_rank_rule_keeps(alpha, capsys):
    # n alpha sits below the cutoff of n beta = 8: the ones term was inverted
    # anyway, so at 1e-17 X failed its check (exit 2), and at 3e-16 X read
    # 5.2e13 where circ_pinv_spectral gives 0.047, yet passed it
    argv = ["circ", "--method", "block", f"--alpha={alpha!r}", "--beta=1", "--k", "3", "--q", "2"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rank"] == 3 and report["passed"]
    gen = alpha + block_pattern_generator(3, 2)
    x, want = block_pattern_pinv(alpha, 1.0, 3, 2), circ_pinv_spectral(gen)
    # both are circulants of rank 3 with kappa = 1
    assert frobenius(x - want) <= C * UNIT_ROUNDOFF * frobenius(want)


@pytest.mark.parametrize("alpha,beta", [(1.5e308 + 1.5e308j, 1.0), (np.inf, 1.0), (1.0, np.nan)])
def test_block_past_the_float_range_is_refused(alpha, beta):
    # |alpha| past the float range leaves the rank rule no finite cutoff, and
    # a NaN beta must not be dropped as a term below it
    with pytest.raises(PreconditionError, match="the circulant leaves the float range"):
        block_pattern_pinv(alpha, beta, 3, 2)


def test_fill_fishkind_returns_x_only_when_the_sums_check_passes(monkeypatch):
    inner = pinvkit.sumdecomp._core_pinvs
    monkeypatch.setattr(
        pinvkit.sumdecomp, "_core_pinvs", lambda *args: [2 * x for x in inner(*args)]
    )
    a1, a2 = gen_rank_additive_pair(0, 8)
    with pytest.raises(VerificationError, match="fill-fishkind pseudoinverse failed penrose"):
        fill_fishkind_pinv(a1, a2)


def test_zero_sum_mean_split_of_a_near_constant_generator(capsys):
    # the spectrum's support is {0}; the remainder g - mean was inverted
    # through its own spectrum and cutoff, which gave max|x| = 6.8e15, and
    # the command exited 2 where --method spectral exits 0 with rank 1
    g = "0.25,0.25000000000000006,0.25,0.24999999999999994,0.25,0.25,0.25,0.25"
    for method in ("spectral", "zero-sum"):
        assert main(["circ", "--method", method, "--gen", g]) == 0, method
        report = json.loads(capsys.readouterr().out)
        assert report["rank"] == 1 and report["extras"]["support"] == [0], method
    x = zero_sum_shift_pinv(np.array([float(v) for v in g.split(",")]))
    assert np.array_equal(x, np.full(8, 0.0625 + 0j))


def test_shifted_branch_refuses_an_eigenvalue_within_its_rounding():
    # lambda = 4 times the whole's cutoff, under the shifted spectrum's own
    # cutoff: that spectrum was inverted at its own rule, and X came back
    # without the eigenvalue, a rank below the report's, and passed the check
    values, _ = split_spectrum(5, 2, real=False, zero_sum=True)
    gen = generator(values, real=False)
    gen = gen - gen.mean()
    with pytest.raises(PreconditionError, match="within the shifted spectrum's rounding"):
        zero_sum_shift_pinv(gen, alpha=ALPHA)
    assert_whole_rule(circ_materialize(circ_pinv_spectral(gen)), circ_materialize(gen), 2)
