"""svd_batch: one stacked Jacobi sweep loop for several same-shape matrices.

Every member must come out bit for bit as svd gives it alone: the rank, the
zeroed mass and the bytes of sigma, U and V. The inputs are the shapes the
Fill-Fishkind and pair routes stack: the triple (A1, A2, A1 + A2), the two
cores, and a matrix with its completing partner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import pinvkit.cli
import pinvkit.linalg
import pinvkit.sumdecomp
from pinvkit.cli import EXIT_PRECONDITION, main
from pinvkit.linalg import svd, svd_batch
from pinvkit.matrix import (
    ConvergenceError,
    PreconditionError,
    dagger,
    dumps_matrix_json,
)
from pinvkit.sumdecomp import fill_fishkind_pinv

# (n, rank A1, rank A2) and (n, rank A) of the closed-form benchmark's slots
FILL_FISHKIND_SLOTS = [(6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6)]
PAIR_SLOTS = [(6, 3, "gram"), (8, 5, "invertible"), (8, 4, "gram"), (10, 6, "invertible"),
              (12, 6, "gram"), (16, 10, "gram")]


def complex_gaussian(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def low_rank(rng, m, n, r):
    if r >= min(m, n):
        return complex_gaussian(rng, m, n)
    return complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)


def assert_same_bits(got, want):
    assert got.rank == want.rank
    assert got.deflated == want.deflated
    for x, y in ((got.sigma, want.sigma), (got.u, want.u), (got.v, want.v)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_batch_matches_svd(mats, **kwargs):
    fs = svd_batch(mats, **kwargs)
    assert len(fs) == len(mats)
    for a, f in zip(mats, fs):
        assert_same_bits(f, svd(a, **kwargs))
    return fs


def fill_fishkind_cores(a1, a2):
    """The two cores of fill_fishkind_pinv, the wide one as its adjoint."""
    f1, f2 = svd(a1, deflate=True), svd(a2, deflate=True)
    u2, v2 = f2.cutoff_slices
    left = dagger(v2) @ f1.v[:, f1.rank :]
    right = dagger(f1.u[:, f1.rank :]) @ u2
    return (dagger(left) if left.shape[0] < left.shape[1] else left), right


def pair_inputs(rng, n, rank, partner):
    a = low_rank(rng, n, n, rank)
    u, _, vh = np.linalg.svd(a)
    null = vh[rank:].conj().T
    if partner == "invertible":
        left = u[:, rank:] @ complex_gaussian(rng, n - rank, n - rank)
    else:
        left = complex_gaussian(rng, n, n - rank)
    return a, left @ dagger(null)


# --------------------------------------------------------------------------
# bit-identity on the stacks the routes build


@pytest.mark.parametrize("deflate", [False, True])
@pytest.mark.parametrize("slot", FILL_FISHKIND_SLOTS, ids=lambda s: "n%d-r%d+%d" % s)
def test_fill_fishkind_triple_and_cores_match_svd(slot, deflate):
    n, r1, r2 = slot
    for seed in range(3):
        rng = np.random.default_rng(100 * n + 10 * r1 + r2 + seed)
        a1, a2 = low_rank(rng, n, n, r1), low_rank(rng, n, n, r2)
        assert_batch_matches_svd([a1, a2, a1 + a2], deflate=deflate)
        cores = fill_fishkind_cores(a1, a2)
        assert cores[0].shape == cores[1].shape == (n - r1, r2)
        assert_batch_matches_svd(list(cores), deflate=deflate)


@pytest.mark.parametrize("deflate", [False, True])
@pytest.mark.parametrize("slot", PAIR_SLOTS, ids=lambda s: "%s-%d-r%d" % (s[2], s[0], s[1]))
def test_pair_matrix_and_partner_match_svd(slot, deflate):
    n, rank, partner = slot
    for seed in range(3):
        a, b = pair_inputs(np.random.default_rng(1000 * n + rank + seed), n, rank, partner)
        assert_batch_matches_svd([a, b], deflate=deflate)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (9, 1), (1, 9), (5, 5), (0, 4), (4, 0)])
def test_tall_wide_and_empty_stacks_match_svd(shape):
    rng = np.random.default_rng(sum(shape))
    mats = [complex_gaussian(rng, *shape) for _ in range(3)]
    mats.append(np.zeros(shape, dtype=complex))
    for deflate in (False, True):
        assert_batch_matches_svd(mats, deflate=deflate)


def reference_certified(bt, norms2, threshold):
    """One member's stopping test, as a 2-D Gram product."""
    gram = np.abs(bt @ bt.conj().T)
    np.fill_diagonal(gram, 0.0)
    root = np.sqrt(norms2)
    return not (gram > np.multiply.outer(threshold * root, root)).any()


@pytest.mark.parametrize("size, m", [(2, 1), (4, 4), (6, 9), (12, 12)])
def test_batched_certificate_judges_each_member_as_alone(size, m):
    # one member per kind: orthogonal rows, random rows, orthogonal rows
    # perturbed by 0.1 and by 10 times the threshold, and orthogonal rows
    # with zeroed (dead) ones among them
    rng = np.random.default_rng(size * m)
    threshold = np.sqrt(m) * pinvkit.linalg._EPS
    diagonal = np.eye(size, m) * rng.uniform(0.5, 2.0, size)[:, None]
    members = [diagonal.astype(complex), complex_gaussian(rng, size, m)]
    for scale in (0.1, 10.0):
        members.append(diagonal + scale * threshold * complex_gaussian(rng, size, m))
    dead = diagonal.astype(complex)
    dead[::2] = 0.0
    members.append(dead)
    bt = np.stack(members)
    norms2 = np.sum(np.abs(bt) ** 2, axis=2)
    got = pinvkit.linalg._certified(bt, norms2, threshold)
    want = [reference_certified(b, n2, threshold) for b, n2 in zip(bt, norms2)]
    assert got.tolist() == want
    assert want[0] and not want[1] and want[-1]
    for j in range(len(members)):
        assert pinvkit.linalg._certified(bt[j : j + 1], norms2[j : j + 1], threshold)[0] == want[j]


def test_member_without_a_live_pair_is_left_as_it_is(monkeypatch):
    # With the Gram certificate off, -diag(d) stays in the stack for one
    # sweep in which none of its pairs is live while the random member
    # rotates. The identity rotation would turn its -0.0 entries into +0.0,
    # so the stack must leave its rows as they are, as svd alone does by
    # skipping those rounds; it then leaves by the "nothing rotated" exit.
    monkeypatch.setattr(pinvkit.linalg, "_certified", lambda *args: False)
    rng = np.random.default_rng(12)
    n = 5
    diagonal = -np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
    assert np.signbit(diagonal.real).sum() == n * n
    stack = [diagonal, complex_gaussian(rng, n, n), diagonal[:, ::-1]]
    for deflate in (False, True):
        fs = assert_batch_matches_svd(stack, deflate=deflate)
        assert np.signbit(fs[0].u.imag).sum() > n  # its -0.0 entries are kept


# --------------------------------------------------------------------------
# members leave the stack at their own sweeps


def fewest_sweeps(a):
    sweeps = 0
    while True:
        try:
            svd(a, max_sweeps=sweeps)
        except ConvergenceError:
            sweeps += 1
        else:
            return sweeps


def test_members_leave_at_their_own_sweeps():
    rng = np.random.default_rng(8)
    n = 12
    diagonal = np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)  # orthogonal at sweep 0
    nearly = diagonal + 1e-6 * complex_gaussian(rng, n, n)
    mats = [complex_gaussian(rng, n, n), diagonal, low_rank(rng, n, n, 5), nearly]
    sweeps = [fewest_sweeps(a) for a in mats]
    assert sweeps[1] == 0 and len(set(sweeps)) >= 3
    assert_batch_matches_svd(mats)
    assert_batch_matches_svd(mats, max_sweeps=max(sweeps))
    # one sweep fewer fails the slowest member, which the message names
    slowest = int(np.argmax(sweeps))
    with pytest.raises(ConvergenceError, match=rf"\(stack member {slowest}\)"):
        svd_batch(mats, max_sweeps=max(sweeps) - 1)


@pytest.mark.parametrize("deflate", [False, True])
def test_stack_arrays_never_reach_the_results(deflate):
    # The sweep loop reuses its arrays from round to round and rebuilds them
    # when a member leaves; here members leave at three different sweeps.
    # No result may be one of those arrays or share memory with another
    # result, of this call or of the next.
    rng = np.random.default_rng(8)
    n = 12
    diagonal = np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
    nearly = diagonal + 1e-6 * complex_gaussian(rng, n, n)
    mats = [complex_gaussian(rng, n, n), diagonal, low_rank(rng, n, n, 5), nearly]
    assert len({fewest_sweeps(a) for a in mats}) >= 3
    before = [svd(a, deflate=deflate) for a in mats]
    first, second = svd_batch(mats, deflate=deflate), svd_batch(mats, deflate=deflate)
    for fs in (first, second):
        for f, alone in zip(fs, before):
            assert_same_bits(f, alone)
        for a, f in zip(mats, fs):
            assert_same_bits(f, svd(a, deflate=deflate))  # a lone call after the stack
    arrays = [x for fs in (first, second) for f in fs for x in (f.u, f.v, f.sigma)]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1 :]:
            assert not np.shares_memory(x, y)


@pytest.mark.parametrize("wide", [False, True])
def test_max_sweeps_names_the_member_that_does_not_converge(wide):
    rng = np.random.default_rng(9)
    mats = [np.eye(6, dtype=complex), np.diag(np.arange(1.0, 7.0)).astype(complex),
            complex_gaussian(rng, 6, 6)]
    if wide:
        mats = [np.hstack([a, np.zeros((6, 2))]) for a in mats]
    with pytest.raises(ConvergenceError, match=r"within 0 sweeps \(stack member 2\)"):
        svd_batch(mats, max_sweeps=0)
    assert_batch_matches_svd(mats[:2], max_sweeps=0)


# --------------------------------------------------------------------------
# refusals


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_member_is_refused_by_index(value):
    rng = np.random.default_rng(10)
    mats = [complex_gaussian(rng, 5, 3) for _ in range(3)]
    mats[1][2, 0] = complex(2.0, value)
    with pytest.raises(PreconditionError, match=r"inf or nan entry \(stack member 1\)"):
        svd_batch(mats)


def test_mixed_shapes_are_refused_and_no_members_give_none():
    rng = np.random.default_rng(11)
    with pytest.raises(PreconditionError, match="one shape"):
        svd_batch([complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 3)])
    # a wide member goes in through its adjoint, as svd takes it, so a 4 x 3
    # and a 3 x 4 member share one stack, each bit for bit svd's
    assert_batch_matches_svd([complex_gaussian(rng, 4, 3), complex_gaussian(rng, 3, 4)])
    assert svd_batch([]) == []


# --------------------------------------------------------------------------
# the routes give the bytes that one svd per matrix gives


def one_svd_each(monkeypatch):
    def serial(mats, *args, **kwargs):
        return [svd(a, *args, **kwargs) for a in mats]

    monkeypatch.setattr(pinvkit.sumdecomp, "svd_batch", serial)
    monkeypatch.setattr(pinvkit.cli, "svd_batch", serial)


@pytest.mark.parametrize("slot", [(8, 3, 5), (6, 2, 4), (10, 4, 5), (12, 3, 6)],
                         ids=lambda s: "n%d-r%d+%d" % s)
def test_fill_fishkind_output_is_unchanged_by_batching(monkeypatch, slot):
    # r1 + r2 = n makes both cores square, so neither goes in as its adjoint
    n, r1, r2 = slot
    rng = np.random.default_rng(n + r1 + r2)
    a1, a2 = low_rank(rng, n, n, r1), low_rank(rng, n, n, r2)
    x = fill_fishkind_pinv(a1, a2)
    one_svd_each(monkeypatch)
    assert x.tobytes() == fill_fishkind_pinv(a1, a2).tobytes()


@pytest.mark.parametrize("slot", PAIR_SLOTS, ids=lambda s: "%s-%d-r%d" % (s[2], s[0], s[1]))
def test_pair_command_output_is_unchanged_by_batching(tmp_path, capsys, monkeypatch, slot):
    n, rank, partner = slot
    a, b = pair_inputs(np.random.default_rng(n * rank), n, rank, partner)
    (tmp_path / "a.json").write_text(dumps_matrix_json(a))
    (tmp_path / "b.json").write_text(dumps_matrix_json(b))

    def run(out):
        argv = ["pinv", "--method", "pair", "--input", str(tmp_path / "a.json"),
                "--aux", str(tmp_path / "b.json"), "--output", str(tmp_path / out)]
        code = main(argv)
        return code, json.loads(capsys.readouterr().out), (tmp_path / out).read_bytes()

    code, report, batched = run("x.csv")
    assert code == 0 and report["rank"] == rank
    one_svd_each(monkeypatch)
    assert run("y.csv")[2] == batched


def test_pair_command_with_a_partner_of_another_shape_is_refused(tmp_path, capsys):
    rng = np.random.default_rng(13)
    (tmp_path / "a.json").write_text(dumps_matrix_json(complex_gaussian(rng, 6, 6)))
    (tmp_path / "b.json").write_text(dumps_matrix_json(complex_gaussian(rng, 6, 5)))
    argv = ["pinv", "--method", "pair", "--input", str(tmp_path / "a.json"),
            "--aux", str(tmp_path / "b.json")]
    assert main(argv) == EXIT_PRECONDITION
    assert "A and B must have the same shape" in capsys.readouterr().err
