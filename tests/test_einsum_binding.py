"""linalg calls einsum's C function directly; its results must be np.einsum's,
byte for byte, on the operands of a Jacobi round, whichever import gave it."""

import sys

import numpy as np

from pinvkit import linalg


def _round_operands(m: int):
    """The two products of a round on a square m x m input: the float view of
    B's rows, for the squared norms, and conj(b_p) against b_q, for b_p* b_q.
    As in the stack [B | V], the rows of B are strided views."""
    rng = np.random.default_rng(m)
    size = m + m % 2
    w = rng.standard_normal((size, 2 * m)) + 1j * rng.standard_normal((size, 2 * m))
    bt = w[:, :m]
    half = size // 2
    return (bt.view(np.float64), bt.view(np.float64)), (np.conj(bt[:half]), bt[half:])


def _assert_matches_np_einsum(einsum):
    for m in (4, 5, 8, 16, 33, 64):
        for operands, dtype in zip(_round_operands(m), (np.float64, np.complex128)):
            want = np.einsum("ij,ij->i", *operands)
            assert want.dtype == dtype
            got = einsum("ij,ij->i", *operands)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            out, want_out = np.empty_like(want), np.empty_like(want)
            np.einsum("ij,ij->i", *operands, out=want_out)
            assert einsum("ij,ij->i", *operands, out=out) is out
            assert out.tobytes() == want_out.tobytes() == want.tobytes()


def test_the_binding_gives_np_einsums_bytes():
    assert linalg._einsum is linalg._bind_einsum()
    _assert_matches_np_einsum(linalg._einsum)


def test_each_fallback_gives_np_einsums_bytes(monkeypatch):
    # numpy._core.multiarray cannot be imported: np.einsum itself stands in
    monkeypatch.setitem(sys.modules, "numpy._core.multiarray", None)
    assert linalg._bind_einsum() is np.einsum
