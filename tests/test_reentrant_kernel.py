"""The Jacobi kernel keeps nothing between calls, so calls from several threads
at once give the bytes of the same calls made one after another.

Every array that a round writes, and every 0-d operand and bound ufunc that
it reads, is made by the call that uses it. A buffer or a bound array kept
at module level and shared by calls of one shape would let one thread's
round write into another thread's stack. The threads here factor stacks of
one shape with distinct seeded entries, members leave at different sweeps so
each call rebuilds its stack, and a short switch interval makes the threads
interleave within rounds.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from pinvkit.linalg import svd, svd_batch

N = 8
THREADS = 4
REPEATS = 3


def complex_gaussian(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def low_rank(rng, m, n, r):
    return complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)


def stacks(seed):
    """A Fill-Fishkind triple (A1, A2, A1 + A2); a random, a diagonal (it
    leaves at sweep 0) and a rank-deficient member; and one wide matrix,
    which svd factors through its adjoint."""
    rng = np.random.default_rng(seed)
    a1, a2 = low_rank(rng, N, N, 2), low_rank(rng, N, N, 3)
    diagonal = np.diag(rng.uniform(0.5, 2.0, N)).astype(complex)
    mixed = [complex_gaussian(rng, N, N), diagonal, low_rank(rng, N, N, N - 3)]
    return [a1, a2, a1 + a2], mixed, complex_gaussian(rng, N - 3, N)


def factor_all(work, deflate):
    triple, mixed, wide = work
    fs = svd_batch(triple, deflate=deflate) + svd_batch(mixed, deflate=deflate)
    fs.append(svd(wide, deflate=deflate))
    return [(f.rank, f.deflated, f.sigma.tobytes(), f.u.tobytes(), f.v.tobytes()) for f in fs]


@pytest.mark.parametrize("deflate", [False, True])
def test_threads_get_the_bytes_of_calls_made_one_after_another(deflate):
    work = [stacks(seed) for seed in range(THREADS)]
    want = [factor_all(w, deflate) for w in work]
    assert len({tuple(digests) for digests in want}) == THREADS  # the stacks differ
    got = [[] for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS, timeout=30)
    errors = []

    def run(index):
        try:
            barrier.wait()
            for _ in range(REPEATS):
                got[index].append(factor_all(work[index], deflate))
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for index in range(THREADS):
        assert got[index] == [want[index]] * REPEATS
