"""Layer timings of the Jacobi SVD kernel: the round-robin reference versus svd.

It times, as the median of several repeats, on seeded complex inputs:

- reference  the former kernel, kept here: each round gathers its pairs by
             index, rotates B and V apart, scatters them back, and a last
             sweep that rotates nothing confirms convergence
- svd        linalg.svd: B and V as the rows of one array, each round's pairs
             as two contiguous halves, identity rotations for pairs that pass
             the stopping test, and a Gram certificate before each sweep
- deflated   linalg.svd(a, deflate=True), as the pseudoinverse routes call it:
             roundoff-level columns are zeroed at the deflation floor
  at every (rows, cols, rank) of the benchmark's dense-oracle workload, and at
  square 96 and tall 256 x 32 and 512 x 16, each at full and at half rank.

For each kernel and shape it records the median milliseconds, the sweeps (the
smallest max_sweeps with which the kernel returns, found by search), the
rounds those sweeps run, and the microseconds per round. It checks that svd
gives the reference's rank and singular values within 1e-13 of sigma_1, and
that the deflated kernel gives the reference's rank and, above the rank
cutoff, singular values within its zeroed mass ||E||_F plus 1e-13 of
sigma_1; it exits 1 if any check fails. Everything is written with the
machine's description to a JSON file. Only the standard library, numpy and
pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/svd_layers.py
    PYTHONPATH=src python3 bench/svd_layers.py --out x.json --repeats 3

The first form writes BENCH_svd.json in the current directory.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from ledger import median_ms, write_ledger

from pinvkit.linalg import (
    _EPS,
    SvdFactorization,
    _complete_orthonormal,
    _round_robin,
    _squared_norms,
    svd,
)
from pinvkit.matrix import (
    DEFAULT_TOL,
    UNIT_ROUNDOFF,
    ConvergenceError,
    Tolerance,
    dagger,
    eye,
    frobenius,
)

# (rows, cols, rank): the dense-oracle workload's slots, then the larger shapes
SHAPES = (
    (64, 64, 64), (32, 32, 32), (32, 32, 16), (16, 16, 16), (16, 16, 12), (16, 16, 8),
    (12, 12, 12), (12, 12, 9), (12, 12, 6), (10, 10, 10), (10, 10, 5), (8, 8, 8),
    (8, 8, 6), (8, 8, 4), (8, 8, 3), (128, 4, 1), (96, 4, 1), (64, 4, 1), (48, 4, 1),
    (32, 4, 1), (16, 4, 1),
    (96, 96, 96), (96, 96, 48), (256, 32, 32), (256, 32, 16), (512, 16, 16), (512, 16, 8),
)


def reference_svd(a: np.ndarray, tol: Tolerance = DEFAULT_TOL, max_sweeps: int = 60) -> SvdFactorization:
    """The former linalg.svd, one Brent-Luk round per numpy step."""
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    if m < n:
        f = reference_svd(dagger(a), tol, max_sweeps)
        return SvdFactorization(u=f.v, sigma=f.sigma, v=f.u, rank=f.rank)

    top = float(np.max(np.abs(a), initial=0.0))
    scale = 2.0 ** -np.frexp(top)[1] if top > 0.0 else 1.0
    bt = np.array(a.T * scale, dtype=np.complex128, order="C")
    vt = eye(n)
    rounds = _round_robin(n)
    threshold = np.sqrt(m) * _EPS
    dead_floor = (UNIT_ROUNDOFF**3 * frobenius(bt)) ** 2
    for _ in range(max_sweeps):
        dead = _squared_norms(bt) <= dead_floor
        if np.any(dead):
            bt[dead] = 0.0
        rotated = False
        for p, q in rounds:
            bp, bq = bt[p], bt[q]
            app, aqq = _squared_norms(bp), _squared_norms(bq)
            apq = np.einsum("ij,ij->i", bp.conj(), bq)
            gam = np.abs(apq)
            live = (app > dead_floor) & (aqq > dead_floor)
            live &= gam > threshold * np.sqrt(app) * np.sqrt(aqq)
            if not np.any(live):
                continue
            rotated = True
            if not np.all(live):
                p, q, bp, bq = p[live], q[live], bp[live], bq[live]
                app, aqq, apq, gam = app[live], aqq[live], apq[live], gam[live]
            phase = np.conj(apq / gam)[:, None]
            zeta = (aqq - app) / (2.0 * gam)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = c * t[:, None]
            bt[p], bt[q] = c * bp - (s * phase) * bq, s * bp + (c * phase) * bq
            vp, vq = vt[p], vt[q]
            vt[p], vt[q] = c * vp - (s * phase) * vq, s * vp + (c * phase) * vq
        if not rotated:
            break
    else:
        raise ConvergenceError(f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps")

    norms = np.sqrt(_squared_norms(bt))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = bt[order].T
    v = vt[order].T

    nonzero = norms > 0.0
    u_cols = b[:, nonzero] / norms[nonzero]
    u = _complete_orthonormal(u_cols, m) if u_cols.shape[1] < m else u_cols
    sigma = norms / scale

    sigma_max = sigma[0] if sigma.size else 0.0
    cutoff = tol.rank_cutoff(sigma_max, m, n)
    rank = int(np.count_nonzero(sigma > cutoff))
    return SvdFactorization(u=u, sigma=sigma, v=v, rank=rank)


def deflated_svd(a: np.ndarray, max_sweeps: int = 60) -> SvdFactorization:
    return svd(a, max_sweeps=max_sweeps, deflate=True)


KERNELS = {"reference": reference_svd, "svd": svd, "deflated": deflated_svd}


def complex_gaussian(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def low_rank(rng: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    if r >= min(m, n):
        return complex_gaussian(rng, m, n)
    return complex_gaussian(rng, m, r) @ complex_gaussian(rng, r, n)


def fewest_sweeps(kernel, a: np.ndarray) -> int:
    """Smallest max_sweeps with which kernel(a) returns: doubling, then bisection.

    Neither kernel's iteration depends on max_sweeps, so this is the number
    of sweeps it runs when left alone.
    """

    def returns(sweeps: int) -> bool:
        try:
            kernel(a, max_sweeps=sweeps)
        except ConvergenceError:
            return False
        return True

    low, high = -1, 1
    while not returns(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if returns(mid) else (mid, high)
    return high


def measure(m: int, n: int, r: int, repeats: int) -> dict:
    a = low_rank(np.random.default_rng(1000 * m + 10 * n + r), m, n, r)
    ref, new, fast = reference_svd(a), svd(a), deflated_svd(a)
    sigma_1 = float(ref.sigma[0])
    gap = float(np.max(np.abs(new.sigma - ref.sigma))) / sigma_1
    kept = ref.sigma > DEFAULT_TOL.rank_cutoff(sigma_1, m, n)
    fast_gap = float(np.max(np.abs(fast.sigma - ref.sigma)[kept]))
    ms = median_ms({name: (lambda kernel=kernel: kernel(a)) for name, kernel in KERNELS.items()}, repeats)
    rounds_per_sweep = len(_round_robin(min(m, n)))
    kernels = {}
    for name, kernel in KERNELS.items():
        sweeps = fewest_sweeps(kernel, a)
        rounds = sweeps * rounds_per_sweep
        kernels[name] = {
            "median_ms": ms[name],
            "sweeps": sweeps,
            "rounds": rounds,
            "us_per_round": 1e3 * ms[name] / rounds if rounds else None,
        }
    return {
        "m": m, "n": n, "rank": r,
        "kernels": kernels,
        "checks": {
            "ranks": [ref.rank, new.rank, fast.rank],
            "sigma_gap": gap,
            "deflated_mass": fast.deflated,
            "deflated_sigma_gap": fast_gap,
            "agree": ref.rank == new.rank and gap <= 1e-13,
            "deflated_agree": ref.rank == fast.rank
            and fast_gap <= fast.deflated + 1e-13 * sigma_1,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_svd.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    rows = [measure(*shape, args.repeats) for shape in SHAPES]
    payload = write_ledger(
        args.out, "svd", args.repeats,
        shapes=rows,
        total_median_ms={
            name: sum(row["kernels"][name]["median_ms"] for row in rows) for name in KERNELS
        },
    )
    for row in rows:
        print(
            f"{row['m']:>3}x{row['n']:<3} r{row['rank']:<3}"
            + "".join(
                f"  {name} {k['median_ms']:8.2f} ms {k['sweeps']:2d} sweeps"
                f" {k['us_per_round'] or 0:6.1f} us/round"
                for name, k in row["kernels"].items()
            )
        )
    totals = payload["total_median_ms"]
    print("  ".join(f"{name} {value:.1f} ms" for name, value in totals.items()))
    checks = [row["checks"] for row in rows]
    return 0 if all(c["agree"] and c["deflated_agree"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
