"""Layer timings of the dense routes: one SVD plus the route, against the
route's own full-rank kernel.

At each full-rank square slot of the dense-oracle workload (normal at 32
and 12, rank-completion at 16 and 10, verify at 32 and 8) and at one
rank-deficient control per command, it times, as interleaved medians:

- factored   svd(a, tol, deflate=True) first, then the route's own rule on
             it: the kernel's X when that SVD shows full rank and
             core._admitted keeps it, else pinv(a) from that SVD (normal,
             or a full-rank completion) or the route given the completion
             that SVD yields, which factors A again; for verify, the Penrose
             residuals and the characterization residuals given it
- certified  what the CLI runs: the route's checked form with no
             factorization (core._normal_checked,
             sumdecomp._rank_completion_checked), which keeps its kernel's X
             when core._admitted admits it and factors A only otherwise; or
             for verify inverse_certified and the characterization residuals
             without a factorization, the factored path following when the
             certificate fails, as in the CLI.

It exits 1 unless both paths give byte-identical X (pinv) or the same
verdict (verify), and the same rank. certificate_held says whether the
kernel's X (the Gram solve, or the LU inverse for a square completion) was
kept, or for verify whether inverse_certified held. The medians in
milliseconds go to a JSON file with the machine's description. Only the
standard library, numpy and pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/dense_layers.py
    PYTHONPATH=src python3 bench/dense_layers.py --out x.json --repeats 3

The first form writes BENCH_dense.json in the current directory.
"""

from __future__ import annotations

import argparse
import sys

from ledger import median_ms, write_ledger

from pinvkit.core import (
    _admitted,
    _gram_pinv,
    _normal_checked,
    characterization_residuals,
    gen_random_matrix,
    inverse_certified,
    penrose_residuals,
    pinv,
)
from pinvkit.linalg import svd
from pinvkit.matrix import DEFAULT_TOL
from pinvkit.sumdecomp import (
    _full_rank_kernel,
    _rank_completion_checked,
    auto_completion,
    rank_completion_pinv,
)

# (command, n, rank): the workload's full-rank square slots, then the controls
SLOTS = (
    ("normal", 32, 32),
    ("normal", 12, 12),
    ("rank-completion", 16, 16),
    ("rank-completion", 10, 10),
    ("verify", 32, 32),
    ("verify", 8, 8),
    ("normal", 16, 8),
    ("rank-completion", 16, 12),
    ("verify", 16, 8),
)
CHECKED_FORMS = {
    "normal": _normal_checked,
    "rank-completion": lambda a, tol: _rank_completion_checked(a, None, tol),
}
KERNELS = {
    "normal": lambda a: _gram_pinv(a, a.shape[0] >= a.shape[1]),
    "rank-completion": _full_rank_kernel,
}


def factored(command: str, a, cand, tol=DEFAULT_TOL):
    """(X or verdict, rank) from one SVD of a first, then the route's rule."""
    f = svd(a, tol, deflate=True)
    if command == "verify":
        passed = penrose_residuals(a, cand, tol).passed
        return passed and characterization_residuals(a, cand, tol, f).passed, f.rank
    full = f.rank == min(a.shape)
    x = KERNELS[command](a) if full else None
    if _admitted(a, x, tol, (a, x)) is not None:
        return x, f.rank
    if command == "normal" or full:
        return pinv(a, tol, f), f.rank
    return rank_completion_pinv(a, auto_completion(a, tol, f), tol), f.rank


def certified(command: str, a, cand, tol=DEFAULT_TOL):
    """(X or verdict, rank) as the CLI runs now: the kernel or certificate first."""
    if command == "verify":
        if not inverse_certified(a, cand, tol):
            return factored(command, a, cand, tol)
        passed = penrose_residuals(a, cand, tol).passed
        return passed and characterization_residuals(a, cand, tol).passed, a.shape[0]
    return CHECKED_FORMS[command](a, tol)[:2]


def same(left, right) -> bool:
    if isinstance(left, bool):
        return left == right
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def measure(command: str, n: int, rank: int, repeats: int) -> dict:
    a = gen_random_matrix(1000 + 10 * n + rank, n, n, rank=None if rank == n else rank)
    cand = pinv(a) if command == "verify" else None
    (x_old, rank_old), (x_new, rank_new) = factored(command, a, cand), certified(command, a, cand)
    if command == "verify":
        held = inverse_certified(a, cand)
    else:
        kernel = KERNELS[command](a)
        held = kernel is not None and kernel.tobytes() == x_new.tobytes()
    return {
        "command": command, "n": n, "rank": rank, "certificate_held": bool(held),
        "median_ms": median_ms({
            "factored": lambda: factored(command, a, cand),
            "certified": lambda: certified(command, a, cand),
        }, repeats),
        "checks": {
            "identical": same(x_old, x_new),
            "rank_agrees": rank_old == rank_new,
            "agree": same(x_old, x_new) and rank_old == rank_new,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_dense.json")
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    rows = [measure(*slot, args.repeats) for slot in SLOTS]
    write_ledger(args.out, "dense", args.repeats, slots=rows)
    for row in rows:
        ms = row["median_ms"]
        print(f"{row['command']:<16}n={row['n']:2d} r={row['rank']:2d}  "
              f"certificate {'held' if row['certificate_held'] else 'failed':<6}  "
              f"factored {ms['factored']:.2f}  certified {ms['certified']:.2f}  "
              f"agree {row['checks']['agree']}")
    return 0 if all(row["checks"]["agree"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
