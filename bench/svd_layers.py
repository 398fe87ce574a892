"""Layer timings of the Jacobi SVD kernel: accurate versus deflated, and
stacked versus lone members.

It times, as the median of several repeats, on seeded complex inputs:

- svd        linalg.svd, the accurate kernel
- deflated   linalg.svd(a, deflate=True), as the pseudoinverse routes call it:
             roundoff-level columns are zeroed at the deflation floor
  at every (rows, cols, rank) of the benchmark's dense-oracle workload, and at
  square 96 and tall 256 x 32 and 512 x 16, each at full and at half rank;
- separate   k svd(a, deflate=True) calls, one per member of a stack
- batched    one svd_batch(stack, deflate=True) call, as the routes make it
  on the closed-form workload's stacks: (A1, A2, A1 + A2) and the two cores
  (factored only when their Gram inverses fail to certify themselves) at
  each Fill-Fishkind slot, and (A, B) at each pair slot, n = 6 to 16;
- fixed      the kernel's cost per call alone: svd(d, deflate=True) on a
  diagonal d with distinct entries at every (rows, cols) above, and
  svd_batch on a stack of such diagonals at every stack's shape and size.
  The Gram product certifies them before the first sweep, so no round runs:
  the call is the entry, the stack build, one _stack_round, one _certified
  and a _factorization per member.

For each kernel and shape it records the median milliseconds, the sweeps (the
smallest max_sweeps with which the kernel returns, found by search), the
rounds those sweeps run, and the microseconds per round. It checks that the
deflated kernel gives svd's rank and, above the rank cutoff, singular values
within its zeroed mass ||E||_F plus 1e-13 of sigma_1, that every member
of a batched stack is bit-identical to its separate svd (rank, zeroed mass,
sigma, U and V), and that every fixed-cost input returns with max_sweeps=0,
so none runs a round; it exits 1 if any check fails. Everything is written
with the machine's description to a JSON file. Only the standard library,
numpy and pinvkit are used.

The medians compare the variants inside one process; a whole process's
speed can move by 1.6x from run to run on a shared host, so two checkouts
are compared in one process too. --against DIR imports DIR/src/pinvkit
under the name pinvkit_against beside this checkout's pinvkit and, at every
shape (both kernels), every stack (svd_batch) and every fixed-cost input,
alternates calls to the two, the side that goes first switching with each
repeat. Its "against" section records the repeat count and, per row, each
median, the median of the per-repeat ratios (this / DIR) with their least
and greatest, and bit_identical: rank, zeroed mass, sigma, U and V of every
factorization equal DIR's byte for byte. A markdown table of them, headed
by the repeat count and giving each row's ratio range, ends the printout.
A bit difference is reported, not failed on, since a change may move bits
on purpose; the exit status comes from the checks above alone.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/svd_layers.py
    PYTHONPATH=src python3 bench/svd_layers.py --out x.json --repeats 3
    PYTHONPATH=src python3 bench/svd_layers.py --repeats 15 --against ../parent

The first form writes BENCH_svd.json in the current directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import statistics
import sys
import time

import numpy as np
from ledger import median_ms, write_ledger

from pinvkit import linalg
from pinvkit.linalg import SvdFactorization, _round_robin, svd, svd_batch
from pinvkit.matrix import DEFAULT_TOL, ConvergenceError, dagger

# (n, rank A1, rank A2) and (n, rank A) of the closed-form workload's slots
FILL_FISHKIND_SLOTS = ((6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6))
PAIR_SLOTS = ((6, 3), (8, 5), (8, 4), (10, 6), (12, 6), (16, 10))
# (rows, cols, rank): the dense-oracle workload's slots, then the larger shapes
SHAPES = (
    (64, 64, 64), (32, 32, 32), (32, 32, 16), (16, 16, 16), (16, 16, 12), (16, 16, 8),
    (12, 12, 12), (12, 12, 9), (12, 12, 6), (10, 10, 10), (10, 10, 5), (8, 8, 8),
    (8, 8, 6), (8, 8, 4), (8, 8, 3), (128, 4, 1), (96, 4, 1), (64, 4, 1), (48, 4, 1),
    (32, 4, 1), (16, 4, 1),
    (96, 96, 96), (96, 96, 48), (256, 32, 32), (256, 32, 16), (512, 16, 16), (512, 16, 8),
)


def deflated_svd(a: np.ndarray, max_sweeps: int = 60) -> SvdFactorization:
    return svd(a, max_sweeps=max_sweeps, deflate=True)


KERNELS = {"svd": svd, "deflated": deflated_svd}


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
    accurate, fast = svd(a), deflated_svd(a)
    sigma_1 = float(accurate.sigma[0])
    kept = accurate.sigma > DEFAULT_TOL.rank_cutoff(sigma_1, m, n)
    fast_gap = float(np.max(np.abs(fast.sigma - accurate.sigma)[kept]))
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
            "ranks": [accurate.rank, fast.rank],
            "deflated_mass": fast.deflated,
            "deflated_sigma_gap": fast_gap,
            "agree": accurate.rank == fast.rank and fast_gap <= fast.deflated + 1e-13 * sigma_1,
        },
    }


def stacks() -> list[tuple[str, list[np.ndarray]]]:
    """The stacks that fill_fishkind_pinv and pinv --method pair factor."""
    out = []
    for n, r1, r2 in FILL_FISHKIND_SLOTS:
        rng = np.random.default_rng(100 * n + 10 * r1 + r2)
        a1, a2 = low_rank(rng, n, n, r1), low_rank(rng, n, n, r2)
        out.append((f"fill_fishkind n{n} r{r1}+{r2}", [a1, a2, a1 + a2]))
        f1, f2 = svd(a1, deflate=True), svd(a2, deflate=True)
        left = dagger(f1.v[:, f1.rank :]) @ f2.v[:, : f2.rank]  # the adjoint of V2* N1
        right = dagger(f1.u[:, f1.rank :]) @ f2.u[:, : f2.rank]
        out.append((f"fill_fishkind cores n{n} r{r1}+{r2}", [left, right]))
    for n, r in PAIR_SLOTS:
        rng = np.random.default_rng(1000 * n + r)
        a = low_rank(rng, n, n, r)
        null = svd(a).v[:, r:]
        out.append((f"pair n{n} r{r}", [a, complex_gaussian(rng, n, n - r) @ dagger(null)]))
    return out


def fixed_inputs() -> list[tuple[str, list[np.ndarray]]]:
    """Diagonal members with distinct entries, which the Gram product
    certifies before the first sweep: one per (rows, cols) of SHAPES, and a
    stack of as many, of the same shape, per stack of stacks()."""
    def diagonal(m: int, n: int, j: int = 0) -> np.ndarray:
        d = np.zeros((m, n), dtype=np.complex128)
        np.fill_diagonal(d, np.arange(1.0, min(m, n) + 1) + 0.25 * j)
        return d

    shapes = dict.fromkeys((m, n) for m, n, _ in SHAPES)
    out = [(f"{m}x{n}", [diagonal(m, n)]) for m, n in shapes]
    for label, mats in stacks():
        m, n = mats[0].shape
        out.append((label, [diagonal(m, n, j) for j in range(len(mats))]))
    return out


def factor(kernels, mats: list[np.ndarray]) -> list[SvdFactorization]:
    """kernels.svd(a, deflate=True) on a lone matrix, as svd is called, and
    kernels.svd_batch(mats, deflate=True) on a stack; kernels is a linalg
    module."""
    if len(mats) == 1:
        return [kernels.svd(mats[0], deflate=True)]
    return kernels.svd_batch(mats, deflate=True)


def measure_fixed(label: str, mats: list[np.ndarray], repeats: int) -> dict:
    try:
        svd_batch(mats, max_sweeps=0, deflate=True)
        no_round = True
    except ConvergenceError:
        no_round = False
    return {
        "input": label, "m": mats[0].shape[0], "n": mats[0].shape[1], "k": len(mats),
        "median_ms": median_ms({"fixed": lambda: factor(linalg, mats)}, repeats)["fixed"],
        "checks": {"no_round": no_round},
    }


def same_bits(f: SvdFactorization, g: SvdFactorization) -> bool:
    return (f.rank, f.deflated) == (g.rank, g.deflated) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((f.sigma, g.sigma), (f.u, g.u), (f.v, g.v))
    )


def measure_stack(label: str, mats: list[np.ndarray], repeats: int) -> dict:
    separate = [svd(a, deflate=True) for a in mats]
    batched = svd_batch(mats, deflate=True)
    ms = median_ms({
        "separate": lambda: [svd(a, deflate=True) for a in mats],
        "batched": lambda: svd_batch(mats, deflate=True),
    }, repeats)
    return {
        "stack": label, "m": mats[0].shape[0], "n": mats[0].shape[1], "k": len(mats),
        "median_ms": ms,
        "checks": {"bit_identical": all(map(same_bits, batched, separate))},
    }


def load_checkout(path: str):
    """The pinvkit package of the checkout at path, imported as
    pinvkit_against beside this one; its modules import each other
    relatively, so they resolve inside it."""
    package = pathlib.Path(path, "src", "pinvkit")
    spec = importlib.util.spec_from_file_location(
        "pinvkit_against", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def paired(this, other, repeats: int) -> dict:
    """Median ms of this and of other over alternating calls, the side that
    goes first switching each repeat, and the median, least and greatest of
    the per-repeat ratios this / other."""
    times = ([], [])
    for repeat in range(repeats):
        for side in ((0, 1), (1, 0))[repeat % 2]:
            start = time.perf_counter()
            (this, other)[side]()
            times[side].append(time.perf_counter() - start)
    ratios = [a / b for a, b in zip(*times)]
    return {
        "median_ms": 1e3 * statistics.median(times[0]),
        "against_ms": 1e3 * statistics.median(times[1]),
        "ratio": statistics.median(ratios),
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
    }


def against(path: str, repeats: int) -> dict:
    """The "against" section: this checkout's kernels against path's, in
    one process, at every shape and stack."""
    other = load_checkout(path).linalg
    shapes = []
    for m, n, r in SHAPES:
        a = low_rank(np.random.default_rng(1000 * m + 10 * n + r), m, n, r)
        kernels, identical = {}, True
        for name, deflate in (("svd", False), ("deflated", True)):
            identical &= same_bits(svd(a, deflate=deflate), other.svd(a, deflate=deflate))
            kernels[name] = paired(
                lambda: svd(a, deflate=deflate), lambda: other.svd(a, deflate=deflate), repeats
            )
        shapes.append({"m": m, "n": n, "rank": r, "kernels": kernels, "bit_identical": bool(identical)})
    batched = []
    for label, mats in stacks():
        identical = all(map(same_bits, svd_batch(mats, deflate=True), other.svd_batch(mats, deflate=True)))
        batched.append({
            "stack": label, "m": mats[0].shape[0], "n": mats[0].shape[1], "k": len(mats),
            **paired(lambda: svd_batch(mats, deflate=True), lambda: other.svd_batch(mats, deflate=True), repeats),
            "bit_identical": identical,
        })
    fixed = []
    for label, mats in fixed_inputs():
        fixed.append({
            "input": label, "m": mats[0].shape[0], "n": mats[0].shape[1], "k": len(mats),
            **paired(lambda: factor(linalg, mats), lambda: factor(other, mats), repeats),
            "bit_identical": all(map(same_bits, factor(linalg, mats), factor(other, mats))),
        })
    return {
        "checkout": path,
        "repeats": repeats,
        "shapes": shapes,
        "batched": batched,
        "fixed": fixed,
        "bit_identical": all(row["bit_identical"] for row in shapes + batched + fixed),
    }


def against_table(section: dict) -> str:
    """The "against" section as a markdown table, one line per shape and kernel or stack."""
    repeats = section["repeats"]
    lines = [
        f"Against {section['checkout']}: ratio is this / that, the median over {repeats}"
        f" alternating call{'s' if repeats != 1 else ''} per side; range is the least and"
        " greatest per-call ratio.",
        "",
        "| input | kernel | this ms | that ms | ratio | range | bit_identical |",
        "|---|---|---:|---:|---:|---:|---|",
    ]

    def line(label: str, kernel: str, t: dict, identical: bool) -> str:
        return (
            f"| {label} | {kernel} | {t['median_ms']:.3f} | {t['against_ms']:.3f}"
            f" | {t['ratio']:.3f} | {t['ratio_min']:.3f}–{t['ratio_max']:.3f} | {identical} |"
        )

    for row in section["shapes"]:
        for name, k in row["kernels"].items():
            lines.append(line(f"{row['m']}x{row['n']} r{row['rank']}", name, k, row["bit_identical"]))
    for row in section["batched"]:
        lines.append(line(f"{row['stack']} (k={row['k']})", "batched", row, row["bit_identical"]))
    for row in section["fixed"]:
        lines.append(line(f"{row['input']} (k={row['k']})", "fixed", row, row["bit_identical"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_svd.json")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--against", metavar="DIR", help="a checkout to compare with in this process")
    args = parser.parse_args(argv)
    rows = [measure(*shape, args.repeats) for shape in SHAPES]
    batched = [measure_stack(label, mats, args.repeats) for label, mats in stacks()]
    fixed = [measure_fixed(label, mats, args.repeats) for label, mats in fixed_inputs()]
    extra = {"against": against(args.against, args.repeats)} if args.against else {}
    payload = write_ledger(
        args.out, "svd", args.repeats,
        shapes=rows,
        total_median_ms={
            name: sum(row["kernels"][name]["median_ms"] for row in rows) for name in KERNELS
        },
        batched=batched,
        batched_total_median_ms={
            name: sum(row["median_ms"][name] for row in batched) for name in ("separate", "batched")
        },
        fixed=fixed,
        **extra,
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
    for row in batched:
        ms = row["median_ms"]
        print(
            f"{row['stack']:<30} k={row['k']} {row['m']}x{row['n']}"
            f"  separate {ms['separate']:6.2f} ms  batched {ms['batched']:6.2f} ms"
            f"  bit-identical {row['checks']['bit_identical']}"
        )
    for row in fixed:
        print(
            f"fixed {row['input']:<30} k={row['k']} {row['m']}x{row['n']}"
            f"  {1e3 * row['median_ms']:7.1f} us  no round {row['checks']['no_round']}"
        )
    if args.against:
        print(against_table(payload["against"]))
    agree = all(row["checks"]["agree"] for row in rows)
    identical = all(row["checks"]["bit_identical"] for row in batched)
    no_round = all(row["checks"]["no_round"] for row in fixed)
    return 0 if agree and identical and no_round else 1


if __name__ == "__main__":
    sys.exit(main())
