"""Layer timings of the closed-form routes: dense versus structured paths.

It times, as the median of several repeats:

- fill_fishkind.five_svd  the former route, kept here: both projector
                          products formed n x n and inverted by their own
                          SVDs, five n x n SVDs in all
- fill_fishkind.factored_cores
                          the former route, kept here: fill_fishkind_pinv
                          with both cores factored by one svd_batch call
- fill_fishkind.cores     fill_fishkind_pinv, which inverts the products
                          through cores with rank(A2) rows or columns, each
                          by one Gram solve that core._admitted keeps
  at the closed-form workload's five (n, rank A1, rank A2) slots and at
  (32, 12, 14);
- tree.per_root_bfs       the former path sums, a BFS from every root with
                          numpy scalar steps, kept here
- tree.tree_build         tree_build as a whole: one BFS, the ancestor
                          product, the Laplacian and its two checks
- tree.closed_form        tree_pinv(tree): D^+ = -L/2 + u tau^t + tau u^t,
                          the D L rank margin and one Penrose check
- tree.lu_shift           the former route, kept here: the paper's
                          (D + alpha tau tau^t)^-1 - tau tau^t/(alpha ||tau||^4)
                          from one LU inverse, and one Penrose check
- tree.shift_inverse      tree_shift_inverse(tree, alpha): tree_pinv plus
                          the dyad, the inverse of D + alpha tau tau^t
  at the automatic alpha, on zero-sum trees with n = 20 to 60 vertices;
- parser.build            building the parser, as main did on every call
- parser.parse            parse_args on the parser main now keeps, per subcommand;
- write.rows              the former _format_rows, kept here: one %-template
                          per row, every cell formatted
- write.distinct          matrix._format_rows, which formats each distinct
                          real value once when at most half the cells are
                          distinct, and else falls back to the row template
  as CSV cells, on the wheel D^+ at n = 61, a tree D^+ at n = 60 and a real
  60 x 60 whose cells are all distinct (where the fallback runs);
- norm.guarded            the former frobenius, kept here: |a|^2 summed
                          inside np.errstate, for every input
- norm.dot                matrix.frobenius, one BLAS dot when the sum of
                          squares is finite and at least 2^-969
  in microseconds per call, on complex n x n inputs (n = 4, 16, 32, 64) and
  a real 32 x 32;
- cli.wheel_61            main(["wheel", "--n", "61", "--output", "x.csv"])
- cli.tree_24, cli.tree_26, cli.tree_40, cli.tree_60
                          main(["tree", "--input", ..., "--output", "x.json"])
                          on the zero-sum tree gen_zero_sum_tree(7, n)
  each also with the former writer patched in (suffix .rows_writer) and with
  the former frobenius patched into every module (suffix .guarded_norm).

It checks that the certified cores agree with both former Fill-Fishkind
routes to 1e-12 relative, that
both path-sum routes give the same distances to 1e-13 of max|D| and that
the closed form and the former LU route agree to 1e-13 relative, that both writers give
the same bytes (CSV and JSON cells, and every command's output file), that
both norms agree to 2 ulps, and
writes the medians in milliseconds with the machine's description to a JSON
file. It exits 1 if any check fails.
Only the standard library, numpy and pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/closed_form_layers.py
    PYTHONPATH=src python3 bench/closed_form_layers.py --out x.json --repeats 3

The first form writes BENCH_closed-form.json in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from collections import deque
from unittest import mock

import numpy as np
from ledger import median_ms, write_ledger

from pinvkit import circulant, cli, core, graphdist, linalg, matrix, sumdecomp
from pinvkit.cli import build_parser, main as cli_main
from pinvkit.core import penrose_residuals, pinv, projectors
from pinvkit.graphdist import (
    _auto_alpha,
    gen_zero_sum_tree,
    tree_build,
    tree_pinv,
    tree_shift_inverse,
    wheel_build,
    wheel_pinv,
)
from pinvkit.linalg import inverse, svd
from pinvkit.matrix import (
    _CSV_CELL,
    _JSON_PAIR,
    DEFAULT_TOL,
    PreconditionError,
    _format_rows,
    dumps_tree_csv,
    eye,
    frobenius,
)
from pinvkit.sumdecomp import fill_fishkind_pinv

# (n, rank A1, rank A2): the closed-form workload's slots, then one larger pair
FILL_FISHKIND_SLOTS = ((6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6), (32, 12, 14))
TREE_SIZES = (20, 30, 40, 50, 60)
NORM_SIZES = (4, 16, 32, 64)
NORM_LOOPS = 200
# every module that binds frobenius by name
NORM_USERS = (circulant, cli, core, graphdist, linalg, matrix, sumdecomp)
ARGV = {
    "pinv": ["pinv", "--method", "pair", "--input", "a.json", "--aux", "b.json",
             "--output", "x.csv"],
    "circ": ["circ", "--method", "zero-sum", "--gen", "1,-1,0", "--alpha", "2"],
    "tree": ["tree", "--input", "t.csv", "--output", "x.json"],
    "wheel": ["wheel", "--n", "61", "--output", "x.csv"],
}


def five_svd_fill_fishkind(a1: np.ndarray, a2: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """The former fill_fishkind_pinv, with its tie and additivity tests."""
    n = a1.shape[0]
    f1, f2, fs = svd(a1, tol), svd(a2, tol), svd(a1 + a2, tol)
    for f in (f1, f2, fs):
        cutoff = tol.rank_cutoff(f.sigma[0] if f.sigma.size else 0.0, n, n)
        if cutoff > 0 and np.any((f.sigma > cutoff / 4.0) & (f.sigma <= cutoff * 4.0)):
            raise PreconditionError("a singular value ties with the rank cutoff")
    if fs.rank != f1.rank + f2.rank:
        raise PreconditionError("rank additivity fails")
    _, p_null_a1_adj, _, p_null_a1 = projectors(a1, tol, factorization=f1)
    p_range_a2, _, p_range_a2_adj, _ = projectors(a2, tol, factorization=f2)
    left = pinv(p_range_a2_adj @ p_null_a1, tol)
    right = pinv(p_null_a1_adj @ p_range_a2, tol)
    x1, x2 = pinv(a1, tol, f1), pinv(a2, tol, f2)
    return (eye(n) - left) @ x1 @ (eye(n) - right) + left @ x2 @ right


def factored_cores_fill_fishkind(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """The former fill_fishkind_pinv, which factored both cores."""
    with mock.patch.object(sumdecomp, "_gram_pinv", lambda core, left: None):
        return fill_fishkind_pinv(a1, a2)


def per_root_path_sums(edges, n: int) -> np.ndarray:
    """The former path sums of tree_build: one BFS from every root."""
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        adjacency[i - 1].append((j - 1, w))
        adjacency[j - 1].append((i - 1, w))
    d = np.zeros((n, n))
    for root in range(n):
        dist = np.full(n, np.nan)
        dist[root] = 0.0
        queue = deque([root])
        while queue:
            at = queue.popleft()
            for nxt, w in adjacency[at]:
                if np.isnan(dist[nxt]):
                    dist[nxt] = dist[at] + w
                    queue.append(nxt)
        d[root] = dist
    return d


def lu_shift_pinv(tree, alpha: float) -> np.ndarray:
    """The former tree_pinv given an alpha: one LU inverse of
    D + alpha tau tau^t less the dyad, then its Penrose check."""
    tau = tree.tau
    dyad = np.outer(tau, tau) / (alpha * float(tau @ tau) ** 2)
    dpinv = inverse(tree.D + alpha * np.outer(tau, tau)).real - dyad
    penrose_residuals(tree.D, dpinv)
    return dpinv


def rows_format(a: np.ndarray, cell: str, sep: str) -> list[str]:
    """The former _format_rows: every row one %-format of its (re, im) pairs."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    template = sep.join([cell] * a.shape[1])
    return [template % tuple(row) for row in a.view(np.float64).tolist()]


def guarded_frobenius(a: np.ndarray) -> float:
    """The former frobenius: the sum of |a_ij|^2 inside np.errstate, redone
    on a / max|a_ij| only when that sum is not a normal finite number."""
    mag = np.abs(np.asarray(a))
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(mag**2)
        if np.finfo(np.float64).tiny <= total < np.inf or not mag.any():
            return float(np.sqrt(total))
        top = float(np.max(mag))
        if not np.isfinite(top):
            return top
        return top * float(np.sqrt(np.sum((mag / top) ** 2)))


def guarded_norm() -> contextlib.ExitStack:
    """A context that patches the former frobenius into every module."""
    stack = contextlib.ExitStack()
    for module in NORM_USERS:
        stack.enter_context(mock.patch.object(module, "frobenius", guarded_frobenius))
    return stack


def low_rank(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return g @ h


def measure_fill_fishkind(n: int, r1: int, r2: int, repeats: int) -> dict:
    rng = np.random.default_rng(100 * n + 10 * r1 + r2)
    a1, a2 = low_rank(rng, n, r1), low_rank(rng, n, r2)
    after = fill_fishkind_pinv(a1, a2)
    gaps = [
        frobenius(after - before) / frobenius(before)
        for before in (five_svd_fill_fishkind(a1, a2), factored_cores_fill_fishkind(a1, a2))
    ]
    return {
        "n": n, "r1": r1, "r2": r2,
        "median_ms": median_ms({
            "fill_fishkind.five_svd": lambda: five_svd_fill_fishkind(a1, a2),
            "fill_fishkind.factored_cores": lambda: factored_cores_fill_fishkind(a1, a2),
            "fill_fishkind.cores": lambda: fill_fishkind_pinv(a1, a2),
        }, repeats),
        "checks": {
            "relative_gap": gaps[0],
            "factored_cores_relative_gap": gaps[1],
            "agree": max(gaps) <= 1e-12,
        },
    }


def measure_tree(n: int, repeats: int) -> dict:
    tree = gen_zero_sum_tree(n, n)
    edges, alpha = tree.edges, _auto_alpha(tree, DEFAULT_TOL)
    before = per_root_path_sums(edges, n)
    gap = float(np.max(np.abs(tree.D - before)) / np.max(np.abs(before)))
    former = lu_shift_pinv(tree, alpha)
    pinv_gap = frobenius(tree_pinv(tree) - former) / frobenius(former)
    return {
        "n": n,
        "median_ms": median_ms({
            "tree.per_root_bfs": lambda: per_root_path_sums(edges, n),
            "tree.tree_build": lambda: tree_build(edges),
            "tree.closed_form": lambda: tree_pinv(tree),
            "tree.lu_shift": lambda: lu_shift_pinv(tree, alpha),
            "tree.shift_inverse": lambda: tree_shift_inverse(tree, alpha),
        }, repeats),
        "checks": {
            "relative_gap": gap,
            "pinv_relative_gap": pinv_gap,
            "agree": gap <= 1e-13 and pinv_gap <= 1e-13,
        },
    }


def measure_parser(repeats: int) -> dict:
    parser = build_parser()
    funcs = {"parser.build": build_parser.__wrapped__}
    for command, argv in ARGV.items():
        funcs[f"parser.parse.{command}"] = lambda argv=argv: parser.parse_args(argv)
    return {"median_ms": median_ms(funcs, repeats)}


def measure_writer(repeats: int) -> list[dict]:
    rng = np.random.default_rng(60)
    cases = {
        "wheel_61": wheel_pinv(wheel_build(61)),
        "tree_60": tree_pinv(gen_zero_sum_tree(7, 60)),
        "distinct_60": rng.standard_normal((60, 60)),
    }
    rows = []
    for name, a in cases.items():
        a = np.asarray(a, dtype=np.complex128)
        agree = all(rows_format(a, cell, sep) == _format_rows(a, cell, sep)
                    for cell, sep in ((_CSV_CELL, ","), (_JSON_PAIR, ", ")))
        rows.append({
            "case": name,
            "distinct_share": np.unique(a.real.view(np.int64)).size / a.size,
            "median_ms": median_ms({
                "write.rows": lambda a=a: rows_format(a, _CSV_CELL, ","),
                "write.distinct": lambda a=a: _format_rows(a, _CSV_CELL, ","),
            }, repeats),
            "checks": {"agree": agree},
        })
    return rows


def measure_norm(repeats: int) -> list[dict]:
    rng = np.random.default_rng(64)
    cases = {f"complex_{n}": low_rank(rng, n, n) / n for n in NORM_SIZES}
    cases["real_32"] = rng.standard_normal((32, 32))
    rows = []
    for name, a in cases.items():
        new, old = frobenius(a), guarded_frobenius(a)

        def loop(norm, a=a):
            for _ in range(NORM_LOOPS):
                norm(a)

        ms = median_ms({"norm.guarded": lambda: loop(guarded_frobenius),
                        "norm.dot": lambda: loop(frobenius)}, repeats)
        rows.append({
            "case": name,
            "median_us": {key: 1e3 * value / NORM_LOOPS for key, value in ms.items()},
            "checks": {"ulps": abs(new - old) / math.ulp(old), "agree": abs(new - old) <= 2 * math.ulp(old)},
        })
    return rows


def measure_cli(repeats: int) -> dict:
    """Each command end to end through main, with the writer and the norm as
    they are and with the former ones patched in; all must write the same
    bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = {"cli.wheel_61": ["wheel", "--n", "61", "--output", os.path.join(tmp, "x.csv")]}
        for n in (24, 26, 40, 60):
            edges = os.path.join(tmp, f"t{n}.csv")
            with open(edges, "w", encoding="utf-8") as handle:
                handle.write(dumps_tree_csv(gen_zero_sum_tree(7, n).edges))
            commands[f"cli.tree_{n}"] = ["tree", "--input", edges,
                                         "--output", os.path.join(tmp, f"x{n}.json")]

        def run(argv, patch=contextlib.nullcontext):
            with patch(), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            with open(argv[-1], "rb") as handle:
                return code, hashlib.sha256(handle.read()).hexdigest()

        variants = {
            "": contextlib.nullcontext,
            ".rows_writer": lambda: mock.patch.object(matrix, "_format_rows", rows_format),
            ".guarded_norm": guarded_norm,
        }
        outcomes = [{run(argv, patch) for patch in variants.values()} for argv in commands.values()]
        agree = all(len(seen) == 1 and next(iter(seen))[0] == 0 for seen in outcomes)
        funcs = {}
        for name, argv in commands.items():
            for suffix, patch in variants.items():
                funcs[name + suffix] = lambda argv=argv, patch=patch: run(argv, patch)
        return {"median_ms": median_ms(funcs, repeats), "checks": {"agree": agree}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_closed-form.json")
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    fill_fishkind = [measure_fill_fishkind(*slot, args.repeats) for slot in FILL_FISHKIND_SLOTS]
    trees = [measure_tree(n, args.repeats) for n in TREE_SIZES]
    writer = measure_writer(args.repeats)
    norm = measure_norm(args.repeats)
    cli = measure_cli(args.repeats)
    payload = write_ledger(
        args.out, "closed-form", args.repeats,
        fill_fishkind=fill_fishkind, tree=trees, parser=measure_parser(args.repeats),
        writer=writer, norm=norm, cli=cli,
    )
    for row in fill_fishkind + trees:
        label = f"n={row['n']:2d}" + (f" r={row['r1']}+{row['r2']}" if "r1" in row else "")
        ms = row["median_ms"]
        print(f"{label:<14}" + "  ".join(f"{key} {value:.2f}" for key, value in ms.items()))
    print("  ".join(f"{key} {value:.3f}" for key, value in payload["parser"]["median_ms"].items()))
    for row in writer:
        print(f"{row['case']:<14}" + "  ".join(
            f"{key} {value:.2f}" for key, value in row["median_ms"].items()))
    for row in norm:
        print(f"{row['case']:<14}" + "  ".join(
            f"{key} {value:.2f} us" for key, value in row["median_us"].items()))
    print("  ".join(f"{key} {value:.2f}" for key, value in cli["median_ms"].items()))
    checks = [row["checks"]["agree"] for row in fill_fishkind + trees + writer + norm]
    return 0 if all(checks) and cli["checks"]["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
