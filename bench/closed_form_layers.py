"""Layer timings of the closed-form routes and the commands that run them.

It times, as the median of several repeats:

- fill_fishkind.factored_cores
                          fill_fishkind_pinv with both cores factored by
                          one svd_batch call, the fallback it takes when
                          core._admitted refuses a core's Gram inverse
- fill_fishkind.cores     fill_fishkind_pinv, which inverts the products
                          through cores with rank(A2) rows or columns, each
                          by one Gram solve that core._admitted keeps
  at the closed-form workload's five (n, rank A1, rank A2) slots and at
  (32, 12, 14);
- tree.tree_build         tree_build as a whole: one BFS, the ancestor
                          product, the Laplacian and its two checks
- tree.closed_form        tree_pinv(tree): D^+ = -L/2 + u tau^t + tau u^t,
                          the D L rank margin and one Penrose check
- tree.shift_inverse      tree_shift_inverse(tree, alpha): tree_pinv plus
                          the dyad, the inverse of D + alpha tau tau^t
  at the automatic alpha, on zero-sum trees with n = 20 to 60 vertices;
- parser.build            building the parser, as main did on every call
- parser.parse            cli._parse_command_line, the parse main makes, per
                          subcommand: the subcommand's own parser only;
- write.format_rows       matrix._format_rows as CSV cells, which formats
                          each distinct real value once when at most half
                          the cells are distinct, and else falls back to one
                          %-template per row, on the wheel D^+ at n = 61, a
                          tree D^+ at n = 60 and a real 60 x 60 whose cells
                          are all distinct (where the fallback runs);
- norm.frobenius          matrix.frobenius in microseconds per call, on
                          complex n x n inputs (n = 4, 16, 32, 64) and a
                          real 32 x 32;
- cli.wheel_61            main(["wheel", "--n", "61", "--output", "x.csv"])
- cli.tree_24, cli.tree_26, cli.tree_40, cli.tree_60
                          main(["tree", "--input", ..., "--output", "x.json"])
                          on the zero-sum tree gen_zero_sum_tree(7, n).

It checks that the Fill-Fishkind route with certified cores agrees with its
factored-cores fallback to 1e-12 relative and that every command exits 0,
and writes the medians in milliseconds with the machine's description to a
JSON file. It exits 1 if any check fails. Only the standard library, numpy
and pinvkit are used.

The medians compare the variants inside one process. To compare two
checkouts, alternate runs of each: a whole process's speed can move by 1.6x
from run to run on a shared host.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/closed_form_layers.py
    PYTHONPATH=src python3 bench/closed_form_layers.py --out x.json --repeats 3

The first form writes BENCH_closed-form.json in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from unittest import mock

import numpy as np
from ledger import median_ms, write_ledger

from pinvkit import sumdecomp
from pinvkit.cli import _parse_command_line, build_parser, main as cli_main
from pinvkit.graphdist import (
    _auto_alpha,
    gen_zero_sum_tree,
    tree_build,
    tree_pinv,
    tree_shift_inverse,
    wheel_build,
    wheel_pinv,
)
from pinvkit.matrix import _CSV_CELL, DEFAULT_TOL, _format_rows, dumps_tree_csv, frobenius
from pinvkit.sumdecomp import fill_fishkind_pinv

# (n, rank A1, rank A2): the closed-form workload's slots, then one larger pair
FILL_FISHKIND_SLOTS = ((6, 2, 3), (8, 3, 4), (8, 2, 2), (10, 4, 5), (12, 3, 6), (32, 12, 14))
TREE_SIZES = (20, 30, 40, 50, 60)
NORM_SIZES = (4, 16, 32, 64)
NORM_LOOPS = 200
ARGV = {
    "pinv": ["pinv", "--method", "pair", "--input", "a.json", "--aux", "b.json",
             "--output", "x.csv"],
    "circ": ["circ", "--method", "zero-sum", "--gen", "1,-1,0", "--alpha", "2"],
    "tree": ["tree", "--input", "t.csv", "--output", "x.json"],
    "wheel": ["wheel", "--n", "61", "--output", "x.csv"],
}


def factored_cores_fill_fishkind(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """fill_fishkind_pinv with its Gram inverses refused, so both cores are
    factored by its svd_batch fallback."""
    with mock.patch.object(sumdecomp, "_gram_pinv", lambda core, left: None):
        return fill_fishkind_pinv(a1, a2)


def low_rank(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return g @ h


def measure_fill_fishkind(n: int, r1: int, r2: int, repeats: int) -> dict:
    rng = np.random.default_rng(100 * n + 10 * r1 + r2)
    a1, a2 = low_rank(rng, n, r1), low_rank(rng, n, r2)
    cores, factored = fill_fishkind_pinv(a1, a2), factored_cores_fill_fishkind(a1, a2)
    gap = frobenius(cores - factored) / frobenius(factored)
    return {
        "n": n, "r1": r1, "r2": r2,
        "median_ms": median_ms({
            "fill_fishkind.factored_cores": lambda: factored_cores_fill_fishkind(a1, a2),
            "fill_fishkind.cores": lambda: fill_fishkind_pinv(a1, a2),
        }, repeats),
        "checks": {"relative_gap": gap, "agree": gap <= 1e-12},
    }


def measure_tree(n: int, repeats: int) -> dict:
    tree = gen_zero_sum_tree(n, n)
    edges, alpha = tree.edges, _auto_alpha(tree, DEFAULT_TOL)
    return {
        "n": n,
        "median_ms": median_ms({
            "tree.tree_build": lambda: tree_build(edges),
            "tree.closed_form": lambda: tree_pinv(tree),
            "tree.shift_inverse": lambda: tree_shift_inverse(tree, alpha),
        }, repeats),
    }


def measure_parser(repeats: int) -> dict:
    funcs = {"parser.build": build_parser.__wrapped__}
    for command, argv in ARGV.items():
        funcs[f"parser.parse.{command}"] = lambda argv=argv: _parse_command_line(argv)
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
        rows.append({
            "case": name,
            "distinct_share": np.unique(a.real.view(np.int64)).size / a.size,
            "median_ms": median_ms({
                "write.format_rows": lambda a=a: _format_rows(a, _CSV_CELL, ","),
            }, repeats),
        })
    return rows


def measure_norm(repeats: int) -> list[dict]:
    rng = np.random.default_rng(64)
    cases = {f"complex_{n}": low_rank(rng, n, n) / n for n in NORM_SIZES}
    cases["real_32"] = rng.standard_normal((32, 32))
    rows = []
    for name, a in cases.items():

        def loop(a=a):
            for _ in range(NORM_LOOPS):
                frobenius(a)

        ms = median_ms({"norm.frobenius": loop}, repeats)
        rows.append({
            "case": name,
            "median_us": {key: 1e3 * value / NORM_LOOPS for key, value in ms.items()},
        })
    return rows


def measure_cli(repeats: int) -> dict:
    """Each command end to end through main; every one must exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        commands = {"cli.wheel_61": ["wheel", "--n", "61", "--output", os.path.join(tmp, "x.csv")]}
        for n in (24, 26, 40, 60):
            edges = os.path.join(tmp, f"t{n}.csv")
            with open(edges, "w", encoding="utf-8") as handle:
                handle.write(dumps_tree_csv(gen_zero_sum_tree(7, n).edges))
            commands[f"cli.tree_{n}"] = ["tree", "--input", edges,
                                         "--output", os.path.join(tmp, f"x{n}.json")]

        def run(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli_main(argv)

        exit_0 = all(run(argv) == 0 for argv in commands.values())
        funcs = {name: lambda argv=argv: run(argv) for name, argv in commands.items()}
        return {"median_ms": median_ms(funcs, repeats), "checks": {"exit_0": exit_0}}


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
    agree = all(row["checks"]["agree"] for row in fill_fishkind)
    return 0 if agree and cli["checks"]["exit_0"] else 1


if __name__ == "__main__":
    sys.exit(main())
