"""Layer timings of the circ command: dense versus generator-cost paths.

For each size n it times, as the median of several repeats:

- csv.entrywise      the per-entry writer (format_complex on each of the n^2
                     entries of circ_materialize(gen)), kept here as the
                     reference the batched writers replaced
- csv.dense_batched  dumps_matrix_csv(circ_materialize(gen))
- csv.circulant      dumps_circulant_csv(gen)
- penrose.dense      penrose_residuals on the two materialized matrices
- penrose.circulant  circ_penrose_residuals on the two generators
- mul.python_loop    the cyclic convolution as n^2 Python products
- mul.numpy          circ_mul (one numpy product, integer generators)
- spectrum.dft       the dense DFT matrix product that circ_spectrum used
- spectrum.fft       circ_spectrum
- cli.circ_csv       pinvkit circ --gen ... --output x.csv, in process

It checks that each pair of writers gives the same bytes, and writes the
medians in milliseconds with the machine's description to a JSON file.
Only the standard library, numpy and pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/circ_layers.py
    PYTHONPATH=src python3 bench/circ_layers.py --out x.json --repeats 3

The first form writes BENCH_circ-io.json in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

from pinvkit.circulant import (
    block_pattern_generator,
    circ_materialize,
    circ_mul,
    circ_penrose_residuals,
    circ_pinv_spectral,
    circ_spectrum,
)
from pinvkit.cli import main as cli_main
from pinvkit.core import penrose_residuals
from pinvkit.matrix import (
    DEFAULT_TOL,
    dumps_circulant_csv,
    dumps_matrix_csv,
    format_complex,
)

SIZES = (64, 192, 512)


def entrywise_csv(a: np.ndarray) -> str:
    return "\n".join(",".join(format_complex(z) for z in row) for row in a) + "\n"


def python_loop_mul(a: list, b: list) -> list:
    n = len(a)
    return [sum(a[j] * b[(i - j) % n] for j in range(n)) for i in range(n)]


def dft_spectrum(gen: np.ndarray) -> np.ndarray:
    n = gen.shape[0]
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) @ gen


def median_ms(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def measure(n: int, repeats: int, workdir: str) -> dict:
    rng = np.random.default_rng(n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xgen = circ_pinv_spectral(gen).gen
    c, x = circ_materialize(gen), circ_materialize(xgen)
    tol = DEFAULT_TOL
    pattern = block_pattern_generator(3, n // 4)
    pattern_list = pattern.tolist()
    arg = "--gen=" + ",".join(format_complex(z) for z in gen)
    out = os.path.join(workdir, "x.csv")

    def cli_circ_csv():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["circ", arg, "--output", out]) != 0:
                raise RuntimeError("circ command failed")

    timings = {
        "csv.entrywise": median_ms(lambda: entrywise_csv(circ_materialize(xgen)), repeats),
        "csv.dense_batched": median_ms(lambda: dumps_matrix_csv(circ_materialize(xgen)), repeats),
        "csv.circulant": median_ms(lambda: dumps_circulant_csv(xgen), repeats),
        "penrose.dense": median_ms(lambda: penrose_residuals(c, x, tol), repeats),
        "penrose.circulant": median_ms(lambda: circ_penrose_residuals(gen, xgen, tol), repeats),
        "mul.python_loop": median_ms(lambda: python_loop_mul(pattern_list, pattern_list), repeats),
        "mul.numpy": median_ms(lambda: circ_mul(pattern, pattern), repeats),
        "spectrum.dft": median_ms(lambda: dft_spectrum(gen), repeats),
        "spectrum.fft": median_ms(lambda: circ_spectrum(gen), repeats),
        "cli.circ_csv": median_ms(cli_circ_csv, repeats),
    }
    dense = penrose_residuals(c, x, tol)
    structured = circ_penrose_residuals(gen, xgen, tol)
    checks = {
        "csv_identical": entrywise_csv(x) == dumps_matrix_csv(x) == dumps_circulant_csv(xgen),
        "cli_csv_identical": open(out, encoding="utf-8").read() == entrywise_csv(x),
        "mul_identical": circ_mul(pattern, pattern).tolist() == python_loop_mul(pattern_list, pattern_list),
        "penrose_dense_max": max(dense.residuals.values()),
        "penrose_circulant_max": max(structured.residuals.values()),
        "penrose_bounds": dict(dense.bounds),
        "same_verdict": dense.passed == structured.passed,
    }
    return {"n": n, "csv_bytes": len(dumps_circulant_csv(xgen)), "median_ms": timings,
            "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_circ-io.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = [measure(n, args.repeats, workdir) for n in SIZES]
    payload = {
        "label": "circ-io",
        "repeats": args.repeats,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        },
        "sizes": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for row in rows:
        ms = row["median_ms"]
        print(f"n={row['n']:4d}  " + "  ".join(f"{key} {value:.2f}" for key, value in ms.items()))
    ok = all(row["checks"]["csv_identical"] and row["checks"]["cli_csv_identical"]
             and row["checks"]["mul_identical"] and row["checks"]["same_verdict"] for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
