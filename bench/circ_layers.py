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
- mul.strided        the former circ_mul, a @ (negative-stride view of
                     circ(b)), which numpy cannot pass to BLAS
- mul.numpy          circ_mul (np.convolve folded once), integer generators
- mul.*_complex      the two products on the complex generators of the check
- spectrum.dft       the dense DFT matrix product that circ_spectrum used
- spectrum.fft       circ_spectrum
- cli.circ_csv       pinvkit circ --gen ... --output x.csv, in process
- write.former       the former file writer: the whole CSV text joined,
                     encoded, hashed by one sha256 call and written
- write.blocks       the former streamed writer: row slices joined into
                     ~1 MB blocks, each written and hashed
- write.streamed     _write_atomic on circulant_csv_blocks: each row a slice
                     of one encoded buffer, hashed and written by os.writev
- parse.gen_*        a --gen argument and a generator JSON file, read cell
                     by cell (former) and in bulk (parse_generator,
                     loads_generator_json)

and, for square matrices of order 8 to 64 (the dense-oracle inputs):

- parse.csv_*        a matrix CSV, read cell by cell and by loads_matrix_csv
- parse.json_*       a matrix JSON, read entry by entry and by loads_matrix_json

It checks that every writer gives the same bytes and digests, that the
products agree (exactly on integers) and that each pair of parsers gives
the same bits, and writes the medians in milliseconds
with the machine's description to a JSON file. Only the standard library,
numpy and pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/circ_layers.py
    PYTHONPATH=src python3 bench/circ_layers.py --out x.json --repeats 3

The first form writes BENCH_circ-io.json in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
from ledger import median_ms, write_ledger

from pinvkit.circulant import (
    _circ_rows,
    block_pattern_generator,
    circ_materialize,
    circ_mul,
    circ_penrose_residuals,
    circ_pinv_spectral,
    circ_spectrum,
)
from pinvkit.cli import _write_atomic
from pinvkit.cli import main as cli_main
from pinvkit.core import penrose_residuals
from pinvkit.matrix import (
    DEFAULT_TOL,
    _CSV_CELL,
    _format_rows,
    _loads_matrix_csv_per_cell,
    _pair,
    as_matrix,
    as_vector,
    circulant_csv_blocks,
    dumps_circulant_csv,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    format_complex,
    loads_generator_json,
    loads_matrix_csv,
    loads_matrix_json,
    parse_complex,
    parse_generator,
)

SIZES = (64, 192, 512)
MATRIX_SIZES = (8, 16, 32, 64)


def entrywise_csv(a: np.ndarray) -> str:
    return "\n".join(",".join(format_complex(z) for z in row) for row in a) + "\n"


def python_loop_mul(a: list, b: list) -> list:
    n = len(a)
    return [sum(a[j] * b[(i - j) % n] for j in range(n)) for i in range(n)]


def strided_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The former circ_mul on int64 or complex inputs: the first row of
    circ(a) circ(b) as a product with a negative-stride view of circ(b)."""
    return a @ _circ_rows(b)


def dft_spectrum(gen: np.ndarray) -> np.ndarray:
    n = gen.shape[0]
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) @ gen


def former_write(path: str, text: str) -> str:
    """The former file writer: encode the whole text, write it through a
    temporary file beside path, hash it with one sha256 call."""
    data = text.encode()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    with os.fdopen(fd, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


def former_blocks(gen):
    """The former circulant_csv_blocks: row slices of the doubled encoded
    first row, joined into blocks of whole rows of about 1 MB."""
    first = _format_rows(gen[None, :], _CSV_CELL, ",")[0].encode()
    doubled = memoryview(first + b"," + first)
    commas = np.flatnonzero(np.frombuffer(first, dtype=np.uint8) == ord(","))
    starts = [0, *(commas[::-1] + 1).tolist()]
    width = len(first)
    step = max(1, (1 << 20) // (width + 1))
    for k in range(0, gen.shape[0], step):
        yield b"\n".join([*(doubled[s : s + width] for s in starts[k : k + step]), b""])


def block_write(path: str, gen) -> str:
    """The former block writer: each ~1 MB block written through a temporary
    file beside path and hashed as it comes."""
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    with os.fdopen(fd, "wb") as handle:
        for block in former_blocks(gen):
            handle.write(block)
            digest.update(block)
    os.replace(tmp, path)
    return digest.hexdigest()


def written(path: str, writer) -> tuple[str, bytes]:
    """(digest writer returns, bytes it left at path)."""
    digest = writer()
    with open(path, "rb") as handle:
        return digest, handle.read()


def former_generator(text: str):
    return as_vector([parse_complex(part) for part in text.split(",")], min_len=2)


def former_generator_json(text: str):
    return as_vector([_pair(entry, "generator JSON") for entry in json.loads(text)["gen"]])


def former_matrix_json(text: str):
    obj = json.loads(text)
    flat = [_pair(entry, "matrix JSON") for entry in obj["data"]]
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(obj["rows"], obj["cols"]))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def measure(n: int, repeats: int, workdir: str) -> dict:
    rng = np.random.default_rng(n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xgen = circ_pinv_spectral(gen)
    c, x = circ_materialize(gen), circ_materialize(xgen)
    tol = DEFAULT_TOL
    pattern = block_pattern_generator(3, n // 4)
    pattern_list = pattern.tolist()
    gen_text = ",".join(format_complex(z) for z in gen)
    arg = "--gen=" + gen_text
    out = os.path.join(workdir, "x.csv")
    gen_json = dumps_generator_json(gen)

    def cli_circ_csv():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["circ", arg, "--output", out]) != 0:
                raise RuntimeError("circ command failed")

    timings = median_ms({
        "csv.entrywise": lambda: entrywise_csv(circ_materialize(xgen)),
        "csv.dense_batched": lambda: dumps_matrix_csv(circ_materialize(xgen)),
        "csv.circulant": lambda: dumps_circulant_csv(xgen),
        "penrose.dense": lambda: penrose_residuals(c, x, tol),
        "penrose.circulant": lambda: circ_penrose_residuals(gen, xgen, tol),
        "mul.python_loop": lambda: python_loop_mul(pattern_list, pattern_list),
        "mul.strided": lambda: strided_mul(pattern, pattern),
        "mul.numpy": lambda: circ_mul(pattern, pattern),
        "mul.strided_complex": lambda: strided_mul(gen, xgen),
        "mul.numpy_complex": lambda: circ_mul(gen, xgen),
        "spectrum.dft": lambda: dft_spectrum(gen),
        "spectrum.fft": lambda: circ_spectrum(gen),
        "cli.circ_csv": cli_circ_csv,
        "write.former": lambda: former_write(out, dumps_circulant_csv(xgen)),
        "write.blocks": lambda: block_write(out, xgen),
        "write.streamed": lambda: _write_atomic(out, circulant_csv_blocks(xgen)),
        "parse.gen_former": lambda: former_generator(gen_text),
        "parse.gen_bulk": lambda: parse_generator(gen_text),
        "parse.gen_json_former": lambda: former_generator_json(gen_json),
        "parse.gen_json_bulk": lambda: loads_generator_json(gen_json),
    }, repeats)
    dense = penrose_residuals(c, x, tol)
    structured = circ_penrose_residuals(gen, xgen, tol)
    text = dumps_circulant_csv(xgen)
    cli_circ_csv()  # the timed writers ran last; check the command's own file
    with open(out, encoding="utf-8") as handle:
        cli_text = handle.read()
    checks = {
        "csv_identical": entrywise_csv(x) == dumps_matrix_csv(x) == dumps_circulant_csv(xgen),
        "cli_csv_identical": cli_text == entrywise_csv(x),
        "mul_identical": circ_mul(pattern, pattern).tolist()
        == strided_mul(pattern, pattern).tolist()
        == python_loop_mul(pattern_list, pattern_list),
        "mul_agree": bool(
            np.max(np.abs(circ_mul(gen, xgen) - strided_mul(gen, xgen)))
            <= 4 * n * np.finfo(float).eps * np.linalg.norm(gen) * np.linalg.norm(xgen)
        ),
        "penrose_dense_max": max(dense.residuals.values()),
        "penrose_circulant_max": max(structured.residuals.values()),
        "penrose_bounds": dict(dense.bounds),
        "same_verdict": dense.passed == structured.passed,
        "write_identical": len({
            written(out, lambda: former_write(out, text)),
            written(out, lambda: block_write(out, xgen)),
            written(out, lambda: _write_atomic(out, circulant_csv_blocks(xgen))),
            (hashlib.sha256(text.encode()).hexdigest(), text.encode()),
        }) == 1,
        "parse_identical": same_bits(former_generator(gen_text), parse_generator(gen_text))
        and same_bits(former_generator_json(gen_json), loads_generator_json(gen_json)),
    }
    return {"n": n, "csv_bytes": len(dumps_circulant_csv(xgen)), "median_ms": timings,
            "checks": checks}


def measure_matrix_parse(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    csv_text, json_text = dumps_matrix_csv(a), dumps_matrix_json(a)
    timings = median_ms({
        "parse.csv_former": lambda: _loads_matrix_csv_per_cell(csv_text),
        "parse.csv_bulk": lambda: loads_matrix_csv(csv_text),
        "parse.json_former": lambda: former_matrix_json(json_text),
        "parse.json_bulk": lambda: loads_matrix_json(json_text),
    }, repeats)
    checks = {
        "csv_identical": same_bits(_loads_matrix_csv_per_cell(csv_text), loads_matrix_csv(csv_text)),
        "json_identical": same_bits(former_matrix_json(json_text), loads_matrix_json(json_text)),
    }
    return {"n": n, "csv_bytes": len(csv_text), "json_bytes": len(json_text),
            "median_ms": timings, "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_circ-io.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = [measure(n, args.repeats, workdir) for n in SIZES]
    parse_rows = [measure_matrix_parse(n, args.repeats) for n in MATRIX_SIZES]
    write_ledger(args.out, "circ-io", args.repeats, sizes=rows, matrix_parse=parse_rows)
    for row in rows + parse_rows:
        ms = row["median_ms"]
        print(f"n={row['n']:4d}  " + "  ".join(f"{key} {value:.2f}" for key, value in ms.items()))
    flags = ("csv_identical", "cli_csv_identical", "mul_identical", "mul_agree", "same_verdict",
             "write_identical", "parse_identical", "json_identical")
    ok = all(row["checks"][flag] for row in rows + parse_rows for flag in flags
             if flag in row["checks"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
