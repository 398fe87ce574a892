"""Layer timings of the circ command: dense versus generator-cost paths.

For each size n it times, as the median of several repeats:

- csv.dense          dumps_matrix_csv(circ_materialize(gen))
- penrose.dense      penrose_residuals on the two materialized matrices
- penrose.circulant  circ_penrose_residuals on the two generators
- mul.int            circ_mul (np.convolve folded once), integer generators
- mul.complex        circ_mul on the complex generators of the check
- spectrum           circ_spectrum
- spectrum.real      circ_spectrum of a real generator: the real FFT, mirrored
- route.zero_sum     zero_sum_shift_pinv on a real zero-sum generator (the
                     shifted branch), whose X is real
- route.two_term_generic
                     two_term_pinv on a complex pair in neither singular
                     family, which inverts its own generator's spectrum
- route.block_k1     block_pattern_pinv at k = 1 and k = 3 with q = n / (k + 1),
- route.block_k3     the block sizes of the benchmark's circulant-io workload;
                     each re-proves C^2 = n C on one period of k + 1 entries
- cli.circ_csv       pinvkit circ --gen ... --output x.csv, in process
- cli.circ_json      pinvkit circ --input g.json --output x.json, in process:
                     the spectral method on a generator JSON file, the
                     circulant-io workload's typical operation at n = 192
- write.streamed     _write_atomic on circulant_csv_blocks: each row a slice
                     of one encoded buffer, hashed and written by os.writev
- write.streamed_real
                     the same for the real X of route.zero_sum, whose cells
                     end in "+0i"
- parse.gen_*        a --gen argument and a generator JSON file, read entry
                     by entry (per_entry, the fallback of parse_generator
                     and of _pairs) and in bulk (parse_generator,
                     loads_generator_json)

at n = 64, 256 and 512:

- report.line        _print_report on a circ report, whose extras hold the
                     n support indices, as main prints it without --pretty

and, for square matrices of order 8 to 64 (the dense-oracle inputs):

- parse.csv_*        a matrix CSV, read cell by cell and by loads_matrix_csv
- parse.json_*       a matrix JSON, read entry by entry and by loads_matrix_json

It checks that the dense CSV writer, the circ command's file and the
streamed writer give the same bytes, that the JSON command's report gives
the support of circ_spectrum, that the generic two-term X has the bytes of
circ_pinv_spectral on its generator, that the streamed writer's digest is the
sha256 of those bytes, that the real X's imaginary parts are +0.0 and its
streamed CSV equals dumps_matrix_csv(circ_materialize(x)), that the dense and the generator Penrose checks give
the same verdict, that each pair of parsers gives the same bits and that the
report line is the strict JSON of a dump, load and dump of the report. It
exits 1 if any check fails, and writes the medians in milliseconds with the
machine's description to a JSON file. Only the standard library, numpy and
pinvkit are used.

The medians compare the variants inside one process. To compare two
checkouts, alternate runs of each: a whole process's speed can move by 1.6x
from run to run on a shared host.

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
    _two_term_generator,
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_mul,
    circ_penrose_residuals,
    circ_pinv_spectral,
    circ_spectrum,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import _print_report, _write_atomic
from pinvkit.cli import main as cli_main
from pinvkit.core import penrose_residuals
from pinvkit.matrix import (
    DEFAULT_TOL,
    _loads_matrix_csv_per_cell,
    _pair,
    as_matrix,
    as_vector,
    circulant_csv_blocks,
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
REPORT_SIZES = (64, 256, 512)
MATRIX_SIZES = (8, 16, 32, 64)


def written(path: str, writer) -> tuple[str, bytes]:
    """(digest writer returns, bytes it left at path)."""
    digest = writer()
    with open(path, "rb") as handle:
        return digest, handle.read()


def per_entry_generator(text: str):
    """parse_generator's fallback: parse_complex on each entry."""
    return as_vector([parse_complex(part) for part in text.split(",")], min_len=2)


def per_entry_generator_json(text: str):
    """loads_generator_json with _pairs' fallback: _pair on each entry."""
    return as_vector([_pair(entry, "generator JSON") for entry in json.loads(text)["gen"]])


def per_entry_matrix_json(text: str):
    """loads_matrix_json with _pairs' fallback: _pair on each entry."""
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
    real = rng.standard_normal(n)
    real -= real.mean()
    xreal = zero_sum_shift_pinv(real, alpha=1.5)
    tol = DEFAULT_TOL
    pattern = block_pattern_generator(3, n // 4)
    pair = (2.0, 0.5 - 0.25j, n, 3)  # alpha, beta, n, k_pos
    gen_text = ",".join(format_complex(z) for z in gen)
    arg = "--gen=" + gen_text
    out = os.path.join(workdir, "x.csv")
    gen_json = dumps_generator_json(gen)
    gen_path = os.path.join(workdir, "g.json")
    with open(gen_path, "w", encoding="utf-8") as handle:
        handle.write(gen_json)

    def cli_circ(argv) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            if cli_main(["circ", *argv]) != 0:
                raise RuntimeError("circ command failed")
        return printed.getvalue()

    def cli_circ_csv():
        cli_circ([arg, "--output", out])

    def cli_circ_json():
        return cli_circ(["--input", gen_path, "--output", os.path.join(workdir, "x.json")])

    timings = median_ms({
        "csv.dense": lambda: dumps_matrix_csv(circ_materialize(xgen)),
        "penrose.dense": lambda: penrose_residuals(c, x, tol),
        "penrose.circulant": lambda: circ_penrose_residuals(gen, xgen, tol),
        "mul.int": lambda: circ_mul(pattern, pattern),
        "mul.complex": lambda: circ_mul(gen, xgen),
        "spectrum": lambda: circ_spectrum(gen),
        "spectrum.real": lambda: circ_spectrum(real),
        "route.zero_sum": lambda: zero_sum_shift_pinv(real, alpha=1.5),
        "route.two_term_generic": lambda: two_term_pinv(*pair),
        "route.block_k1": lambda: block_pattern_pinv(1.5, -0.7, 1, n // 2),
        "route.block_k3": lambda: block_pattern_pinv(1.5, -0.7, 3, n // 4),
        "cli.circ_csv": cli_circ_csv,
        "cli.circ_json": cli_circ_json,
        "write.streamed": lambda: _write_atomic(out, circulant_csv_blocks(xgen)),
        "write.streamed_real": lambda: _write_atomic(out, circulant_csv_blocks(xreal)),
        "parse.gen_per_entry": lambda: per_entry_generator(gen_text),
        "parse.gen_bulk": lambda: parse_generator(gen_text),
        "parse.gen_json_per_entry": lambda: per_entry_generator_json(gen_json),
        "parse.gen_json_bulk": lambda: loads_generator_json(gen_json),
    }, repeats)
    dense = penrose_residuals(c, x, tol)
    structured = circ_penrose_residuals(gen, xgen, tol)
    text = b"".join(circulant_csv_blocks(xgen)).decode()
    cli_circ_csv()  # the timed writer ran last; check the command's own file
    with open(out, encoding="utf-8") as handle:
        cli_text = handle.read()
    checks = {
        "csv_identical": dumps_matrix_csv(x) == text,
        "cli_csv_identical": cli_text == text,
        "support_identical": json.loads(cli_circ_json())["extras"]["support"]
        == list(circ_spectrum(gen).support),
        "two_term_identical": same_bits(two_term_pinv(*pair),
                                        circ_pinv_spectral(_two_term_generator(*pair))),
        "penrose_dense_max": max(dense.residuals.values()),
        "penrose_circulant_max": max(structured.residuals.values()),
        "penrose_bounds": dict(dense.bounds),
        "same_verdict": dense.passed == structured.passed,
        "write_identical": written(out, lambda: _write_atomic(out, circulant_csv_blocks(xgen)))
        == (hashlib.sha256(text.encode()).hexdigest(), text.encode()),
        "real_csv_identical": not xreal.imag.any() and not np.signbit(xreal.imag).any()
        and written(out, lambda: _write_atomic(out, circulant_csv_blocks(xreal)))[1]
        == dumps_matrix_csv(circ_materialize(xreal)).encode(),
        "parse_identical": same_bits(per_entry_generator(gen_text), parse_generator(gen_text))
        and same_bits(per_entry_generator_json(gen_json), loads_generator_json(gen_json)),
    }
    return {"n": n, "csv_bytes": len(text),
            "csv_bytes_real": sum(map(len, circulant_csv_blocks(xreal))), "median_ms": timings,
            "checks": checks}


def report_line(report: dict) -> str:
    """What _print_report(report, False) prints."""
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        _print_report(report, False)
    return printed.getvalue()


def measure_report(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(2000 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        if cli_main(["circ", "--gen=" + ",".join(format_complex(z) for z in gen)]) != 0:
            raise RuntimeError("circ command failed")
    report = json.loads(printed.getvalue())
    line = report_line(report)
    strict = json.loads(json.dumps(report), parse_constant=lambda _: None)
    return {
        "n": n,
        "line_bytes": len(line),
        "median_ms": median_ms({"report.line": lambda: report_line(report)}, repeats),
        "checks": {"report_identical": line == json.dumps(strict, allow_nan=False) + "\n"},
    }


def measure_matrix_parse(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    csv_text, json_text = dumps_matrix_csv(a), dumps_matrix_json(a)
    timings = median_ms({
        "parse.csv_per_cell": lambda: _loads_matrix_csv_per_cell(csv_text),
        "parse.csv_bulk": lambda: loads_matrix_csv(csv_text),
        "parse.json_per_entry": lambda: per_entry_matrix_json(json_text),
        "parse.json_bulk": lambda: loads_matrix_json(json_text),
    }, repeats)
    checks = {
        "csv_identical": same_bits(_loads_matrix_csv_per_cell(csv_text), loads_matrix_csv(csv_text)),
        "json_identical": same_bits(per_entry_matrix_json(json_text), loads_matrix_json(json_text)),
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
    report_rows = [measure_report(n, args.repeats) for n in REPORT_SIZES]
    parse_rows = [measure_matrix_parse(n, args.repeats) for n in MATRIX_SIZES]
    write_ledger(args.out, "circ-io", args.repeats, sizes=rows, report_line=report_rows,
                 matrix_parse=parse_rows)
    for row in rows + report_rows + parse_rows:
        ms = row["median_ms"]
        print(f"n={row['n']:4d}  " + "  ".join(f"{key} {value:.2f}" for key, value in ms.items()))
    flags = ("csv_identical", "cli_csv_identical", "support_identical", "two_term_identical",
             "same_verdict", "write_identical",
             "real_csv_identical",
             "parse_identical", "report_identical", "json_identical")
    ok = all(row["checks"][flag] for row in rows + report_rows + parse_rows for flag in flags
             if flag in row["checks"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
