"""Wall times of acceptance criteria 1 and 4, called as plain functions.

It times, as interleaved medians of several repeats:

- criterion_1   test_criterion_1_oracle_self_consistency: 200 seeded
                matrices up to 32 x 32, each through pinv, the Penrose
                residuals and the characterization residuals
- criterion_4   test_criterion_4_circulant_sweep: every closed-form
                circulant path at n = 3 to 64 against the spectral route
                and the dense oracle

Both are imported from tests/test_acceptance.py and called directly, with
no pytest run. Each call asserts its own criterion; the verdict line it
prints is kept out of stdout and stored with its timing. The script exits 1
if either criterion fails on any repeat, and writes the medians in
milliseconds with the machine's description to a JSON file. Only the
standard library, numpy and pinvkit are used.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 bench/acceptance_layers.py
    PYTHONPATH=src python3 bench/acceptance_layers.py --out x.json --repeats 1

The first form writes BENCH_acceptance.json in the current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from ledger import median_ms, write_ledger

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from test_acceptance import (  # noqa: E402
    test_criterion_1_oracle_self_consistency,
    test_criterion_4_circulant_sweep,
)

CRITERIA = {
    "criterion_1": test_criterion_1_oracle_self_consistency,
    "criterion_4": test_criterion_4_circulant_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_acceptance.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    verdicts = {name: [] for name in CRITERIA}

    def call(name):
        def run():
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    CRITERIA[name]()
                passed = True
            except AssertionError:
                passed = False
            verdicts[name].append((passed, printed.getvalue().strip()))
        return run

    ms = median_ms({name: call(name) for name in CRITERIA}, args.repeats)
    rows = [
        {
            "criterion": name,
            "test": CRITERIA[name].__name__,
            "median_ms": ms[name],
            "passed": all(passed for passed, _ in verdicts[name]),
            "verdict": verdicts[name][-1][1],
        }
        for name in CRITERIA
    ]
    write_ledger(args.out, "acceptance", args.repeats, criteria=rows)
    for row in rows:
        print(f"{row['criterion']:<12} {row['median_ms']:9.1f} ms  passed {row['passed']}")
    return 0 if all(row["passed"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
