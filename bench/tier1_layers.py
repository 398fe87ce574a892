"""Wall time of the Tier-1 suite, per test file and in total.

It runs the suite as the Tier-1 command does, in a child process from the
repository root, with --durations=0 --durations-min=0 so pytest reports
the setup, call and teardown time of every test:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

and records:

- files      per test file: the tests run and the sum of their setup, call
             and teardown seconds, slowest file first
- tests_s    that sum over every test
- wall_s     the child's wall time, which adds interpreter start, imports
             and collection
- summary    pytest's last line, such as "999 passed, 1 xfailed in 46.5s"

With --repeats above 1 the suite runs that many times and each figure is
the median over the runs. The suite is long, so this ledger is not run in
CI, which runs the suite once already. The script exits 1 if any run
fails, and writes the figures with the machine's description to a JSON
file. Only the standard library is used, apart from ledger's numpy import.

    OPENBLAS_NUM_THREADS=1 python3 bench/tier1_layers.py
    python3 bench/tier1_layers.py --out x.json

The first form writes BENCH_tier1.json in the current directory.
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import statistics
import subprocess
import sys
import time

from ledger import write_ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"]
# "0.52s call     tests/test_cli.py::test_name[id]"
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+([^\s:]+)::(\S.*)$")


def run_suite() -> tuple[int, float, dict, str]:
    """One run: (exit status, wall seconds, {file: {test: seconds}}, summary)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    start = time.perf_counter()
    done = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    files: dict = collections.defaultdict(lambda: collections.defaultdict(float))
    for line in done.stdout.splitlines():
        match = DURATION.match(line)
        if match:
            seconds, _, path, test = match.groups()
            files[path][test] += float(seconds)
    lines = done.stdout.strip().splitlines()
    summary = lines[-1].strip("= ") if lines else done.stderr.strip()
    return done.returncode, wall, files, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_tier1.json")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    runs = [run_suite() for _ in range(args.repeats)]
    per_file = collections.defaultdict(list)
    for _, _, files, _ in runs:
        for path, tests in files.items():
            per_file[path].append((len(tests), sum(tests.values())))
    rows = sorted(
        (
            {
                "file": path,
                "tests": max(count for count, _ in values),
                "seconds": round(statistics.median(seconds for _, seconds in values), 3),
            }
            for path, values in per_file.items()
        ),
        key=lambda row: -row["seconds"],
    )
    passed = all(status == 0 for status, _, _, _ in runs)
    write_ledger(
        args.out,
        "tier1",
        args.repeats,
        command="PYTHONPATH=src " + " ".join(["python", *COMMAND[1:]]),
        passed=passed,
        summary=runs[-1][3],
        wall_s=round(statistics.median(wall for _, wall, _, _ in runs), 3),
        tests_s=round(statistics.median(
            sum(sum(tests.values()) for tests in files.values()) for _, _, files, _ in runs
        ), 3),
        files=rows,
    )
    for row in rows:
        print(f"{row['file']:<40} {row['tests']:5d} tests {row['seconds']:8.2f} s")
    print(runs[-1][3])
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
