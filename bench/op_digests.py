"""Digests of every benchmark operation, each run once in-process.

It builds the operation lists of the three perfbench workloads at one seed,
with perfbench/workloads.py (imported, never changed), and runs each
operation once: a pinvkit.cli.main call, or fill_fishkind_pinv for the
library operation. For each it prints one line:

    <workload>/<id> <exit> <output sha256> <report sha256> <X sha256>

- exit       main's exit code, 0 for a library call that returned, or the
             name of the exception that escaped
- output     the sha256 of the file the operation wrote
- report     the sha256 of the report line without wall_time_s, as JSON with
             sorted keys
- X          the sha256 of the Fill-Fishkind X's bytes

A field that does not apply reads "-". Two checkouts run at the same seed
print the same lines exactly when every operation kept its exit code, its
output bytes, its report apart from wall time, and every Fill-Fishkind X
its bytes; diff the two listings to see which did not. It exits 1 when an
exception escapes an operation, else 0. Only the standard library, numpy
and pinvkit are used.

    PYTHONPATH=src python3 bench/op_digests.py --seed 7 > digests-7.txt
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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from pinvkit.cli import main as cli_main  # noqa: E402
from pinvkit.sumdecomp import fill_fishkind_pinv  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_op(op: dict, out_dir: str) -> tuple[str, str, str, str]:
    """(exit, output digest, report digest, X digest) of one operation."""
    if op["cmd"] == "fill_fishkind":
        try:
            x = fill_fishkind_pinv(*(np.load(path) for path in op["inputs"]))
        except Exception as exc:  # reported in the exit field
            return type(exc).__name__, "-", "-", "-"
        return "0", "-", "-", sha256(np.ascontiguousarray(x).tobytes())
    out = os.path.join(out_dir, f"{op['id']}{op['out'] or ''}")
    argv = [out if arg == "{out}" else arg for arg in op["argv"]]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    except Exception as exc:
        return type(exc).__name__, "-", "-", "-"
    lines = stdout.getvalue().strip().splitlines()
    report = "-"
    if lines:
        stable = {k: v for k, v in json.loads(lines[-1]).items() if k != "wall_time_s"}
        report = sha256(json.dumps(stable, sort_keys=True).encode())
    written = "-"
    if op["out"] and os.path.exists(out):
        with open(out, "rb") as handle:
            written = sha256(handle.read())
    return str(code), written, report, "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    escaped = False
    with tempfile.TemporaryDirectory() as workdir:
        for name, build in WORKLOADS.items():
            ops = build(os.path.join(workdir, name), args.seed)
            out_dir = os.path.join(workdir, name, "out")
            os.makedirs(out_dir)
            for op in ops:
                fields = digest_op(op, out_dir)
                escaped = escaped or not fields[0].isdigit()
                print(f"{name}/{op['id']}", *fields)
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
