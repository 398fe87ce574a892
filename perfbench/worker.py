"""Closed-loop client: runs one workload's operations in this process.

Usage: python3 worker.py PLAN.json RESULT.json

The plan (written by run.py) holds the operation list, the source directory
to import pinvkit from, the time budget and whether to trace. One client
starts each operation after the previous one returns, and repeats the whole
list until the budget is spent, so every run executes the same mix. Each
operation is one pinvkit.cli.main(argv) call, except fill_fishkind, which
has no subcommand and is called from the library.

Only the call itself is timed. Hashing and moving output files happen
between operations, outside the timed region. The calibration kernel
(calibrate.py) is timed just before and just after each operation; both
times are recorded with the operation and left out of the phase's wall
time. The first pass keeps every
output for run.py to check. A later pass keeps an output only when its
digest differs from the first pass.

One unmeasured warm-up pass comes first; its operations are still checked.
With tracing on, the list is then run untraced for half the budget, and the
same number of passes again with tracing, so the two phases compare
directly.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import calibrate


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Client:
    def __init__(self, plan: dict):
        import numpy as np
        import pinvkit
        import pinvkit.cli

        self.np = np
        self.pinvkit = pinvkit
        self.ops = plan["ops"]
        self.keep = plan["keep_dir"]
        self.scratch = plan["scratch_dir"]
        self.arrays = {
            op["id"]: [np.load(path) for path in op["inputs"]]
            for op in self.ops if op["cmd"] == "fill_fishkind"
        }
        self.first: dict[str, str] = {}  # op id -> digest of the first pass
        self.records: list[dict] = []
        self.pass_no = 0
        self.calib_s = 0.0  # kernel time so far, left out of phase wall times
        self.deadline = time.perf_counter() + plan["limit"]

    def run_cli(self, argv: list[str]) -> tuple[int, dict | None]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pinvkit.cli.main(argv)
        lines = buf.getvalue().strip().splitlines()
        return code, json.loads(lines[-1]) if lines else None

    def run_fill_fishkind(self, a1, a2):
        # looked up at call time so that traced wrappers apply
        x = self.pinvkit.sumdecomp.fill_fishkind_pinv(a1, a2)
        total = a1 + a2
        report = self.pinvkit.core.penrose_residuals(
            total, x, self.pinvkit.matrix.DEFAULT_TOL.scaled_for(total)
        )
        return x, bool(report.passed)

    def one(self, op: dict, tracer) -> None:
        out = None
        if op["out"]:
            folder = self.keep if self.pass_no == 0 else self.scratch
            out = os.path.join(folder, f"{op['id']}.p{self.pass_no}{op['out']}")
        argv = [out if arg == "{out}" else arg for arg in op["argv"]]
        rec = {"op": op["id"], "pass": self.pass_no, "exit": None, "report": None,
               "error": None, "file_digest": None, "kept": None}
        x = None
        before = calibrate.sample()
        if tracer is not None:
            tracer.op = f"{self.pass_no}/{op['id']}"
        start = time.perf_counter()
        try:
            if op["cmd"] == "fill_fishkind":
                x, passed = self.run_fill_fishkind(*self.arrays[op["id"]])
                rec["exit"], rec["report"] = 0, {"passed": passed}
            else:
                rec["exit"], rec["report"] = self.run_cli(argv)
        except Exception as exc:  # an operation that raises counts as failed
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency_s"] = time.perf_counter() - start
        rec["calib_s"] = [before, calibrate.sample()]
        self.calib_s += sum(rec["calib_s"])
        if not rec["error"] and rec["exit"] == 0:
            self.settle(op, rec, out, x)
        self.records.append(rec)

    def settle(self, op, rec, out, x) -> None:
        """Digest the output; keep it when it is the first of its operation
        or differs from the first."""
        report = rec["report"] or {}
        if x is not None:
            digest = hashlib.sha256(self.np.ascontiguousarray(x).tobytes()).hexdigest()
        elif out is not None and os.path.exists(out):
            digest = sha256_file(out)
        elif op["kind"] == "verdict":
            stable = {k: v for k, v in report.items() if k != "wall_time_s"}
            digest = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()
        else:
            return
        rec["file_digest"] = digest
        rec["output_digest"] = report.get("output_digest") or digest
        if self.first.setdefault(op["id"], digest) == digest and self.pass_no > 0:
            if out is not None:
                os.remove(out)
            return
        if x is not None:
            rec["kept"] = os.path.join(self.keep, f"{op['id']}.p{self.pass_no}.npy")
            self.np.save(rec["kept"], x)
        elif out is not None:
            rec["kept"] = os.path.join(self.keep, os.path.basename(out))
            if out != rec["kept"]:
                shutil.move(out, rec["kept"])

    def passes(self, seconds: float, min_ops: int, tracer=None, count: int | None = None) -> int:
        """Run whole passes over the list; returns how many ran.

        Stops after `count` passes when given; otherwise once `seconds` have
        elapsed and at least `min_ops` operations ran. The client's deadline
        may cut a pass short.
        """
        started = time.perf_counter()
        done = 0
        while count is None or done < count:
            elapsed = time.perf_counter() - started
            if count is None and elapsed >= seconds and done * len(self.ops) >= min_ops:
                break
            for op in self.ops:
                if time.perf_counter() > self.deadline:
                    return done
                self.one(op, tracer)
            done += 1
            self.pass_no += 1
        return done


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    client = Client(plan)
    result: dict = {"blas_threads": blas_threads(), "phases": []}

    def phase(name: str, *args, **kwargs) -> int:
        first = client.pass_no
        calib = client.calib_s
        started = time.perf_counter()
        done = client.passes(*args, **kwargs)
        wall = time.perf_counter() - started - (client.calib_s - calib)
        result["phases"].append({"name": name, "first_pass": first, "passes": done, "wall_s": wall})
        return done

    # one unmeasured pass fills allocator pools and lazy caches first
    phase("warmup", 0.0, 0, count=1)
    if not plan["trace"]:
        phase("plain", plan["seconds"], plan["min_ops"])
    else:
        import tracing

        done = phase("plain", plan["seconds"] / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        phase("traced", 0.0, 0, tracer=tracer, count=done)
        with open(plan["spans_path"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                info = span[tracing.INFO]
                if isinstance(info, tuple):
                    info = [info[0], info[1], info[2].hex()]
                handle.write(json.dumps(span[: tracing.INFO] + [info]) + "\n")
        result["per_layer"] = tracing.summarize(tracer.spans)
    result["records"] = client.records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
