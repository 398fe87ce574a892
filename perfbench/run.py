"""pinvkit benchmark: verified pseudoinverses per second on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dense-oracle --seed 1 --seconds 20 --trace 0

A run times `import pinvkit.cli` in 16 fresh interpreters, half before and
half after the workload. Between those it writes the workload's seeded
inputs and numpy references, then starts worker.py, a one-client closed
loop that calls pinvkit.cli.main in-process with one BLAS thread.
Afterwards every operation is checked against numpy.linalg.pinv
(check.py). The run writes a result file under .bench_run/results/ with the
metadata, metrics, failures and per-operation output digests. A digest that
differs from an earlier result file with the same workload, seed and source
is flagged. Every metric is printed with its unit; the last stdout line is
the JSON summary.

Times are calibrated: next to every operation and every import the run
times a fixed kernel (calibrate.py), and scales its times to the speed at
which that kernel takes calibrate.REFERENCE_S. The measured times are
printed and stored too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, and --trace 1
its per-layer metrics, taken from spans that tracing.py records around
pinvkit's public functions.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
RESULTS = os.path.join(RUN_DIR, "results")

SETUP_REPEATS = 8  # imports timed before the workload, and again after it
SETUP_CALIB_REPEATS = 5  # kernel calls after each import; their median counts
# One BLAS thread: with two on this benchmark's 2-vCPU host, a matrix
# product waits for whichever vCPU the host has taken away, and circulant-io
# latencies doubled at random (DESIGN.md, "Why one BLAS thread").
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_OPS = 100
DEADLINE_S = 170.0  # a run must end within 180 s
# times the import, then the calibration kernel in the same interpreter
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import pinvkit.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); import calibrate; "
    f"print(t, sorted(calibrate.sample() for _ in range({SETUP_CALIB_REPEATS}))[{SETUP_CALIB_REPEATS} // 2])"
)

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# measurement


def measure_setup(env: dict, warm: bool) -> list[list[float]]:
    """[import seconds, kernel seconds] of pinvkit.cli in SETUP_REPEATS fresh
    interpreters. Unless warm, one more interpreter first fills the bytecode
    cache and is not counted."""
    pairs = []
    for _ in range(SETUP_REPEATS + (0 if warm else 1)):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        pairs.append([float(v) for v in done.stdout.strip().splitlines()[-1].split()])
    return pairs if warm else pairs[1:]


def run_worker(plan: dict, workdir: str, env: dict, timeout: float) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "worker.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                            cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def judge(ops: dict[str, dict], records: list[dict]) -> list[str | None]:
    """Failure reason (or None) per record. Each distinct output is parsed
    and compared with the reference once; identical bytes share a verdict."""
    verdicts = {}
    for rec in records:
        if rec.get("kept"):
            verdicts[(rec["op"], rec["file_digest"])] = check.output_failure(ops[rec["op"]], rec["kept"])
    reasons = []
    for rec in records:
        op = ops[rec["op"]]
        reason = check.report_failure(op, rec)
        if reason is None and op["kind"] != "verdict":
            reason = verdicts.get((rec["op"], rec["file_digest"]), "output was not kept for checking")
        reasons.append(reason)
    return reasons


def median(values: list[float]) -> float:
    return float(np.median(np.asarray(values)))


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta(q(n+1), (1-q)(n+1))
    weighted mean of all order statistics. A workload's latencies cluster
    by operation slot, with gaps between slots; a single order statistic
    jumps across a gap when a few samples move, this weighted mean does not."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200 * n + 1)
    mid = (grid[1:] + grid[:-1]) / 2.0
    density = np.exp((a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def phase_records(records, reasons, phase: dict) -> list[tuple[dict, str | None]]:
    passes = range(phase["first_pass"], phase["first_pass"] + phase["passes"])
    return [(rec, why) for rec, why in zip(records, reasons) if rec["pass"] in passes]


def rate(pairs, phase: dict) -> float:
    """Verified operations of a phase per second of the phase's wall time."""
    return sum(1 for _, why in pairs if why is None) / phase["wall_s"]


def scale(rec: dict) -> float:
    """Factor that takes an operation's time to the reference speed: the
    mean of the kernel times just before and just after it, against
    calibrate.REFERENCE_S."""
    return calibrate.REFERENCE_S / float(np.mean(rec["calib_s"]))


def calibrated_rate(pairs, phase: dict) -> float:
    """rate() at the reference speed. Each operation's time is scaled by its
    own kernel times; the rest of the phase's wall time (hashing and moving
    outputs between operations) by the phase's mean kernel time."""
    busy = sum(rec["latency_s"] for rec, _ in pairs)
    between = (phase["wall_s"] - busy) * calibrate.REFERENCE_S / float(np.mean([r["calib_s"] for r, _ in pairs]))
    return sum(1 for _, why in pairs if why is None) / (sum(rec["latency_s"] * scale(rec) for rec, _ in pairs) + between)


# --------------------------------------------------------------------------
# metadata and determinism


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pinvkit", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def metadata(args, ops: dict[str, dict], worker: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": worker["blas_threads"],
        "blas_thread_env": BLAS_ENV,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "machine": platform.machine(),
        "ops_per_pass": dict(Counter(op_label(op) for op in ops.values())),
        "ops_run": dict(Counter(op_label(ops[r["op"]]) for r in worker["records"])),
        "passes": {phase["name"]: phase["passes"] for phase in worker["phases"]},
    }


def op_label(op: dict) -> str:
    return f"{op['cmd']} {op['method']}" if op["method"] else op["cmd"]


def digests_of(records: list[dict]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for rec in records:
        if rec.get("file_digest") and rec["file_digest"] not in out.setdefault(rec["op"], []):
            out[rec["op"]].append(rec["file_digest"])
    return out


def compare(first: dict, second: dict) -> list[str]:
    """Operations whose output digests differ between two result files."""
    a, b = first["digests"], second["digests"]
    return [f"{op_id}: {a[op_id]} vs {b[op_id]}" for op_id in sorted(set(a) & set(b))
            if set(a[op_id]) != set(b[op_id])]


def unstable(result: dict) -> list[str]:
    """Operations whose output bytes differ between passes of one run."""
    return [f"{op_id}: {len(d)} different outputs in one run"
            for op_id, d in sorted(result["digests"].items()) if len(d) > 1]


def compare_with_earlier(result: dict, path: str) -> list[str]:
    """Compare against every earlier result file of the same workload, seed
    and source."""
    flags = []
    meta = result["meta"]
    for other_path in sorted(glob.glob(os.path.join(RESULTS, "*.json"))):
        if other_path == path:
            continue
        with open(other_path, encoding="utf-8") as handle:
            other = json.load(handle)
        om = other.get("meta", {})
        if (om.get("workload"), om.get("seed"), om.get("source_digest")) == (
            meta["workload"], meta["seed"], meta["source_digest"]
        ):
            flags += [f"{os.path.basename(other_path)}: {flag}" for flag in compare(other, result)]
    return flags


# --------------------------------------------------------------------------
# the run


def metric_specs() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def measure(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "pinvkit", "cli.py")):
        return fail(f"no pinvkit source under {SRC}; run from a repository checkout")
    started = time.perf_counter()
    specs = metric_specs()
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    setup = measure_setup(env, warm=False)
    stages = {"setup": time.perf_counter() - started}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    workdir = os.path.join(RUN_DIR, "work-" + stem)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](workdir, args.seed)
        for name in ("keep", "scratch"):
            os.makedirs(os.path.join(workdir, name))
        plan = {
            "src": SRC,
            "ops": ops,
            "keep_dir": os.path.join(workdir, "keep"),
            "scratch_dir": os.path.join(workdir, "scratch"),
            "trace": bool(args.trace),
            "seconds": float(args.seconds),
            "min_ops": MIN_OPS,
            "limit": DEADLINE_S - 25.0 - (time.perf_counter() - started),
            "spans_path": os.path.join(RESULTS, stem + ".spans.jsonl"),
        }
        stages["prepare"] = time.perf_counter() - started - sum(stages.values())
        worker = run_worker(plan, workdir, env, DEADLINE_S - (time.perf_counter() - started))
        stages["worker"] = time.perf_counter() - started - sum(stages.values())
        by_id = {op["id"]: op for op in ops}
        records = worker["records"]
        reasons = judge(by_id, records)
        stages["check"] = time.perf_counter() - started - sum(stages.values())
        setup += measure_setup(env, warm=True)
        stages["setup"] += time.perf_counter() - started - sum(stages.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = {p["name"]: p for p in worker["phases"]}
    attempted = len(records)
    failed = sum(1 for why in reasons if why is not None)
    plain = phase_records(records, reasons, phases["plain"])
    latencies = [1000.0 * r["latency_s"] for r, _ in plain]
    calibrated = [1000.0 * r["latency_s"] * scale(r) for r, _ in plain]
    measured = {
        "ops_per_s": rate(plain, phases["plain"]),
        "latency_p50_ms": harrell_davis(latencies, 0.5),
        "latency_p90_ms": harrell_davis(latencies, 0.9),
        "setup_s": median([t for t, _ in setup]),
    }
    end_to_end = {
        "ops_per_s": calibrated_rate(plain, phases["plain"]),
        "latency_p50_ms": harrell_davis(calibrated, 0.5),
        "latency_p90_ms": harrell_davis(calibrated, 0.9),
        "verified_frac": (attempted - failed) / attempted,
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": median([t * calibrate.REFERENCE_S / c for t, c in setup]),
    }
    calibration = end_to_end["ops_per_s"] / measured["ops_per_s"]
    per_layer = dict(worker.get("per_layer", {}))
    if args.trace:
        traced = phase_records(records, reasons, phases["traced"])
        per_layer["trace.overhead_frac"] = (calibrated_rate(plain, phases["plain"])
                                            / calibrated_rate(traced, phases["traced"]) - 1.0)

    failures = Counter(f"{rec['op']}: {why}" for rec, why in zip(records, reasons) if why)
    result = {
        "meta": metadata(args, by_id, worker),
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted,
        "per_layer": per_layer,
        "calibration": calibration,
        "uncalibrated": measured,
        "setup_runs_s": setup,
        "stage_s": stages,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures),
        "digests": digests_of(records),
        "latency_ms": {op_id: [round(1000.0 * r["latency_s"], 4) for r in records if r["op"] == op_id]
                       for op_id in by_id},
        "calib_ms": {op_id: [[round(1000.0 * c, 4) for c in r["calib_s"]] for r in records if r["op"] == op_id]
                     for op_id in by_id},
    }
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    flags = unstable(result) + compare_with_earlier(result, path)

    chosen = specs["per_layer"] if args.trace else specs["end_to_end"]
    values = per_layer if args.trace else end_to_end
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations "
          f"in {result['meta']['passes']} passes, {failed} failed "
          f"(failed_frac {result['failed_frac']:.4g}); result file {os.path.relpath(path, ROOT)}")
    for why, count in sorted(failures.items()):
        print(f"  failed x{count}: {why}")
    for flag in flags:
        print(f"  output digest differs: {flag}")
    print(f"  calibrated ops_per_s / measured {calibration:.4g} (see calibrate.py); uncalibrated: "
          + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()))
    for spec in chosen:
        print(f"  {spec['name']:<34} {values[spec['name']]:>14.6g} {spec['unit']}")
    summary = {
        "correct": failed == 0 and not flags,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                    for spec in chosen},
    }
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(args)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
