"""Paired perfbench runs of a base revision against this checkout.

    python3 bench/ab.py --base HEAD~1 --workload circulant-io --pairs 10

It checks REV out with `git worktree add --detach` in a temporary directory,
which it removes afterwards, and runs perfbench/run.py there and in this
checkout, one after the other, --pairs times, each run --seconds long
(BENCHMARK.json's run_seconds unless given). Pair i runs at seed
SEEDS[i mod len(SEEDS)], and the side that goes first switches from pair to
pair, so drift in the host's speed reaches both sides alike. Each run's last
stdout line is its JSON summary. Every run, and the machine description,
has the BLAS settings that perfbench/run.py gives its workers.

It writes BENCH_ab-<workload>.json (or --out) with ledger.machine(), every
run's metrics and, per end-to-end metric of BENCHMARK.json:

- base and change: the median and the IQR (75th minus 25th percentile,
  statistics.quantiles' exclusive method) over the pairs;
- wins: the pairs in which the change is better, in the metric's direction;
- gap: how much better the change's median is than the base's (negative
  when worse), and gap_over_base_iqr, that gap over the base's IQR;
- claim: wins in at least 9 of 10 pairs and a gap beyond the base's IQR.

It also lists the lines in which bench/op_digests.py, the script of this
checkout run on each side's src at each seed, differs between the sides.
Only the standard library and subprocesses are used. It exits 1 when a run
fails or is not correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from ledger import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (7, 23)  # the seeds of the benchmark's recorded runs, taken in turn

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import BLAS_ENV  # noqa: E402  the BLAS settings of perfbench's workers


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one perfbench/run.py run in tree."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def op_digests(tree: str, seed: int) -> list[str]:
    """This checkout's op_digests listing, run on tree's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, os.path.join(HERE, "op_digests.py"), "--seed", str(seed)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"op_digests.py on {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout.splitlines()


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(runs: list[dict], specs: list[dict]) -> dict:
    """Medians, IQRs, wins and gap per metric, the change against the base."""
    table = {}
    for spec in specs:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        base = [run["base"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        gap = sign * (statistics.median(change) - statistics.median(base))
        spread = iqr(base)
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        table[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": {"median": statistics.median(base), "iqr": spread},
            "change": {"median": statistics.median(change), "iqr": iqr(change)},
            "wins": wins,
            "pairs": len(runs),
            "gap": gap,
            "gap_over_base_iqr": gap / spread if spread else None,
            "claim": 10 * wins >= 9 * len(runs) and gap > spread,
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="default BENCHMARK.json's run_seconds")
    parser.add_argument("--out", help="default BENCH_ab-<workload>.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    specs = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    os.environ.update(BLAS_ENV)
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    runs, digests = [], {}
    with tempfile.TemporaryDirectory(prefix="pinvkit-ab-") as scratch:
        tree = os.path.join(scratch, "base")
        git("worktree", "add", "--detach", tree, base_sha)
        try:
            for index in range(args.pairs):
                seed = SEEDS[index % len(SEEDS)]
                order = ("base", "change") if index % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(tree if side == "base" else ROOT, args.workload, seed,
                                           seconds)
                runs.append(pair)
                print(f"pair {index + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['latency_p90_ms']['value']:.4g}"
                    for side in ("base", "change")) + " latency_p90_ms", flush=True)
            for seed in SEEDS:
                base_lines, change_lines = op_digests(tree, seed), op_digests(ROOT, seed)
                digests[str(seed)] = {
                    "operations": len(change_lines),
                    "base_only": sorted(set(base_lines) - set(change_lines)),
                    "change_only": sorted(set(change_lines) - set(base_lines)),
                }
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT,
                           capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    table = compare(runs, specs)
    payload = {
        "label": f"ab-{args.workload}",
        "base": {"rev": args.base, "commit": base_sha},
        "change": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "workload": args.workload,
        "seeds": list(SEEDS),
        "pairs": args.pairs,
        "seconds": seconds,
        "machine": machine(),
        "metrics": table,
        "op_digests": digests,
        "runs": runs,
    }
    out = args.out or f"BENCH_ab-{args.workload}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for name, row in table.items():
        print(f"{name:<16} base {row['base']['median']:.6g} (IQR {row['base']['iqr']:.3g})  "
              f"change {row['change']['median']:.6g}  wins {row['wins']}/{row['pairs']}  "
              f"gap {row['gap']:.4g}  claim {row['claim']}")
    ok = all(run[side]["correct"] and run[side]["failed"] == 0
             for run in runs for side in ("base", "change"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
