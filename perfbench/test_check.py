"""Tests of the benchmark's own checker and tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _case(tmp_path, name="x.csv", kind="matrix", perturb=0.0):
    """An operation whose output file holds the reference inverse of a
    seeded 6x6 matrix, optionally with entry (2, 3) moved by `perturb`."""
    rng = np.random.default_rng(5)
    a = workloads.random_matrix(rng, 6, 6, 6)
    ref_path = str(tmp_path / "ref.npy")
    np.save(ref_path, check.reference_pinv(a))
    x = check.reference_pinv(a)
    x[2, 3] += perturb
    out = str(tmp_path / name)
    workloads.write_matrix(out, x)
    with open(out, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    op = {"id": "00-case", "cmd": "pinv", "method": "svd", "out": os.path.splitext(name)[1],
          "kind": kind, "ref": ref_path, "rank": 6}
    rec = {"op": op["id"], "pass": 0, "exit": 0, "error": None, "file_digest": digest,
           "kept": out, "report": {"passed": True, "rank": 6, "output_digest": digest}}
    return op, rec


def _judge(op, *records):
    return run.judge({op["id"]: op}, list(records))


def test_reference_inverse_passes(tmp_path):
    for name in ("x.csv", "x.json"):
        op, rec = _case(tmp_path, name)
        assert _judge(op, rec) == [None]


def test_perturbed_inverse_counts_as_failed(tmp_path):
    for name in ("x.csv", "x.json"):
        op, rec = _case(tmp_path, name, perturb=1e-3)
        [reason] = _judge(op, rec)
        assert reason is not None and "differs from reference" in reason


def test_later_passes_share_the_verdict_of_identical_bytes(tmp_path):
    op, rec = _case(tmp_path, perturb=1e-3)
    later = dict(rec, **{"pass": 1, "kept": None})
    reasons = _judge(op, rec, later)
    assert reasons[0] is not None and reasons[1] == reasons[0]
    unchecked = dict(later, file_digest="0" * 64, report=dict(rec["report"], output_digest="0" * 64))
    assert _judge(op, unchecked) == ["output was not kept for checking"]


def test_report_level_failures(tmp_path):
    op, rec = _case(tmp_path)
    assert _judge(op, dict(rec, exit=2)) == ["exit code 2"]
    assert _judge(op, dict(rec, error="ValueError: boom"))[0].startswith("raised")
    assert "passed: false" in _judge(op, dict(rec, report=dict(rec["report"], passed=False)))[0]
    assert "rank" in _judge(op, dict(rec, report=dict(rec["report"], rank=5)))[0]
    assert "digest" in _judge(op, dict(rec, report=dict(rec["report"], output_digest="0" * 64)))[0]


def test_generator_output_is_materialized(tmp_path):
    gen = np.array([2.0, -1.0, 0.5, 0.25], dtype=np.complex128)
    ref_path = str(tmp_path / "ref.npy")
    np.save(ref_path, check.reference_pinv(check.circulant(gen)))
    ref_gen = check.reference_pinv(check.circulant(gen))[0]
    for shift, expect_ok in ((0.0, True), (1e-3, False)):
        out = tmp_path / "g.json"
        out.write_text(workloads.generator_json(ref_gen + np.array([0, shift, 0, 0])))
        op = {"kind": "generator", "ref": ref_path}
        assert (check.output_failure(op, str(out)) is None) == expect_ok


def test_summarize_self_time_and_calls():
    # main [0, 10] > svd [1, 5] > svd (adjoint) [2, 4]; main > lu [6, 7]
    spans = [
        ["cli", "main", 0.0, 10.0, -1, "0/a", None],
        ["linalg.svd", "svd", 1.0, 5.0, 0, "0/a", (3, 5, b"x")],
        ["linalg.svd", "svd", 2.0, 4.0, 1, "0/a", (5, 3, b"y")],
        ["linalg.lu", "inverse", 6.0, 7.0, 0, "0/a", None],
        ["linalg.svd", "svd", 7.5, 8.0, 0, "0/a", (3, 5, b"x")],
    ]
    out = tracing.summarize(spans)
    assert out["linalg.svd.calls"] == 2
    assert out["linalg.svd.self_s"] == 4.5
    assert out["cli.self_s"] == 10.0 - 4.0 - 1.0 - 0.5
    assert out["linalg.lu.calls"] == 1
    assert out["linalg.svd.repeat_frac"] == 0.5
    assert out["linalg.svd.ns_per_mn2"] == 1e9 * 4.5 / (2 * 5 * 3 * 3)


def test_tracer_wraps_every_binding():
    import pinvkit
    import pinvkit.cli

    tracer = tracing.Tracer()
    original = pinvkit.linalg.svd
    try:
        tracer.install()
        assert pinvkit.core.svd is pinvkit.linalg.svd is pinvkit.svd
        assert pinvkit.linalg.svd is not original
        tracer.op = "t"
        pinvkit.svd(np.ones((3, 5)))
    finally:
        tracer.uninstall()
    assert pinvkit.linalg.svd is original
    assert all(span[tracing.PARENT] < index for index, span in enumerate(tracer.spans))
    assert tracing.summarize(tracer.spans)["linalg.svd.calls"] == 1


def test_harrell_davis_quantiles():
    assert run.harrell_davis([7.0], 0.5) == 7.0
    assert abs(run.harrell_davis([2.0] * 9, 0.9) - 2.0) < 1e-12
    sample = np.random.default_rng(3).exponential(size=2000)
    for q in (0.5, 0.9):
        assert abs(run.harrell_davis(sample, q) - np.quantile(sample, q)) < 0.05
    # one slot's samples moving across a gap shift the estimate a little,
    # not by the width of the gap
    slots = [10.0] * 50 + [20.0] * 50
    moved = [10.0] * 48 + [20.0] * 52
    assert abs(run.harrell_davis(moved, 0.5) - run.harrell_davis(slots, 0.5)) < 2.0


def test_calibration_kernel_is_fixed_work():
    import calibrate

    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.sample() > 0.0
