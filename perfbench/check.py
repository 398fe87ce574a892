"""Independent correctness check for benchmark operations.

The reference is numpy.linalg.pinv, which the library itself never uses. An
operation fails when it raises, exits non-zero, reports passed: false,
states a rank other than the reference rank, or writes an output that is
not within MATCH_RTOL of the reference pseudoinverse.
"""

from __future__ import annotations

import json

import numpy as np

# Singular values below REF_RTOL * sigma_max are zero for the reference. The
# generated inputs have nonzero singular values far above this and zero
# ones at rounding level, so the cut is unambiguous.
REF_RTOL = 1e-10
# Allowed ||X - X_ref||_F / ||X_ref||_F. On the generated inputs pinvkit's
# rounding error stays below 1.2e-11 (largest on circulant-io); one entry off
# by 1e-3 is far above the bound.
MATCH_RTOL = 1e-8


def reference_pinv(a: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(np.asarray(a, dtype=np.complex128), rtol=REF_RTOL)


def reference_rank(a: np.ndarray) -> int:
    sigma = np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    return int(np.count_nonzero(sigma > REF_RTOL * sigma[0])) if sigma.size else 0


def circulant(gen: np.ndarray) -> np.ndarray:
    """Dense circulant whose first row is gen."""
    n = gen.size
    return gen[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


def read_output(path: str, kind: str) -> np.ndarray:
    """Parse an output file into the matrix it describes.

    kind is "matrix" (matrix JSON or CSV), "generator" (circulant generator
    JSON, materialized here) or "array" (.npy written by the benchmark).
    """
    if kind == "array":
        return np.load(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines() if line.strip()]
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged or empty CSV")
        return np.char.replace(np.array(rows), "i", "j").astype(np.complex128)
    obj = json.loads(text)
    key, shape = ("gen", (obj["n"],)) if kind == "generator" else ("data", (obj["rows"], obj["cols"]))
    pairs = np.array(obj[key], dtype=float).reshape(-1, 2)
    values = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape)
    return circulant(values) if kind == "generator" else values


def mismatch(x: np.ndarray, ref: np.ndarray) -> str | None:
    """Why x is not the reference pseudoinverse, or None when it is."""
    if x.shape != ref.shape:
        return f"output shape {x.shape}, reference {ref.shape}"
    scale = float(np.linalg.norm(ref))
    err = float(np.linalg.norm(x - ref))
    if not err <= MATCH_RTOL * max(scale, 1e-300):
        return f"output differs from reference: relative error {err / max(scale, 1e-300):.3e}"
    return None


def report_failure(op: dict, rec: dict) -> str | None:
    """Failure reason visible without reading the output, or None.

    rec is the worker's record: error (exception text or None), exit code,
    report (the CLI's JSON report, or {"passed": ...} for library calls),
    and file_digest, the sha256 of what the operation wrote.
    """
    if rec.get("error"):
        return f"raised {rec['error']}"
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    report = rec.get("report")
    if not isinstance(report, dict):
        return "no report"
    if report.get("passed") is not True:
        return "report says passed: false"
    if op.get("rank") is not None and report.get("rank") != op["rank"]:
        return f"report rank {report.get('rank')}, reference rank {op['rank']}"
    if op["kind"] in ("matrix", "generator") and report.get("output_digest") != rec.get("file_digest"):
        return "report output_digest does not match the written file"
    return None


def output_failure(op: dict, path: str) -> str | None:
    """Why the output at path is not the reference pseudoinverse, or None."""
    try:
        x = read_output(path, op["kind"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return mismatch(x, np.load(op["ref"]))

