"""Shared parts of the bench/ ledger scripts: interleaved median timing, the
machine description and the JSON writer.

The scripts run as files (PYTHONPATH=src python3 bench/<script>.py), which
puts this directory on sys.path, so they import this module as ledger.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time

import numpy as np


def median_ms(funcs: dict, repeats: int) -> dict:
    """Median milliseconds of each function; each repeat runs them all in
    turn, so drift in the host's speed reaches every one of them alike."""
    times = {name: [] for name in funcs}
    for _ in range(repeats):
        for name, func in funcs.items():
            start = time.perf_counter()
            func()
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * statistics.median(values) for name, values in times.items()}


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def write_ledger(path: str, label: str, repeats: int, **sections) -> dict:
    """Write {label, repeats, machine, *sections} to path as indented JSON
    and return it."""
    payload = {"label": label, "repeats": repeats, "machine": machine(), **sections}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload
