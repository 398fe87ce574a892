"""Host-speed calibration: a fixed kernel timed next to the workload.

The benchmark runs on shared virtual machines whose speed drifts by 20 to
40 % within minutes, and the drift moves every kind of code alike: a pure
Python loop, float formatting and small numpy products slow down together
(DESIGN.md, "Calibrated times"). So the worker times this kernel just
before and just after every operation, and run.py turns measured times into
times at a fixed reference speed, the speed at which one kernel call takes
REFERENCE_S:

    latency of an operation   x REFERENCE_S / mean of its two kernel times
    wall time of a phase      x REFERENCE_S / mean kernel time of the phase

The kernel mixes what pinvkit spends its time on (interpreted loops, float
repr, small complex numpy arithmetic) and never calls pinvkit, so a change
to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Mean time of one kernel call inside the worker on the machine the
# benchmark was tuned on (2-vCPU x86-64 virtual machine, Python 3.11,
# numpy 2.4), so calibrated times there read close to measured ones.
REFERENCE_S = 0.003

_VALUES = np.linspace(-3.0, 3.0, 240) * (1.0 + 1e-9j) + 0.1j
_MATRIX = np.eye(8, dtype=np.complex128) * 0.5 + 0.01j


def kernel() -> int:
    """Fixed work of about REFERENCE_S seconds."""
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    text = ",".join(f"{z.real!r}{z.imag:+.17g}i" for z in _VALUES)
    a = _MATRIX
    for _ in range(100):
        a = (a @ _MATRIX + a.conj().T) * 0.5
        total += int(abs(a[0, 0]) > 1.0)
    return total + len(text)


def sample() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
