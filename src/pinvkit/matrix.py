"""Complex matrix carrier, tolerances, and the matrix/vector file formats.

Matrices are plain numpy complex128 arrays throughout the package; this
module owns validation, the shared Tolerance knobs, and the JSON/CSV wire
formats. All serialization is fixed at 17 significant digits, which is
enough to round-trip any double exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
_LARGEST = float(np.finfo(np.float64).max)


class MatrixFormatError(ValueError):
    """Malformed matrix/vector/tree input: bad shape, bad literal, non-finite entry."""


class PreconditionError(ValueError):
    """A mathematical precondition of the requested operation does not hold."""


class ConvergenceError(RuntimeError):
    """An iteration exhausted its budget without reaching its stopping test."""


class VerificationError(RuntimeError):
    """A computed result failed its own built-in consistency check."""


@dataclass(frozen=True)
class Tolerance:
    """The two numerical knobs, each a relative factor.

    rank_rel sets the singular-value cutoff: rank_cutoff is
    rank_rel * sigma_max * max(rows, cols). residual_rel (tau) sets every
    residual bound: bound(*norms) is tau times the norms of the factors the
    checked identity is built from, so a check reads the same at any scale.
    Both must be finite and strictly positive.
    """

    rank_rel: float = UNIT_ROUNDOFF
    residual_rel: float = 1e-12

    def __post_init__(self) -> None:
        # an infinite residual bound would pass any candidate inverse
        knobs = (self.rank_rel, self.residual_rel)
        if not all(math.isfinite(knob) and knob > 0 for knob in knobs):
            raise PreconditionError("tolerances must be finite and strictly positive")

    def rank_cutoff(self, sigma_max: float, rows: int, cols: int) -> float:
        return self.rank_rel * sigma_max * max(rows, cols)

    def bound(self, *norms: float) -> float:
        """residual_rel times the product of norms, formed on mantissas and
        exponents apart: it leaves the float range only when the bound does,
        and then saturates, so an infinite residual still fails."""
        mantissa, exponent = math.frexp(self.residual_rel)
        for norm in norms:
            frac, exp = math.frexp(norm)
            mantissa, exponent = mantissa * frac, exponent + exp
        try:
            return math.ldexp(mantissa, exponent)
        except OverflowError:
            return _LARGEST

    def scaled_for(self, a: np.ndarray) -> "Tolerance":
        """This tolerance: bound() scales every check. Kept for callers of
        the former absolute bound, such as the benchmark's own check."""
        return self


DEFAULT_TOL = Tolerance()


def as_matrix(data) -> np.ndarray:
    """Validate and normalize input to an immutable complex128 2-D array."""
    a = np.array(data, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise MatrixFormatError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MatrixFormatError("matrix entries must be finite")
    a.flags.writeable = False
    return a


def as_vector(data, min_len: int = 1) -> np.ndarray:
    v = np.array(data, dtype=np.complex128, copy=True)
    if v.ndim != 1 or v.size < min_len:
        raise MatrixFormatError(f"expected a vector of length >= {min_len}")
    if not np.all(np.isfinite(v)):
        raise MatrixFormatError("vector entries must be finite")
    v.flags.writeable = False
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, safe for entries near the ends of the float range.

    The plain sum of squares is kept whenever it is a normal finite number.
    It overflows to inf for entries above ~1e154 and loses digits to
    underflow below ~1e-154; only then is the sum redone on a / max|a_ij|.
    """
    mag = np.abs(np.asarray(a))
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(mag**2)
        if _SMALLEST_NORMAL <= total < np.inf or not mag.any():
            return float(np.sqrt(total))
        top = float(np.max(mag))
        if not np.isfinite(top):
            return top
        return top * float(np.sqrt(np.sum((mag / top) ** 2)))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


# ---------------------------------------------------------------------------
# scalar literals


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "-" if (z.imag < 0 or (z.imag == 0 and str(z.imag)[0] == "-")) else "+"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}i"


# Cell templates for the batched writers: "%.17g" is format_float, and
# "%.17g%+.17gi" is format_complex, signed zeros included.
_CSV_CELL = "%.17g%+.17gi"
_JSON_PAIR = "[%.17g, %.17g]"


def _format_rows(a: np.ndarray, cell: str, sep: str) -> list[str]:
    """Each row of the complex 2-D array a as its cells joined by sep.

    A row is one %-format of the (re, im) pairs, so no Python code runs
    per entry.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    template = sep.join([cell] * a.shape[1])
    return [template % tuple(row) for row in a.view(np.float64).tolist()]


_BARE_UNIT = re.compile(r"(?:^|(?<=[+-]))j")


def parse_complex(text: str) -> complex:
    """Parse a complex literal such as 1.5, -2i, 3+4i, 1e-3-2.5e-4i.

    Both i and j are accepted as the imaginary unit; infinities and NaNs are
    rejected.
    """
    s = text.strip().lower().replace("i", "j")
    s = _BARE_UNIT.sub("1j", s)
    try:
        z = complex(s)
    except ValueError:
        raise MatrixFormatError(f"bad complex literal: {text!r}") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise MatrixFormatError(f"non-finite literal: {text!r}")
    return z


def parse_generator(text: str) -> np.ndarray:
    """Parse a comma-separated list of complex literals into a vector."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) < 2:
        raise MatrixFormatError("generator needs at least 2 entries")
    return as_vector([parse_complex(p) for p in parts], min_len=2)


# ---------------------------------------------------------------------------
# matrix JSON format: {"rows": m, "cols": n, "data": [[re, im], ...]} row-major


def dumps_matrix_json(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    pairs = ", ".join(_format_rows(a, _JSON_PAIR, ", "))
    return f'{{"rows": {m}, "cols": {n}, "data": [{pairs}]}}\n'


def _pair(entry, what: str) -> complex:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise MatrixFormatError(f"{what}: entries must be [re, im] pairs")
    re_, im = entry
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in (re_, im)):
        raise MatrixFormatError(f"{what}: entry parts must be numbers")
    return complex(re_, im)


def loads_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise MatrixFormatError('matrix JSON needs "rows", "cols", "data"')
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise MatrixFormatError("rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(f"data must hold rows*cols = {rows * cols} entries")
    flat = [_pair(entry, "matrix JSON") for entry in data]
    return as_matrix(np.array(flat, dtype=np.complex128).reshape(rows, cols))


# CSV alternative: one row per line, comma-separated complex literals. The
# writers join a trailing "" rather than append "\n", which would copy the
# whole text once more.


def dumps_matrix_csv(a: np.ndarray) -> str:
    return "\n".join([*_format_rows(a, _CSV_CELL, ","), ""])


def dumps_circulant_csv(gen) -> str:
    """CSV of the circulant with first row gen, from its n formatted cells.

    Row i is the cells rotated right by i, a slice of the doubled list, so
    the text equals dumps_matrix_csv(circ_materialize(gen)) byte for byte.
    """
    gen = as_vector(gen, min_len=2)
    n = gen.shape[0]
    cells = _format_rows(gen[None, :], _CSV_CELL, ",")[0].split(",")
    doubled = cells + cells
    return "\n".join([*(",".join(doubled[n - i : 2 * n - i]) for i in range(n)), ""])


def loads_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([parse_complex(cell) for cell in line.split(",")])
        except MatrixFormatError as exc:
            raise MatrixFormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise MatrixFormatError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError("ragged CSV rows")
    return as_matrix(rows)


# circulant generator JSON: {"n": n, "gen": [[re, im], ...]}


def dumps_generator_json(gen: np.ndarray) -> str:
    gen = np.asarray(gen, dtype=np.complex128)
    pairs = _format_rows(gen[None, :], _JSON_PAIR, ", ")[0]
    return f'{{"n": {gen.size}, "gen": [{pairs}]}}\n'


def loads_generator_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"n", "gen"} <= set(obj):
        raise MatrixFormatError('generator JSON needs "n" and "gen"')
    n, gen = obj["n"], obj["gen"]
    if not (isinstance(n, int) and n >= 2):
        raise MatrixFormatError("n must be an integer >= 2")
    if not isinstance(gen, list) or len(gen) != n:
        raise MatrixFormatError("gen must hold n entries")
    return as_vector([_pair(entry, "generator JSON") for entry in gen], min_len=2)


# tree edge CSV: lines "i,j,w" with 1-based vertices and a real weight


def dumps_tree_csv(edges) -> str:
    lines = [f"{int(i)},{int(j)},{format_float(w)}" for i, j, w in edges]
    return "\n".join(lines) + "\n"


def loads_tree_csv(text: str) -> list[tuple[int, int, float]]:
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MatrixFormatError(f"line {lineno}: expected 'i,j,w'")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: bad edge literal") from None
        if not np.isfinite(w):
            raise MatrixFormatError(f"line {lineno}: non-finite weight")
        edges.append((i, j, w))
    if not edges:
        raise MatrixFormatError("empty tree file")
    return edges
