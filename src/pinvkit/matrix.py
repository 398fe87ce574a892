"""Complex matrix carrier, tolerances, and the matrix/vector file formats.

Matrices are plain numpy complex128 arrays throughout the package; this
module owns validation, the shared Tolerance knobs, and the JSON/CSV wire
formats. All serialization is fixed at 17 significant digits, which is
enough to round-trip any double exactly. A real matrix that repeats its
values has each distinct value formatted once, with the bytes of formatting
every entry.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
_SUM_FLOOR = float(np.finfo(np.float64).tiny) / UNIT_ROUNDOFF  # 2^-969
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
        """This tolerance: bound() scales every check. perfbench/worker.py
        still calls it on the tolerance of its Fill-Fishkind check."""
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


def _in_float_range(values: np.ndarray) -> np.ndarray:
    """values, refused unless finite: the routes form a pseudoinverse with numpy's overflow
    warnings off, as a tiny singular value, eigenvalue or coefficient puts it past the float range."""
    if not np.isfinite(values).all():
        raise PreconditionError("the pseudoinverse leaves the float range")
    return values


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def unit_scale(a: np.ndarray) -> float:
    """The power of two that brings max |a_ij| below 1 (1 for a zero a); the
    exponent is clamped at 1000, so it stays finite for subnormal entries."""
    return math.ldexp(1.0, -max(math.frexp(float(np.max(np.abs(a), initial=0.0)))[1], -1000))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, safe for entries near the ends of the float range.

    Input other than float64 and complex128 is converted to one of them.
    The sum of squares is one BLAS dot, vdot(a, a).real, kept when it is
    finite and at least _SUM_FLOOR = 2^-969, so subnormal squares cannot
    skew it; the norm is its square root. A dot that overflows (entries
    above ~1e154), falls below _SUM_FLOOR (below ~1e-146) or is NaN is
    redone on a times s = unit_scale(a), a power of two, so the scaling is
    exact, and the norm is its square root divided by s; it stays within 2
    ulps of the exact norm as the one dot does. Inf and NaN entries give inf
    and NaN, and empty or zero input gives 0.
    """
    a = np.asarray(a)
    if a.dtype.char not in "dD":
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    total = float(np.vdot(a, a).real)
    if _SUM_FLOOR <= total < math.inf:
        return math.sqrt(total)
    scale = unit_scale(a)
    if scale == 1.0:
        # the dot is out of range at scale 1 only when a is zero or has an
        # inf or nan entry, and then the norm is max |a_ij|
        return float(np.max(np.abs(a), initial=0.0))
    scaled = a * scale
    return math.sqrt(float(np.vdot(scaled, scaled).real)) / scale


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
    per entry. When every imaginary part is +0.0 (bit for bit) and at most
    half the cells are distinct, each distinct real part (by bits, so -0.0
    stays apart) is formatted once instead, and each row gathers its cells.
    That breaks even near 80% distinct on 400 to 3600 cells and near 40% on
    a 64-entry row, where the sort and gather outweigh the formatting saved.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    bits = a.view(np.int64)
    if not bits[:, 1::2].any():
        values, where = np.unique(bits[:, ::2], return_inverse=True)
        if 2 * values.size <= a.size:
            pairs = np.zeros((values.size, 2))
            pairs[:, 0] = values.view(np.float64)
            cells = "\n".join([cell] * values.size) % tuple(pairs.ravel().tolist())
            table = np.array(cells.split("\n"), dtype=object)
            return [sep.join(row) for row in table[where.reshape(a.shape)].tolist()]
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


def _parse_cells(cells: str) -> np.ndarray | None:
    """The comma-separated literals in cells as one complex128 vector, or
    None when any of them is not a finite literal.

    parse_complex's rules applied to all cells at once: one lowercasing and
    unit swap, a strip of every cell, the bare-unit rule as replacements (a
    unit at a cell's start follows a comma or starts the text), and one
    finiteness check.
    """
    text = ",".join(map(str.strip, cells.lower().replace("i", "j").split(",")))
    text = text.replace("+j", "+1j").replace("-j", "-1j").replace(",j", ",1j")
    if text.startswith("j"):
        text = "1" + text
    try:
        values = np.array(list(map(complex, text.split(","))), dtype=np.complex128)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def parse_generator(text: str) -> np.ndarray:
    """Parse a comma-separated list of complex literals into a vector.

    Every entry counts: an empty one is a bad literal, as in a CSV cell.
    """
    if text.count(",") < 1:
        raise MatrixFormatError("generator needs at least 2 entries")
    values = _parse_cells(text)
    if values is None:
        return as_vector([parse_complex(part) for part in text.split(",")], min_len=2)
    values.flags.writeable = False
    return values


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
    try:
        return complex(re_, im)
    except OverflowError:
        raise MatrixFormatError(f"{what}: entry parts must lie in the float range") from None


def _pairs(data: list, what: str) -> np.ndarray:
    """The [re, im] entries of a JSON list as a complex128 vector.

    json.loads gives numbers the exact types int and float (bool is its
    own type), so three passes over the types check every entry and one
    np.array call converts them. When a check or the conversion fails,
    _pair reads entry by entry and names the first bad one.
    """
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        parts = list(itertools.chain.from_iterable(data))
        if set(map(type, parts)) <= {int, float}:
            try:
                return np.array(parts, dtype=np.float64).view(np.complex128)
            except OverflowError:  # an integer beyond the float range
                pass
    return np.array([_pair(entry, what) for entry in data], dtype=np.complex128)


def loads_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise MatrixFormatError('matrix JSON needs "rows", "cols", "data"')
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # exact int: json.loads reads true as a bool, and bool subclasses int
    if not (type(rows) is int and type(cols) is int and rows > 0 and cols > 0):
        raise MatrixFormatError("rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFormatError(f"data must hold rows*cols = {rows * cols} entries")
    return as_matrix(_pairs(data, "matrix JSON").reshape(rows, cols))


# CSV alternative: one row per line, comma-separated complex literals. The
# writers join a trailing "" rather than append "\n", which would copy the
# whole text once more.


def dumps_matrix_csv(a: np.ndarray) -> str:
    return "\n".join([*_format_rows(a, _CSV_CELL, ","), ""])


def circulant_csv_blocks(gen):
    """Yield the bytes of dumps_matrix_csv(circ_materialize(gen)) as
    buffers, each row followed by its newline.

    Every row holds all n cells, so every row has the same length. Row i is
    the cells rotated right by i: a memoryview slice of the encoded first
    row doubled, starting at cell n - i. No row is copied and no text is
    joined, so the writer holds one doubled row at a time.
    """
    gen = as_vector(gen, min_len=2)
    first = _format_rows(gen[None, :], _CSV_CELL, ",")[0].encode()
    doubled = memoryview(first + b"," + first)
    commas = np.flatnonzero(np.frombuffer(first, dtype=np.uint8) == ord(","))
    width = len(first)
    # start of row i: cell 0 for i = 0, else the cell after comma n - 1 - i
    for start in [0, *(commas[::-1] + 1).tolist()]:
        yield doubled[start : start + width]
        yield b"\n"


def _loads_matrix_csv_per_cell(text: str) -> np.ndarray:
    """loads_matrix_csv read cell by cell with parse_complex: the reference
    for the bulk read, and the source of its error messages."""
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


def loads_matrix_csv(text: str) -> np.ndarray:
    """Parse one row per line of comma-separated complex literals; blank
    lines are skipped.

    The cells of all rows are read at once. When a row is ragged or a cell
    does not read, the text is read again cell by cell, which raises the
    error of the first bad line.
    """
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise MatrixFormatError("empty CSV matrix")
    values = None
    if len({row.count(",") for row in rows}) == 1:
        values = _parse_cells(",".join(rows))
    if values is None:
        return _loads_matrix_csv_per_cell(text)
    a = values.reshape(len(rows), -1)
    a.flags.writeable = False
    return a


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
    if not (type(n) is int and n >= 2):
        raise MatrixFormatError("n must be an integer >= 2")
    if not isinstance(gen, list) or len(gen) != n:
        raise MatrixFormatError("gen must hold n entries")
    return as_vector(_pairs(gen, "generator JSON"), min_len=2)


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
