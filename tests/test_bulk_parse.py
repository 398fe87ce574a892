"""The bulk parsers against the per-cell ones they replace.

loads_matrix_csv and parse_generator read all cells with one lowercasing,
one bare-unit pass and one complex() per cell; the JSON loaders check the
types of all entries at once and convert them with one np.array call. The
per-cell paths (parse_complex on each cell, _pair on each entry) are the
reference: the bulk parsers must accept exactly what they accept, return
bit-identical arrays and raise the same messages.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvkit.matrix import (
    MatrixFormatError,
    _loads_matrix_csv_per_cell,
    _pair,
    _pairs,
    as_vector,
    format_complex,
    loads_generator_json,
    loads_matrix_csv,
    parse_complex,
    parse_generator,
)

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=200)

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300, 1.7976931348623157e308]),
)
WHITESPACE = st.text(st.sampled_from(" \t\x1f\xa0\u3000"), max_size=2)
NUMBERS = st.one_of(st.builds(complex, FLOATS, FLOATS).map(format_complex), FLOATS.map(repr))
UNIT_LITERALS = [
    "i", "-i", "+i", "j", "-j", "+j", "I", "-J", "2-I", "3+J", "7j", "4I", "1e-3-2.5E-4i",
    "(1+2j)", "(-j)", "( j)", "(j)", "1_0", "0x1", "infj", "1+infj", "1e+i", "2E-j", "1ei",
]
BAD_LITERALS = ["", "1+", "i2", "1 2", "x", "--1", "ii", "+-j", "inf", "-inf", "nan", "nan+1i"]
# mostly cells that read, so that whole rows read and their values compare
LITERALS = st.one_of(
    NUMBERS, NUMBERS, st.sampled_from(UNIT_LITERALS), st.sampled_from(UNIT_LITERALS),
    st.sampled_from(BAD_LITERALS),
)
CELLS = st.builds(lambda lead, cell, trail: lead + cell + trail, WHITESPACE, LITERALS, WHITESPACE)


def outcome(parse, *args):
    """("ok", shape, bits) for a parsed array, ("error", message) for a
    MatrixFormatError; any other exception propagates and fails the test."""
    try:
        a = parse(*args)
    except MatrixFormatError as exc:
        return ("error", str(exc))
    assert a.dtype == np.complex128 and not a.flags.writeable
    return ("ok", a.shape, a.view(np.uint64).tobytes())


def reference_generator(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) < 2:
        raise MatrixFormatError("generator needs at least 2 entries")
    return as_vector([parse_complex(part) for part in parts], min_len=2)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(WHITESPACE))  # blank line
            continue
        cells = draw(st.integers(1, 5)) if draw(st.integers(0, 4)) == 0 else width  # ragged
        lines.append(",".join(draw(st.lists(CELLS, min_size=cells, max_size=cells))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@RULE
@given(csv_texts())
def test_matrix_csv_matches_the_per_cell_parser(text):
    assert outcome(loads_matrix_csv, text) == outcome(_loads_matrix_csv_per_cell, text)


def test_each_literal_reads_as_its_cell_does():
    for literal in UNIT_LITERALS + BAD_LITERALS:
        for lead, trail in itertools.product(["", " ", "\t\x1f", "\xa0"], repeat=2):
            cell = lead + literal + trail
            for text in (cell, f"{cell},1", f"1,{cell}"):
                assert outcome(parse_generator, text) == outcome(reference_generator, text)
                assert outcome(loads_matrix_csv, text) == outcome(_loads_matrix_csv_per_cell, text)


@RULE
@given(st.lists(CELLS, min_size=1, max_size=8))
def test_generator_matches_the_per_cell_parser(cells):
    text = ",".join(cells)
    assert outcome(parse_generator, text) == outcome(reference_generator, text)


JSON_NUMBERS = st.one_of(
    FLOATS,
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400), 2**1024 - 1, 2**53 + 1, float("inf"), True, False]),
)
JSON_PAIRS = st.lists(JSON_NUMBERS, min_size=2, max_size=2)
JSON_BAD = st.one_of(
    st.lists(st.one_of(JSON_NUMBERS, st.sampled_from([None, "1", [1]])), max_size=3),
    JSON_NUMBERS,
)
JSON_ENTRIES = st.one_of(JSON_PAIRS, JSON_PAIRS, JSON_PAIRS, JSON_BAD)


@RULE
@given(st.lists(JSON_ENTRIES, min_size=1, max_size=6))
def test_json_entries_match_the_per_entry_parser(data):
    data = json.loads(json.dumps(data))  # the types json.loads gives

    def bulk():
        values = _pairs(data, "matrix JSON")
        values.flags.writeable = False
        return values

    def per_entry():
        values = np.array([_pair(entry, "matrix JSON") for entry in data], dtype=np.complex128)
        values.flags.writeable = False
        return values

    assert outcome(bulk) == outcome(per_entry)


def test_json_ints_convert_like_complex():
    ints = [2**53 + 1, -(2**63) - 1, 2**64 + 1, 2**1000 + 12345, -0, 7]
    data = [[value, -value] for value in ints] + [[-0.0, 0.5], [1, 0.0]]
    want = np.array([complex(re_, im) for re_, im in data])
    got = loads_generator_json(json.dumps({"n": len(data), "gen": data}))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_bare_units_and_whitespace_read_as_before():
    text = " i ,-I,+j\t,2-J\n\n\x1f3+4i\xa0,J ,  -i, 5\n"
    want = [[1j, -1j, 1j, 2 - 1j], [3 + 4j, 1j, -1j, 5]]
    np.testing.assert_array_equal(loads_matrix_csv(text), np.array(want))
    assert parse_generator("i,-I,+j, 2-J").tolist() == [1j, -1j, 1j, 2 - 1j]
