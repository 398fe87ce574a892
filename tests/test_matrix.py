"""Carrier validation, literals, and file-format round trips."""

import warnings

import numpy as np
import pytest

from pinvkit.matrix import (
    MatrixFormatError,
    PreconditionError,
    Tolerance,
    as_matrix,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    dumps_tree_csv,
    format_complex,
    frobenius,
    loads_generator_json,
    loads_matrix_csv,
    loads_matrix_json,
    loads_tree_csv,
    parse_complex,
    parse_generator,
)


def test_as_matrix_validates():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.shape == (2, 2) and a.dtype == np.complex128
    assert not a.flags.writeable
    with pytest.raises(MatrixFormatError):
        as_matrix([1, 2, 3])
    with pytest.raises(MatrixFormatError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(MatrixFormatError):
        as_matrix([[np.nan + 1j, 0], [0, 1]])


def test_tolerance_positive():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_rel=-1e-9)


@pytest.mark.parametrize("knob", ["rank_rel", "residual_rel"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_tolerance_finite(knob, value):
    with pytest.raises(PreconditionError):
        Tolerance(**{knob: value})


@pytest.mark.parametrize(
    "text,value",
    [
        ("1.5", 1.5),
        ("-2i", -2j),
        ("3+4i", 3 + 4j),
        ("1e-3-2.5e-4i", 1e-3 - 2.5e-4j),
        ("i", 1j),
        ("-i", -1j),
        ("2-i", 2 - 1j),
        ("7j", 7j),
        (" 1+2i ", 1 + 2j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "1+", "i2", "inf", "nan+1i", "1 2"])
def test_parse_complex_rejects(bad):
    with pytest.raises(MatrixFormatError):
        parse_complex(bad)


def test_complex_literal_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        z = complex(rng.standard_normal() * 10.0 ** rng.integers(-8, 9), rng.standard_normal())
        assert parse_complex(format_complex(z)) == z


def test_parse_generator():
    gen = parse_generator("1,-1,0")
    assert np.array_equal(gen, np.array([1, -1, 0], dtype=complex))
    with pytest.raises(MatrixFormatError):
        parse_generator("1")


def _random_matrix(rng, m, n):
    a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-12, 13, size=(m, n))
    return as_matrix(a + 1j * rng.standard_normal((m, n)))


def test_matrix_json_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = _random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        b = loads_matrix_json(dumps_matrix_json(a))
        assert a.shape == b.shape
        assert np.array_equal(a, b)  # exact, not approximate


def test_matrix_csv_round_trip_bit_exact():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = _random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        b = loads_matrix_csv(dumps_matrix_csv(a))
        assert np.array_equal(a, b)


def test_signed_zero_survives_round_trip():
    a = as_matrix([[complex(-0.0, -0.0)]])
    b = loads_matrix_csv(dumps_matrix_csv(a))
    assert np.signbit(b[0, 0].real) and np.signbit(b[0, 0].imag)


def test_matrix_json_rejects_malformed():
    with pytest.raises(MatrixFormatError):
        loads_matrix_json("{not json")
    with pytest.raises(MatrixFormatError):
        loads_matrix_json('{"rows": 2, "cols": 2, "data": [[1, 0]]}')
    with pytest.raises(MatrixFormatError):
        loads_matrix_json('{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}')
    with pytest.raises(MatrixFormatError):
        loads_matrix_json('{"rows": 0, "cols": 1, "data": []}')


def test_matrix_csv_rejects_ragged():
    with pytest.raises(MatrixFormatError):
        loads_matrix_csv("1,2\n3\n")


def test_generator_json_round_trip():
    gen = np.array([1.25, -3.5 + 2j, 0.0], dtype=complex)
    again = loads_generator_json(dumps_generator_json(gen))
    assert np.array_equal(gen, again)
    with pytest.raises(MatrixFormatError):
        loads_generator_json('{"n": 3, "gen": [[1, 0]]}')


def test_tree_csv_round_trip():
    edges = [(1, 2, 1.0), (2, 3, -1.0)]
    assert loads_tree_csv(dumps_tree_csv(edges)) == edges
    with pytest.raises(MatrixFormatError):
        loads_tree_csv("1,2\n")
    with pytest.raises(MatrixFormatError):
        loads_tree_csv("1,2,x\n")


@pytest.mark.parametrize("scale", [1e300, 1e200, 1.0, 1e-170, 1e-300])
def test_frobenius_at_extreme_scales(scale):
    a = np.array([[3.0, 1.0], [0.0, 2.0j]]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(a) == pytest.approx(np.sqrt(14.0) * scale, rel=1e-15, abs=0.0)


def test_frobenius_keeps_the_plain_sum_in_range():
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (3, 7), (40, 40)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert frobenius(a) == float(np.sqrt(np.sum(np.abs(a) ** 2)))
    assert frobenius(np.zeros((2, 3))) == 0.0
    assert frobenius(np.zeros((0, 3))) == 0.0
    assert frobenius(np.array([[np.inf, 1.0]])) == np.inf
    assert np.isnan(frobenius(np.array([[np.nan, 1.0]])))
