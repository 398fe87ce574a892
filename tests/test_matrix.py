"""Carrier validation, literals, and file-format round trips."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvkit.matrix import (
    _SUM_FLOOR,
    MatrixFormatError,
    PreconditionError,
    Tolerance,
    as_matrix,
    circulant_csv_blocks,
    dumps_circulant_csv,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    dumps_tree_csv,
    format_complex,
    format_float,
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
        assert frobenius(a) == math.sqrt(np.vdot(a, a).real)
        assert frobenius(a.real) == math.sqrt(np.vdot(a.real, a.real))
    assert frobenius(np.zeros((2, 3))) == 0.0
    assert frobenius(np.zeros((0, 3))) == 0.0
    assert frobenius(np.array([[np.inf, 1.0]])) == np.inf
    assert np.isnan(frobenius(np.array([[np.nan, 1.0]])))


def rescaled_frobenius(a) -> float:
    """frobenius off the one-dot path: the dot on a times the power of two s
    that brings max |a_ij| below 1, divided by s; max |a_ij| for zero input
    or an inf or nan entry. Other dtypes are first made float64 or complex128."""
    a = np.asarray(a)
    if a.dtype.char not in "dD":
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    top = float(np.max(np.abs(a), initial=0.0))
    if not 0.0 < top < math.inf:
        return top
    s = math.ldexp(1.0, -max(math.frexp(top)[1], -1000))
    return math.sqrt(np.vdot(a * s, a * s).real) / s


def exact_square(x: float) -> tuple[float, float]:
    """x * x as hi + lo exactly (Dekker's split), barring over- and underflow."""
    hi = x * x
    c = 134217729.0 * x  # 2^27 + 1
    xh = c - (c - x)
    xl = x - xh
    return hi, ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl


def fsum_frobenius(a) -> float:
    """The norm from the correctly rounded sum of the exact squares."""
    terms = []
    for z in np.asarray(a, dtype=np.complex128).ravel().tolist():
        terms += exact_square(z.real) + exact_square(z.imag)
    return math.sqrt(math.fsum(terms))


# entries with a normal square: zero, or +-[0.5, 1) * 2^e
ENTRIES = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-40, 40)),
    st.builds(math.ldexp, st.floats(-1.0, -0.5, exclude_min=True), st.integers(-40, 40)),
)


# 2^k with -443 <= k <= 450: every nonzero square above is then at least
# 2^-969, the _SUM_FLOOR of the one-dot path, and none overflows
SCALES = st.integers(-443, 450).map(lambda k: math.ldexp(1.0, k))


@st.composite
def norm_inputs(draw) -> np.ndarray:
    """A real or complex matrix scaled by SCALES, of shape 0 x n, 1 x 1 or up
    to 6 x 6, given as itself, as its transpose or as a column-strided view."""
    m, n = draw(st.sampled_from([(0, 3), (1, 1), (3, 0)]) | st.tuples(
        st.integers(1, 6), st.integers(1, 6)))
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    cols = 2 * n if layout == "strided" else n
    re = np.array(draw(st.lists(ENTRIES, min_size=m * cols, max_size=m * cols)))
    a = re.reshape(m, cols) * draw(SCALES)
    if draw(st.booleans()):
        im = np.array(draw(st.lists(ENTRIES, min_size=m * cols, max_size=m * cols)))
        a = a + 1j * im.reshape(m, cols) * draw(SCALES)
    if layout == "transposed":
        return a.T
    return a[:, ::2] if layout == "strided" else a


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(a=norm_inputs())
def test_frobenius_in_range_is_one_dot(a):
    total = np.vdot(a, a).real
    if not a.any():  # empty or zero: the guarded path's exact 0
        assert frobenius(a) == 0.0
        return
    assert _SUM_FLOOR <= total < np.inf
    got = frobenius(a)
    assert got == math.sqrt(total)
    want = fsum_frobenius(a)
    assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("entry", [1.3e-155, 3.1e-158])
def test_frobenius_of_a_sum_of_subnormal_squares(entry):
    # each square is subnormal and keeps only some of its bits; at 1.3e-155
    # their sum, 6.9e-307, is normal, and kept as it was it read 33 ulps off
    a = np.full(4096, entry)
    # the reference runs on a times 2^600, exact, where every square is normal
    want = fsum_frobenius(a * 2.0**600) * 2.0**-600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = frobenius(a)
    assert abs(got - want) <= 2 * math.ulp(want)


def guarded_path_inputs() -> dict[str, np.ndarray]:
    a = np.array([[3.0, 1.0], [0.0, -2.0]])
    z = a + 1j * a[::-1]
    cases = {f"real-{s:g}": a * s for s in (1e200, 1e-200, 1e-310, 5e-324)}
    cases |= {f"complex-{s:g}": z * s for s in (1e200, 1e-200, 1e-310)}
    cases |= {"all-5e-324": np.full((2, 3), 5e-324), "all-1e-160": np.full((3, 3), 1e-160)}
    for bad in (np.inf, -np.inf, np.nan):
        cases[f"real-{bad}"] = np.array([[bad, 1.0]])
        cases[f"complex-{bad}j"] = np.array([[1.0, complex(0.0, bad)]])
    cases |= {"zero": np.zeros((2, 3)), "empty": np.zeros((0, 4), dtype=np.complex128)}
    cases |= {"int64": np.arange(12).reshape(3, 4), "int8": np.array([[3, -4]], dtype=np.int8)}
    cases |= {"float32": a.astype(np.float32), "complex64": z.astype(np.complex64) * 1e30}
    return cases


GUARDED_PATH_INPUTS = guarded_path_inputs()


@pytest.mark.parametrize("a", list(GUARDED_PATH_INPUTS.values()), ids=list(GUARDED_PATH_INPUTS))
def test_frobenius_out_of_range_is_the_guarded_path(a):
    # the guarded path is one exact rescale; the int and float32 cases,
    # converted to float64, and complex64 * 1e30 take the one dot, which the
    # rescale equals bit for bit wherever neither leaves the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = frobenius(a), rescaled_frobenius(a)
    assert isinstance(got, float)
    assert got == want or (math.isnan(got) and math.isnan(want))


# Inputs whose sums of squares lie in [2^-1022, 2^-969), below the one-dot
# floor: the former guarded path, which divided by max |a_ij| and squared
# the rounded |a_ij|, was 3.0 ulps off on each (found in 20000 random draws)
BAND_INPUTS = [
    [[3.3490616774946174e-149 + 3.790567665999521e-150j, 1.10158954739407e-150 + 4.298646293305379e-151j,
      -3.8098387196748474e-150 + 4.001346704942008e-151j, 5.071296411252985e-151 + 4.160819782665034e-150j],
     [-8.516284676030063e-151 + 1.8207143511826503e-150j, 2.746013885090915e-151 + 2.5526181161664084e-151j,
      1.1895786546599445e-150 + 5.598520597842545e-151j, 1.7484918249336779e-149 + 8.04887046738212e-151j]],
    [[-8.615453285327686e-153 + 6.84991610105135e-154j], [-1.0742414353146097e-154 + 2.1232518011984086e-154j],
     [2.602485302049786e-154 + 4.717761530835329e-154j]],
]


def band_inputs(seed: int, count: int) -> list[np.ndarray]:
    """Random real and complex inputs up to 6 x 6 with sums in the band."""
    rng = np.random.default_rng(seed)
    found = [np.array(a) for a in BAND_INPUTS]
    while len(found) < count:
        shape, e = tuple(rng.integers(1, 7, size=2)), int(rng.integers(-520, -486))
        a = np.ldexp(rng.uniform(-1.0, 1.0, shape), e + rng.integers(-8, 1, shape))
        if rng.random() < 0.5:
            a = a + 1j * np.ldexp(rng.uniform(-1.0, 1.0, shape), e + rng.integers(-8, 1, shape))
        # the sum of squares times 2^1200 in [2^-1022, _SUM_FLOOR) times 2^1200
        if 2.0**178 <= fsum_frobenius(a * 2.0**600) ** 2 < 2.0**231:
            found.append(a)
    return found


def test_frobenius_below_the_one_dot_floor_is_within_2_ulps():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in band_inputs(7, 400):
            # the reference runs on a times 2^600, exact, where no square underflows
            want = fsum_frobenius(a * 2.0**600) * 2.0**-600
            assert abs(frobenius(a) - want) <= 2 * math.ulp(want), a.tolist()
            # and equal to the one dot on a times 2^600, which is in range
            assert frobenius(a) * 2.0**600 == frobenius(a * 2.0**600)


# --------------------------------------------------------------------------
# the writers against per-cell references built from format_complex


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300]), st.integers(-3, 3).map(float), FINITE
)
IMAGS = st.one_of(st.sampled_from([0.0, -0.0]), FINITE.filter(bool))
SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(2, 12)),
    st.tuples(st.integers(2, 12), st.just(1)),
    st.tuples(st.integers(2, 6), st.integers(2, 6)),
)


@st.composite
def matrices(draw, regime: str) -> np.ndarray:
    """A matrix whose real parts repeat ("repeated": at most half the cells
    distinct), or are all distinct ("distinct"), with every imaginary part
    +0.0; or one with an imaginary part that is not +0.0 ("complex")."""
    m, n = draw(SHAPES)
    size = m * n
    if regime == "distinct":
        re = draw(st.lists(REALS, min_size=size, max_size=size, unique_by=bits))
    else:
        pool = draw(st.lists(REALS, min_size=1, max_size=size // 2))
        re = [draw(st.sampled_from(pool)) for _ in range(size)]
    im = [0.0] * size
    if regime == "complex":
        im = draw(st.lists(IMAGS, min_size=size, max_size=size).filter(
            lambda parts: any(bits(x) != bits(0.0) for x in parts)))
    return np.array([complex(x, y) for x, y in zip(re, im)]).reshape(m, n)


def reference_csv(rows) -> str:
    return "".join(",".join(format_complex(z) for z in row) + "\n" for row in rows)


def reference_pairs(values) -> str:
    return ", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in values)


@pytest.mark.parametrize("regime", ["repeated", "distinct", "complex"])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_writers_equal_the_per_cell_reference(regime, data):
    a = data.draw(matrices(regime))
    # the matrix lies on the side of the half-distinct rule its regime names
    assert a.imag.view(np.int64).any() == (regime == "complex")
    if regime != "complex":
        distinct = len({bits(x) for x in a.real.ravel()})
        assert (2 * distinct <= a.size) == (regime == "repeated")
    m, n = a.shape
    assert dumps_matrix_csv(a) == reference_csv(a)
    assert dumps_matrix_json(a) == (
        f'{{"rows": {m}, "cols": {n}, "data": [{reference_pairs(a.ravel())}]}}\n'
    )
    gen = a.ravel()
    rotations = [np.roll(gen, i) for i in range(gen.size)]
    assert dumps_generator_json(gen) == f'{{"n": {gen.size}, "gen": [{reference_pairs(gen)}]}}\n'
    assert dumps_circulant_csv(gen) == reference_csv(rotations)
    assert b"".join(circulant_csv_blocks(gen)) == reference_csv(rotations).encode()
