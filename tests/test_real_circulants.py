"""Real circulants stay real, and every circulant route keeps the exact
symmetries of the pseudoinverse.

A generator whose imaginary parts are all +-0.0 is real. Its spectrum comes
from the real FFT and is conjugate-symmetric bit for bit, every route
returns its X as complex128 with imaginary parts +0.0, and `pinvkit circ`
writes those as "+0i" cells. A complex generator keeps the
ifft -> invert -> fft path, bit for bit.

The relations, for circ(g)^+ = circ(x):

- shift: circ(roll(g, s)) = circ(g) Pi^s, so its pseudoinverse is
  Pi^-s circ(x) = circ(roll(x, -s));
- transpose: circ(rho(g)) = circ(g)^T, so rho(g) gives rho(x);
- conjugate: conj(g) gives conj(x).

Each is checked on every route, for real and complex generators, in the
library and through `main` with files in and out. The two sides may differ
by rounding only: ||x' - x~||_F <= C u kappa ||x||_F, with u the unit
roundoff, kappa = max |lambda| / min kept |lambda| of circ(g), and C a
per-relation constant at about 4x the worst ratio ||x' - x~||_F /
(u kappa ||x||_F) measured over 10000 draws of these strategies per library
route and 1000 through `main`: shift 6.70 (zero-sum, whose shifted matrix
can be worse conditioned than circ(g)), transpose 3.89 (support split),
conjugate 3.50 (zero-sum).

The rank cutoff decides which eigenvalues the routes invert, and an
|lambda| within rounding of it could be kept on one side of a relation and
dropped on the other. So every draw keeps each |lambda| at least 4x away
from the cutoff.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinvkit.circulant import (
    _two_term_generator,
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_pinv_spectral,
    circ_spectrum,
    rho,
    support_split_pinv,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import main
from pinvkit.matrix import (
    DEFAULT_TOL,
    UNIT_ROUNDOFF,
    Tolerance,
    dumps_generator_json,
    dumps_matrix_csv,
    format_complex,
    format_float,
    frobenius,
    loads_generator_json,
    loads_matrix_csv,
    parse_generator,
)

SIZES = (7, 8, 64, 65)
# per-relation constants C of the bound C u kappa ||x||_F, about 4x the worst measured
RELATION_C = {"shift": 28.0, "transpose": 16.0, "conjugate": 14.0}
RULE = settings(derandomize=True, database=None, deadline=None, max_examples=25)


def imag_is_plus_zero(x: np.ndarray) -> bool:
    """x is complex128 and every imaginary part is +0.0, bit for bit."""
    return x.dtype == np.complex128 and not np.ascontiguousarray(x).view(np.uint64)[1::2].any()


def block_gen(alpha: complex, beta: complex, k: int, q: int) -> np.ndarray:
    return alpha * np.ones(q * (k + 1)) + beta * block_pattern_generator(k, q)


def smallest_divisor(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def real_case(n: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(real generator of A, the route's X) for one route at size n."""
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n) + 0.5  # a nonzero entry sum
    z = rng.integers(-4, 5, n).astype(float)
    z[-1] -= z.sum()  # an exact zero sum
    d = smallest_divisor(n)
    k_pos = min(3, n)
    cases = {
        "spectral": lambda: (g, circ_pinv_spectral(g)),
        "zero-sum mean split": lambda: (g, zero_sum_shift_pinv(g, alpha=1.5)),
        "zero-sum shifted, real alpha": lambda: (z, zero_sum_shift_pinv(z, alpha=-0.75)),
        "zero-sum shifted, complex alpha": lambda: (z, zero_sum_shift_pinv(z, alpha=0.5 - 2j)),
        "two-term alpha = -beta": lambda: (
            _two_term_generator(-1.3, 1.3, n, k_pos), two_term_pinv(-1.3, 1.3, n, k_pos)),
        # the closed form for even n; for odd n, alpha = beta is invertible
        # and goes through the spectral fallback
        "two-term alpha = beta": lambda: (
            _two_term_generator(-1.3, -1.3, n, k_pos), two_term_pinv(-1.3, -1.3, n, k_pos)),
        "two-term fallback": lambda: (
            _two_term_generator(-1.3, 0.4, n, k_pos), two_term_pinv(-1.3, 0.4, n, k_pos)),
        "block": lambda: (
            block_gen(-1.5, -0.7, d - 1, n // d), block_pattern_pinv(-1.5, -0.7, d - 1, n // d)),
        "support split": lambda: (
            z + 0.25, support_split_pinv([np.full(n, 0.25), z])[0]),
    }
    return cases[name]()


CASES = ("spectral", "zero-sum mean split", "zero-sum shifted, real alpha",
         "zero-sum shifted, complex alpha", "two-term alpha = -beta", "two-term alpha = beta",
         "two-term fallback", "block", "support split")


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("n", SIZES)
def test_real_generator_gives_plus_zero_imaginary_parts(n, name):
    _, x = real_case(n, name)
    assert imag_is_plus_zero(x)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("n", SIZES)
def test_real_routes_match_the_dense_pseudoinverse(n, name):
    gen, x = real_case(n, name)
    # numpy's cutoff relative to sigma_max, set to the routes' rank rule
    want = np.linalg.pinv(circ_materialize(gen), rcond=n * UNIT_ROUNDOFF)
    assert frobenius(circ_materialize(x) - want) <= 1e-9 * max(1.0, frobenius(want))


def conjugate_symmetric(values: np.ndarray) -> bool:
    """values[(n - k) % n] == conj(values[k]) for every k: real parts bit for
    bit, imaginary parts as numbers, so that the self-paired k = 0 and n/2
    may hold +0.0 where the mirror reads -0.0."""
    mirror = np.conj(np.roll(values[::-1], 1))
    return mirror.real.tobytes() == values.real.tobytes() and np.array_equal(mirror.imag, values.imag)


def symmetric_support(support: tuple[int, ...], n: int) -> bool:
    return set(support) == {(n - k) % n for k in support}


@pytest.mark.parametrize("n", (2, 3, *SIZES, 320, 512))
def test_real_spectrum_is_conjugate_symmetric(n):
    rng = np.random.default_rng(100 + n)
    g = rng.standard_normal(n)
    signed = np.empty(n, dtype=np.complex128)
    signed.real, signed.imag = g, -0.0  # -0.0 imaginary parts are real too
    for gen in (g, signed):
        spec = circ_spectrum(gen)
        assert conjugate_symmetric(spec.values)
        assert symmetric_support(spec.support, n)
    assert circ_spectrum(signed).values.tobytes() == circ_spectrum(g).values.tobytes()


@pytest.mark.parametrize("n", (7, 8, 64, 65))
def test_real_support_is_symmetric_near_the_cutoff(n):
    # a rank_rel that puts the cutoff within 2^-40 of some |lambda_k|, on either side
    rng = np.random.default_rng(200 + n)
    g = rng.standard_normal(n)
    magnitudes = np.abs(circ_spectrum(g).values)
    top = float(magnitudes.max())
    for k in (1, n // 3, n // 2 - 1):
        for nudge in (-(2.0**-40), -(2.0**-52), 0.0, 2.0**-52, 2.0**-40):
            target = float(magnitudes[k]) * (1.0 + nudge)
            tol = Tolerance(rank_rel=target / (top * n))
            assert abs(tol.rank_cutoff(top, n, n) / target - 1.0) <= 2.0**-50
            spec = circ_spectrum(g, tol)
            assert symmetric_support(spec.support, n)
            assert imag_is_plus_zero(circ_pinv_spectral(g, tol))


@pytest.mark.parametrize("n", (2, 7, 8, 64, 65))
def test_complex_generator_keeps_the_ifft_path_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values = np.fft.ifft(gen, norm="forward")
    magnitudes = np.abs(values)
    keep = magnitudes > DEFAULT_TOL.rank_cutoff(float(magnitudes.max()), n, n)
    inverted = np.zeros_like(values)
    inverted[keep] = 1.0 / values[keep]
    want = np.fft.fft(inverted, norm="forward")
    assert circ_pinv_spectral(gen).tobytes() == want.tobytes()
    assert circ_spectrum(gen).values.tobytes() == values.tobytes()


def run_circ(workdir: str, argv: list[str], gen=None, suffix: str = ".json") -> np.ndarray:
    """X's generator from `pinvkit circ`: gen goes in as a generator JSON
    file, X comes out as a generator JSON or a matrix CSV file."""
    source = []
    if gen is not None:
        path = os.path.join(workdir, "gen.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps_generator_json(np.asarray(gen, dtype=np.complex128)))
        source = ["--input", path]
    out = os.path.join(workdir, "x" + suffix)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["circ", *argv, *source, "--output", out]) == 0
    with open(out, encoding="utf-8") as handle:
        text = handle.read()
    os.unlink(out)
    return loads_generator_json(text) if suffix == ".json" else loads_matrix_csv(text)[0]


@pytest.mark.parametrize("n", (7, 64))
@pytest.mark.parametrize("method", ("spectral", "zero-sum"))
def test_circ_command_writes_plus_zero_cells(tmp_path, n, method):
    rng = np.random.default_rng(400 + n)
    g = rng.standard_normal(n)
    z = g - g.mean() if method == "zero-sum" else g
    text = ",".join(format_float(v) for v in z)
    gen = parse_generator(text)
    out = tmp_path / "x.csv"
    extra = ["--alpha", "1.5"] if method == "zero-sum" else []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["circ", "--method", method, f"--gen={text}", *extra, "--output", str(out)]) == 0
    x = circ_pinv_spectral(gen) if method == "spectral" else zero_sum_shift_pinv(gen, alpha=1.5)
    written = out.read_text(encoding="utf-8")
    assert all(cell.endswith("+0i") for cell in written.replace("\n", ",").split(",")[:-1])
    assert written == dumps_matrix_csv(circ_materialize(x))


# ---------------------------------------------------------------------------
# relations


def kappa(gen: np.ndarray) -> float:
    spec = circ_spectrum(gen)
    kept = np.abs(spec.values)[list(spec.support)]
    return float(kept.max() / kept.min())


def clear_of_cutoff(gen: np.ndarray) -> bool:
    """Every |lambda| at least 4x above or below the rank cutoff, and some
    above it."""
    magnitudes = np.abs(circ_spectrum(gen).values)
    n = gen.shape[0]
    cutoff = DEFAULT_TOL.rank_cutoff(float(magnitudes.max()), n, n)
    return cutoff > 0 and bool(np.all((magnitudes > 4 * cutoff) | (magnitudes < cutoff / 4)))


def assert_relation(relation: str, got: np.ndarray, want: np.ndarray, gen: np.ndarray) -> None:
    bound = RELATION_C[relation] * UNIT_ROUNDOFF * kappa(gen) * frobenius(want)
    assert frobenius(got - want) <= bound, relation


def check_relations(solve, params, transforms, s: int) -> None:
    """solve(params) is (generator, X), and transforms(params, s) gives each
    relation's moved params. Solving those must give the moved generator
    exactly and the moved X within the relation's bound."""
    gen, x = solve(params)
    assume(clear_of_cutoff(gen))
    n = gen.shape[0]
    expected = {
        "shift": (np.roll(gen, s), np.roll(x, -s)),
        "transpose": (rho(gen), rho(x)),
        "conjugate": (np.conj(gen), np.conj(x)),
    }
    for relation, moved in transforms(params, s % n).items():
        want_gen, want = expected[relation]
        got_gen, got = solve(moved)
        np.testing.assert_array_equal(got_gen, want_gen)
        assert_relation(relation, got, want, gen)


def shift_rho_conj(gen, s):
    return {"shift": np.roll(gen, s), "transpose": rho(gen), "conjugate": np.conj(gen)}


def two_term_moves(params, s):
    alpha, beta, n, k_pos = params
    return {
        "shift": (alpha, beta, n, (k_pos - 1 + s) % n + 1),
        # rho sends alpha at p to -p and beta at p + 1 to -p - 1: beta first
        "transpose": (beta, alpha, n, (-k_pos) % n + 1),
        "conjugate": (np.conj(alpha), np.conj(beta), n, k_pos),
    }


def block_moves(params, s):
    alpha, beta, k, q = params
    # the pattern is its own transpose; a shifted pattern is no longer one,
    # so the shift goes through the spectral route
    return {"shift": ("rolled", params, s), "transpose": params,
            "conjugate": (np.conj(alpha), np.conj(beta), k, q)}


def solve_block(route):
    def solve(params):
        if params[0] == "rolled":
            gen = np.roll(block_gen(*params[1]), params[2])
            return gen, route("spectral", gen)
        return block_gen(*params), route("block", params)
    return solve


dyadic = st.integers(-32, 32).map(lambda v: v / 8)
nonzero_dyadic = dyadic.filter(lambda v: v != 0)


@st.composite
def generators(draw, zero_sum: bool | None = None, complex_: bool | None = None):
    n = draw(st.integers(2, 12))
    if complex_ is None:
        complex_ = draw(st.booleans())
    re = np.array(draw(st.lists(dyadic, min_size=n, max_size=n)))
    im = np.array(draw(st.lists(dyadic, min_size=n, max_size=n))) if complex_ else np.zeros(n)
    if zero_sum:
        re[-1] -= re.sum()
        im[-1] -= im.sum()
    elif zero_sum is False:
        re[0] += 8.0 - re.sum()  # entry sum 8, far from 0
    gen = re + 1j * im if complex_ else re
    assume(np.any(gen != 0))
    return gen


@st.composite
def two_term_params(draw):
    n = draw(st.integers(2, 12))
    alpha = complex(draw(nonzero_dyadic), draw(dyadic) if draw(st.booleans()) else 0.0)
    kind = draw(st.sampled_from(["minus", "plus", "generic"]))
    beta = {"minus": -alpha, "plus": alpha,
            "generic": complex(draw(nonzero_dyadic), draw(dyadic))}[kind]
    return alpha, beta, n, draw(st.integers(1, n))


@st.composite
def block_params(draw):
    complex_ = draw(st.booleans())
    alpha, beta = (complex(draw(nonzero_dyadic), draw(dyadic) if complex_ else 0.0)
                   for _ in range(2))
    return alpha, beta, draw(st.integers(1, 3)), draw(st.integers(1, 3))


def library_route(method: str, params):
    if method == "spectral":
        return circ_pinv_spectral(params)
    if method == "zero-sum":
        return zero_sum_shift_pinv(params, alpha=0.75)
    if method == "two-term":
        return two_term_pinv(*params)
    return block_pattern_pinv(*params)


def command_route(workdir: str, suffix: str):
    def route(method: str, params):
        if method == "block":
            alpha, beta, k, q = params
            return run_circ(workdir, ["--method", "block", f"--alpha={format_complex(alpha)}",
                                      f"--beta={format_complex(beta)}",
                                      "--k", str(k), "--q", str(q)], suffix=suffix)
        gen = _two_term_generator(*params) if method == "two-term" else params
        extra = ["--alpha", "0.75"] if method == "zero-sum" else []
        return run_circ(workdir, ["--method", method, *extra], gen, suffix)
    return route


def solve_generator(route, method):
    return lambda gen: (gen, route(method, gen))


def solve_two_term(route):
    return lambda params: (_two_term_generator(*params), route("two-term", params))


s_draw = st.integers(0, 11)


@RULE
@given(generators(), s_draw)
def test_spectral_relations(gen, s):
    check_relations(solve_generator(library_route, "spectral"), gen, shift_rho_conj, s)


@RULE
@given(st.booleans().flatmap(lambda z: generators(zero_sum=z)), s_draw)
def test_zero_sum_relations(gen, s):
    check_relations(solve_generator(library_route, "zero-sum"), gen, shift_rho_conj, s)


@RULE
@given(two_term_params(), s_draw)
def test_two_term_relations(params, s):
    check_relations(solve_two_term(library_route), params, two_term_moves, s)


@RULE
@given(block_params(), s_draw)
def test_block_relations(params, s):
    check_relations(solve_block(library_route), params, block_moves, s)


@RULE
@given(st.booleans(), nonzero_dyadic, generators(zero_sum=True), s_draw)
def test_support_split_relations(complex_, c, z, s):
    # c ones has support {0}; a zero-sum member's support and its transpose's avoid 0
    ones = np.full(z.shape[0], complex(c, c) if complex_ else c)

    def solve(members):
        return sum(members), support_split_pinv(members)[0]

    def moves(members, s):
        return {relation: [shift_rho_conj(m, s)[relation] for m in members]
                for relation in ("shift", "transpose", "conjugate")}

    check_relations(solve, [ones, z], moves, s)


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(st.sampled_from(["spectral", "zero-sum", "two-term", "block"]),
       st.sampled_from([".json", ".csv"]), st.data())
def test_relations_through_the_command(method, suffix, data):
    s = data.draw(s_draw)
    with tempfile.TemporaryDirectory() as workdir:
        route = command_route(workdir, suffix)
        if method == "two-term":
            check_relations(solve_two_term(route), data.draw(two_term_params()), two_term_moves, s)
        elif method == "block":
            check_relations(solve_block(route), data.draw(block_params()), block_moves, s)
        else:
            gen = data.draw(generators(zero_sum=data.draw(st.booleans()) if method == "zero-sum" else None))
            check_relations(solve_generator(route, method), gen, shift_rho_conj, s)
