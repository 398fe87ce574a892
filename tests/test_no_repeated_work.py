"""Checks that do their work once, with the verdicts and bytes of the
longer forms they replace.

circ_penrose_residuals makes three products and one adjoint, since
circulants commute; block_pattern_pinv proves C^2 = n C on one period of its
generator; the circ command takes its generator's spectrum once and hands
it to its checked form, which runs the public routes, and
support_split_pinv one spectrum per member, checked on the sum; main parses
a command line once; the report line is encoded once when it holds no NaN or
infinity; and verify certifies a full-rank pair once.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvkit.circulant
import pinvkit.cli
import pinvkit.core
from pinvkit.circulant import (
    _two_term_generator,
    block_pattern_generator,
    block_pattern_pinv,
    circ_mul,
    circ_penrose_residuals,
    circ_pinv_spectral,
    circ_spectrum,
    generator_from_spectrum,
    rho,
    support_split_pinv,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import _print_report, main
from pinvkit.matrix import (
    DEFAULT_TOL,
    PreconditionError,
    VerificationError,
    dumps_matrix_json,
    loads_generator_json,
)

RULE = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def counted(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls; return the count list."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_outermost(monkeypatch, module, names):
    """Patch each module.name with a wrapper that counts its calls made
    outside any call of the others; return one count list per name."""
    active = []

    def wrap(inner, calls):
        def wrapper(*args, **kwargs):
            if not active:
                calls.append(inner.__name__)
            active.append(inner)
            try:
                return inner(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    counts = [[] for _ in names]
    for name, calls in zip(names, counts):
        monkeypatch.setattr(module, name, wrap(getattr(module, name), calls))
    return counts


# --------------------------------------------------------------------------
# the generator check: AX once, for XA too


def checked_cases(n):
    """(label, generator, pseudoinverse generator): a generic circulant and
    the singular two-term, zero-sum and block routes."""
    rng = np.random.default_rng(3100 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    two_term = np.zeros(n, dtype=np.complex128)
    two_term[0], two_term[1] = 1.3, -1.3
    zero_sum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zero_sum -= zero_sum.mean()
    block = 1.5 * np.ones(n) - 0.7 * block_pattern_generator(3, n // 4)
    return [
        ("spectral", gen, circ_pinv_spectral(gen)),
        ("two-term, singular", two_term, two_term_pinv(1.3, -1.3, n)),
        ("zero-sum, singular", zero_sum, zero_sum_shift_pinv(zero_sum, alpha=0.7)),
        ("block, singular", block, block_pattern_pinv(1.5, -0.7, 3, n // 4)),
    ]


@pytest.mark.parametrize("n", [2, 64, 512])
def test_circ_check_makes_three_products_and_one_symmetry_residual(monkeypatch, n):
    rng = np.random.default_rng(n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xgen = circ_pinv_spectral(gen)
    calls = counted(monkeypatch, pinvkit.circulant, "circ_mul")
    adjoints = counted(monkeypatch, pinvkit.circulant, "_adjoint_generator")
    report = circ_penrose_residuals(gen, xgen, DEFAULT_TOL)
    assert len(calls) == 3
    assert len(adjoints) == 1
    assert report.passed
    assert report.residuals["penrose3"] == report.residuals["penrose4"]
    assert report.bounds["penrose3"] == report.bounds["penrose4"]


@pytest.mark.parametrize("n", [64, 512])
def test_one_entry_off_by_1e_8_of_the_norm_fails_the_check(n):
    for label, gen, xgen in checked_cases(n):
        assert circ_penrose_residuals(gen, xgen, DEFAULT_TOL).passed, label
        step = 1e-8 * float(np.linalg.norm(xgen))
        for index in (0, 1, n // 2, n - 1):
            for direction in (1.0, -1.0, 1j):
                off = xgen.copy()
                off[index] += direction * step
                report = circ_penrose_residuals(gen, off, DEFAULT_TOL)
                assert not report.passed, (label, index, direction)


# --------------------------------------------------------------------------
# one spectrum per circ operation


def gen_arg(values) -> str:
    return "--gen=" + ",".join(repr(complex(v)) for v in values)


def spectra_argv(n):
    """(label, circ argv, spectra the operation takes): the input generator's,
    which a generic two-term pair and the zero-sum mean split invert, plus
    the shifted generator's for the shifted zero-sum route."""
    rng = np.random.default_rng(3300 + n)
    complex_gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    real_gen = rng.standard_normal(n)
    zero_sum = real_gen - real_gen.mean()
    return [
        ("spectral, complex", ["circ", gen_arg(complex_gen)], 1),
        ("spectral, real", ["circ", gen_arg(real_gen)], 1),
        ("zero-sum, shifted", ["circ", "--method", "zero-sum", gen_arg(zero_sum), "--alpha=1.5"], 2),
        ("zero-sum, shifted, complex",
         ["circ", "--method", "zero-sum", gen_arg(complex_gen - complex_gen.mean()), "--alpha=1.5"], 2),
        ("zero-sum, mean split", ["circ", "--method", "zero-sum", gen_arg(zero_sum + 0.5)], 1),
        ("two-term, closed form",
         ["circ", "--method", "two-term", "--alpha=1.3", "--beta=-1.3", f"--n={n}", "--k=2"], 1),
        ("two-term, generic",
         ["circ", "--method", "two-term", "--alpha=2", "--beta=0.5-0.25i", f"--n={n}"], 1),
        ("block", ["circ", "--method", "block", "--alpha=1.5", "--beta=-0.7", "--k=3",
                   f"--q={n // 4}"], 1),
    ]


@pytest.mark.parametrize("n", [8, 64])
def test_each_circ_method_takes_the_spectra_it_needs(monkeypatch, capsys, n):
    # a spectrum is a forward transform: rfft for a real generator, ifft else
    import numpy.fft

    for label, argv, want in spectra_argv(n):
        with monkeypatch.context() as patch:
            rfft, ifft = counted(patch, numpy.fft, "rfft"), counted(patch, numpy.fft, "ifft")
            assert main(argv) == 0, label
        report = json.loads(capsys.readouterr().out)
        assert len(rfft) + len(ifft) == want, label
        assert report["passed"] and report["rank"] == len(report["extras"]["support"]), label


# (circ_pinv_spectral, zero_sum_shift_pinv) calls each circ method's checked
# form makes, not counting a route's calls to the other
PUBLIC_ROUTE_CALLS = {
    "spectral, complex": (1, 0), "spectral, real": (1, 0),
    "zero-sum, shifted": (0, 1), "zero-sum, shifted, complex": (0, 1),
    "zero-sum, mean split": (0, 1), "two-term, closed form": (0, 0),
    "two-term, generic": (1, 0), "block": (0, 0),
}


@pytest.mark.parametrize("n", [8, 64])
def test_circ_runs_the_public_routes(monkeypatch, capsys, n):
    # circ hands its one spectrum to the functions a library caller gets
    for label, argv, _ in spectra_argv(n):
        with monkeypatch.context() as patch:
            spectral, zero_sum = counted_outermost(
                patch, pinvkit.circulant, ("circ_pinv_spectral", "zero_sum_shift_pinv"))
            assert main(argv) == 0, label
        assert json.loads(capsys.readouterr().out)["passed"], label
        assert (len(spectral), len(zero_sum)) == PUBLIC_ROUTE_CALLS[label], label


@pytest.mark.parametrize("n", [8, 64])
def test_generic_two_term_x_has_the_reported_support(tmp_path, monkeypatch, capsys, n):
    # X inverts the spectrum that gives the report's support, so X's own
    # spectrum is nonzero exactly there: invertible complex and real pairs, a
    # singular complex pair (i^n = (-1)^n for n = 0 mod 4) and a --gen pair
    # with alpha at index 5
    monkeypatch.chdir(tmp_path)
    gen = np.zeros(n, dtype=np.complex128)
    gen[5], gen[6] = 0.75 - 2j, 1.25
    ranks = []
    for argv in (["--alpha=2", "--beta=0.5-0.25i", f"--n={n}", "--k=3"],
                 ["--alpha=2", "--beta=0.5", f"--n={n}", f"--k={n}"],
                 ["--alpha=1.5", "--beta=1.5i", f"--n={n}", "--k=2"],
                 [gen_arg(gen)]):
        assert main(["circ", "--method", "two-term", *argv, "--output", "x.json"]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        with open("x.json", encoding="utf-8") as handle:
            xgen = loads_generator_json(handle.read())
        assert report["passed"], argv
        assert list(circ_spectrum(xgen).support) == report["extras"]["support"], argv
        assert report["rank"] == len(report["extras"]["support"]), argv
        ranks.append(report["rank"])
    assert ranks[2] < n == ranks[0] == ranks[1] == ranks[3]


def test_two_term_closed_forms_take_no_transform(monkeypatch):
    import numpy.fft

    for alpha, beta, n, k_pos in ((1.3, -1.3, 7, 3), (2.0, 2.0, 8, 5), (1 + 1j, -1 - 1j, 9, 1),
                                  (0.5j, 0.5j, 6, 6), (-4.0, 4.0, 64, 64)):
        with monkeypatch.context() as patch:
            calls = [counted(patch, numpy.fft, name) for name in ("rfft", "ifft", "irfft", "fft")]
            xgen = two_term_pinv(alpha, beta, n, k_pos)
        assert calls == [[], [], [], []], (alpha, beta, n)
        gen = _two_term_generator(alpha, beta, n, k_pos)
        assert circ_penrose_residuals(gen, xgen, DEFAULT_TOL).passed, (alpha, beta, n)


def split_members(rng, n):
    """A real, a complex, a real zero-sum and a complex rank-deficient generator."""
    real = rng.standard_normal(n)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values[rng.random(n) < 0.5] = 0.0
    return [real, real + 1j * rng.standard_normal(n), real - real.mean(),
            generator_from_spectrum(values)]


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64, 65, 512])
def test_transposed_support_is_the_negated_support(n):
    # circ(rho(g)) = circ(g)^T has eigenvalue lambda_(-k) where circ(g) has lambda_k
    rng = np.random.default_rng(3500 + n)
    for _ in range(10):
        for gen in split_members(rng, n):
            negated = {-k % n for k in circ_spectrum(gen, DEFAULT_TOL).support}
            assert negated == set(circ_spectrum(rho(gen), DEFAULT_TOL).support)


def test_support_split_refuses_members_whose_supports_overlap():
    # circ(g) with g = exp(-2 pi i l / 4) / 4 has spectrum e_1; its transpose
    # has e_3, so the transposed rule let [g, g] through and returned 4 times
    # the pseudoinverse of circ(2 g)
    g = np.exp(-2j * np.pi * np.arange(4) / 4) / 4
    with pytest.raises(PreconditionError) as refused:
        support_split_pinv([g, g])
    assert str(refused.value) == "supports of members 0 and 1 collide at eigenvalue indices [1]"
    with pytest.raises(PreconditionError, match="members 1 and 2 collide at eigenvalue indices"):
        support_split_pinv([np.ones(4), g, 2 * g])


def test_support_split_takes_members_the_transposed_rule_refused():
    # spectra e_1 and e_3: disjoint, though each is the other's transpose
    unit = np.eye(4)
    members = [generator_from_spectrum(unit[1]), generator_from_spectrum(unit[3])]
    xgen, invertible = support_split_pinv(members)
    assert xgen.tobytes() == circ_pinv_spectral(members[0] + members[1]).tobytes()
    assert not invertible


def test_support_split_cuts_each_member_at_the_sums_rank_rule():
    # the second member is 1e-20 times the first's scale: its own cutoff kept
    # it, and X read 5e19; under the sum's cutoff it drops out
    members = [np.full(4, 0.25), 1e-20 * np.array([0.0, 0.5, 0.0, -0.5])]
    xgen, invertible = support_split_pinv(members)
    assert float(np.max(np.abs(xgen))) == 0.25
    assert xgen.tobytes() == circ_pinv_spectral(members[0] + members[1]).tobytes()
    assert circ_penrose_residuals(members[0] + members[1], xgen, DEFAULT_TOL).passed
    assert not invertible


def test_support_split_returns_x_only_when_the_sums_check_passes(monkeypatch):
    inner = pinvkit.circulant.circ_pinv_spectral
    monkeypatch.setattr(pinvkit.circulant, "circ_pinv_spectral", lambda spec: 2 * inner(spec))
    with pytest.raises(VerificationError, match="support-split pseudoinverse failed penrose"):
        support_split_pinv([np.ones(3), np.array([1.0, -1.0, 0.0])])


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16])
def test_support_split_of_disjoint_complex_members_is_the_sums(monkeypatch, n):
    import numpy.fft

    rng = np.random.default_rng(3600 + n)
    for _ in range(350):
        owner = rng.integers(0, int(rng.integers(1, 4)), n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values[rng.random(n) < 0.25] = 0.0
        members = [generator_from_spectrum(np.where(owner == k, values, 0.0))
                   for k in range(owner.max() + 1)]
        with monkeypatch.context() as patch:
            rfft, ifft = counted(patch, numpy.fft, "rfft"), counted(patch, numpy.fft, "ifft")
            xgen, invertible = support_split_pinv(members)
        # one forward transform per member (rfft for a member left at zero)
        assert len(rfft) + len(ifft) == len(members)
        want = circ_pinv_spectral(sum(members))
        assert np.max(np.abs(xgen - want)) <= 1e-13 * np.max(np.abs(want))
        assert invertible == bool(np.all(values != 0))


def test_support_split_takes_one_transform_per_member(monkeypatch):
    import numpy.fft

    l = np.arange(8)
    members = [np.ones(8), np.cos(2 * np.pi * l / 8), np.cos(4 * np.pi * l / 8)]
    for k in (1, 2, 3):
        with monkeypatch.context() as patch:
            rfft, ifft = counted(patch, numpy.fft, "rfft"), counted(patch, numpy.fft, "ifft")
            xgen, _ = support_split_pinv(members[:k])
        assert (len(rfft), len(ifft)) == (k, 0)
        assert circ_penrose_residuals(sum(members[:k]), xgen, DEFAULT_TOL).passed


def test_a_command_line_that_names_its_command_is_parsed_once(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    full = pinvkit.cli.build_parser()
    seen = []

    def refused(*args, **kwargs):
        seen.append(args)
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(full, "parse_args", refused)
    for argv in (["wheel", "--n", "5"], ["circ", "--gen", "1,2,3", "--method", "spectral"],
                 ["circ", "--method", "zero-sum", "--gen", "1,-1,0", "--alpha", "2"],
                 ["gen", "random-matrix", "--rows", "3", "--cols", "2"],
                 ["tree", "--input", "missing.csv"]):
        main(argv)
    assert seen == []
    capsys.readouterr()
    # the full parser still takes a command line that does not start with a name
    with pytest.raises(AssertionError, match="the full parser ran"):
        main(["--pretty", "wheel", "--n", "5"])


# --------------------------------------------------------------------------
# the block identity on one period


def full_identity(gen) -> bool:
    """C^2 = n C on the whole generator, as an exact integer convolution."""
    return np.array_equal(circ_mul(gen, gen), gen.shape[0] * gen)


def one_period_holds(monkeypatch, gen, k, q) -> bool:
    """Whether block_pattern_pinv accepts gen as the pattern of (k, q)."""
    with monkeypatch.context() as patch:
        patch.setattr(pinvkit.circulant, "block_pattern_generator", lambda k_, q_: gen)
        try:
            block_pattern_pinv(1.5, -0.7, k, q)
        except PreconditionError as exc:
            assert "defining identity" in str(exc)
            return False
    return True


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_one_period_verdict_equals_the_full_identity(monkeypatch, k):
    for q in range(1, 9):
        base = block_pattern_generator(k, q)
        n = base.shape[0]
        assert full_identity(base) and one_period_holds(monkeypatch, base, k, q), q
        for index in range(n):
            for delta in (1, -1, n):
                patched = base.copy()
                patched[index] += delta
                verdict = one_period_holds(monkeypatch, patched, k, q)
                assert verdict == full_identity(patched), (q, index, delta)
                if delta == 1:
                    assert not verdict, (q, index)


# --------------------------------------------------------------------------
# the report line, encoded once


def three_pass_line(report) -> str:
    """The report line as it was printed before: dumped, loaded with NaN and
    the infinities as None, dumped again strictly."""
    strict = json.loads(json.dumps(report), parse_constant=lambda _: None)
    return json.dumps(strict, allow_nan=False) + "\n"


def circ_report(capsys, n):
    rng = np.random.default_rng(n)
    gen = ",".join(repr(float(v)) for v in rng.standard_normal(n))
    assert main(["circ", f"--gen={gen}"]) == 0
    return json.loads(capsys.readouterr().out)


REPORTS = {
    "finite": {"command": "verify", "rank": 3, "max_penrose_residual": 1.25e-15, "passed": True,
               "input_digest": None, "extras": {"residuals": {"penrose1": 0.1, "char_i": 2e-300}}},
    "nan-in-extras": {"passed": False, "extras": {"residual": math.nan, "u": [1.0, math.nan]}},
    "infinities": {"residual_bound": math.inf, "extras": {"u": [-math.inf, 0.5, math.inf]}},
    "negative-zero": {"max_penrose_residual": -0.0, "extras": {"u": [-0.0, 0.0], "gap": -0.0}},
    "nested": {"extras": {"a": {"b": {"c": [1, {"d": math.nan}, "text é"]}}, "e": {}}},
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_line_keeps_the_three_pass_bytes(capsys, name):
    report = REPORTS[name]
    _print_report(report, False)
    assert capsys.readouterr().out == three_pass_line(report)


@pytest.mark.parametrize("n", [2, 64, 512])
def test_circ_report_line_keeps_the_three_pass_bytes(capsys, n):
    report = circ_report(capsys, n)
    assert len(report["extras"]["support"]) == n
    _print_report(report, False)
    assert capsys.readouterr().out == three_pass_line(report)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@RULE
@given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
def test_any_report_keeps_the_three_pass_bytes(report):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _print_report(report, False)
    assert printed.getvalue() == three_pass_line(report)


# --------------------------------------------------------------------------
# verify certifies a full-rank pair once


def test_verify_certifies_a_full_rank_pair_with_two_margin_products(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(41)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = np.linalg.inv(a)
    a_path, x_path = tmp_path / "a.json", tmp_path / "x.json"
    a_path.write_text(dumps_matrix_json(a))
    x_path.write_text(dumps_matrix_json(x))
    assert pinvkit.core.inverse_certified(a, x)
    calls = counted(monkeypatch, pinvkit.core, "_inverse_margin")
    assert main(["verify", "--input", str(a_path), "--aux", str(x_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 2
    assert report["passed"] and report["rank"] == 8
    chars = pinvkit.core.characterization_residuals(a, x)
    for key, value in chars.residuals.items():
        assert report["extras"]["residuals"][key] == value, key
