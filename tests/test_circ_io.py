"""The circ command's generator-cost I/O and verification.

The batched writers are compared byte for byte with the per-entry
format_complex / format_float path they replace; the structured Penrose
check is compared with the dense one on every circ route; circ_mul and the
FFT spectrum are compared with their defining sums.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import pinvkit
import pinvkit.circulant
import pinvkit.cli
from pinvkit.circulant import (
    block_pattern_generator,
    block_pattern_pinv,
    circ_materialize,
    circ_mul,
    circ_penrose_residuals,
    circ_pinv_spectral,
    circ_spectrum,
    generator_from_spectrum,
    two_term_pinv,
    zero_sum_shift_pinv,
)
from pinvkit.cli import _write_atomic, main
from pinvkit.core import penrose_residuals
from pinvkit.matrix import (
    DEFAULT_TOL,
    PreconditionError,
    circulant_csv_blocks,
    dumps_generator_json,
    dumps_matrix_csv,
    dumps_matrix_json,
    format_complex,
    format_float,
    frobenius,
    loads_matrix_csv,
)

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e300, -1e300, 1e-300,
    -1e-300, 1e16, 0.1, -1.5, 123456789.125, 1.7976931348623157e308,
]


# --------------------------------------------------------------------------
# the per-entry writers the batched ones must reproduce


def entrywise_csv(a) -> str:
    return "\n".join(",".join(format_complex(z) for z in row) for row in a) + "\n"


def streamed_csv(gen) -> bytes:
    return b"".join(circulant_csv_blocks(gen))


def entrywise_pairs(values) -> str:
    return ", ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in values)


def entrywise_matrix_json(a) -> str:
    m, n = a.shape
    return f'{{"rows": {m}, "cols": {n}, "data": [{entrywise_pairs(a.ravel())}]}}\n'


def entrywise_generator_json(gen) -> str:
    return f'{{"n": {gen.size}, "gen": [{entrywise_pairs(gen)}]}}\n'


def special_generator(rng, n) -> np.ndarray:
    """Random entries with the special values mixed into both parts."""
    re = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    im = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    for part in (re, im):
        picks = rng.integers(0, n, len(SPECIAL))
        part[picks] = SPECIAL
    gen = re + 1j * im
    gen[rng.integers(0, n)] = 1e16 + 0.1j
    return gen


def test_special_values_cover_signed_zeros_and_subnormals():
    gen = np.array([complex(r, i) for r in SPECIAL for i in SPECIAL])
    cells = streamed_csv(gen).decode().split("\n", 1)[0].split(",")
    assert cells == [format_complex(z) for z in gen]
    assert "-0-0i" in cells and "0+0i" in cells and "-0+0i" in cells and "0-0i" in cells
    assert "4.9406564584124654e-324-4.9406564584124654e-324i" in cells


@pytest.mark.parametrize("n", [2, 3, 7, 64, 193])
def test_circulant_csv_equals_the_materialized_csv(n):
    rng = np.random.default_rng(n)
    for gen in (
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        rng.standard_normal(n),
        special_generator(rng, n) if n >= 16 else np.full(n, -0.0 - 0.0j),
    ):
        want = entrywise_csv(circ_materialize(gen))
        assert streamed_csv(gen) == want.encode()
        assert dumps_matrix_csv(circ_materialize(gen)) == want


def test_circulant_csv_accepts_integer_generators():
    gen = block_pattern_generator(3, 4)
    assert streamed_csv(gen) == entrywise_csv(circ_materialize(gen)).encode()


def test_circulant_csv_rows_are_right_rotations():
    text = streamed_csv(np.array([1, 2, 3, 4j])).decode()
    assert text == "1+0i,2+0i,3+0i,0+4i\n0+4i,1+0i,2+0i,3+0i\n3+0i,0+4i,1+0i,2+0i\n2+0i,3+0i,0+4i,1+0i\n"
    np.testing.assert_array_equal(loads_matrix_csv(text), circ_materialize([1, 2, 3, 4j]))


@pytest.mark.parametrize("n", [2, 3, 64, 511, 512])
def test_streamed_circulant_csv_equals_the_text_and_its_digest(tmp_path, n):
    rng = np.random.default_rng(900 + n)
    if n >= 16:
        gen = special_generator(rng, n)
    else:
        gen = np.array([complex(-0.0, -0.0), complex(1.7976931348623157e308, -5e-324),
                        complex(5e-324, -0.0)])[:n]
    want = streamed_csv(gen)
    assert want == dumps_matrix_csv(circ_materialize(gen)).encode()
    if n <= 64:
        assert want == entrywise_csv(circ_materialize(gen)).encode()
    blocks = [bytes(block) for block in circulant_csv_blocks(gen)]
    assert b"".join(blocks) == want
    row = len(want) // n
    # each row is its own buffer, a view that copies nothing, then its newline
    assert len(blocks) == 2 * n
    assert {len(block) for block in blocks[::2]} == {row - 1}
    assert set(blocks[1::2]) == {b"\n"}
    assert all(isinstance(block, memoryview) for block in list(circulant_csv_blocks(gen))[::2])
    path = tmp_path / "x.csv"
    digest = _write_atomic(str(path), circulant_csv_blocks(gen))
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()


def test_vectored_write_survives_short_writes_across_batches(tmp_path, monkeypatch):
    # at most 1000 bytes per os.writev and 7 buffers per batch: rows of about
    # 2.9 kB split inside a buffer, and 128 buffers span 19 batches
    gen = special_generator(np.random.default_rng(5), 64)
    want = streamed_csv(gen)
    batches = []

    def short_writev(fd, buffers):
        batches.append(len(buffers))
        return os.write(fd, b"".join(buffers)[:1000])

    monkeypatch.setattr(pinvkit.cli, "_IOV_MAX", 7)
    monkeypatch.setattr(os, "writev", short_writev)
    path = tmp_path / "x.csv"
    digest = _write_atomic(str(path), circulant_csv_blocks(gen))
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()
    assert max(batches) == 7 and len(batches) > len(want) // 1000


def test_streamed_write_holds_no_text(tmp_path):
    # the n = 512 text is about 10 MB; the writer holds one doubled row and
    # one batch of row views
    gen = special_generator(np.random.default_rng(6), 512)
    path = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        digest = _write_atomic(str(path), circulant_csv_blocks(gen))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(streamed_csv(gen)).hexdigest()
    assert peak < 512 * 1024, peak


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 5), (40, 33)])
def test_batched_matrix_writers_equal_the_entrywise_ones(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    size = shape[0] * shape[1]
    a = special_generator(rng, max(size, 16))[:size].reshape(shape)
    assert dumps_matrix_csv(a) == entrywise_csv(a)
    assert dumps_matrix_json(a) == entrywise_matrix_json(a)
    real = np.ascontiguousarray(a.real)
    assert dumps_matrix_csv(real) == entrywise_csv(real.astype(complex))
    assert dumps_matrix_json(a.T) == entrywise_matrix_json(a.T)


def test_batched_generator_json_equals_the_entrywise_one():
    rng = np.random.default_rng(8)
    for gen in (special_generator(rng, 50), np.array([-0.0, 0.0, -0.0j, 1e16 + 0.1j])):
        assert dumps_generator_json(gen) == entrywise_generator_json(gen)
        json.loads(dumps_generator_json(gen))


# --------------------------------------------------------------------------
# structured Penrose residuals


def route_cases(n, rng):
    """(method, generator, pseudoinverse generator) for every circ route,
    the singular ones included."""
    cases = []
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cases.append(("spectral", gen, circ_pinv_spectral(gen)))
    head = np.zeros(n, dtype=np.complex128)
    head[0], head[1] = 1.3, -1.3
    cases.append(("two-term closed, singular", head, two_term_pinv(1.3, -1.3, n)))
    if n % 2 == 0:
        head = np.zeros(n, dtype=np.complex128)
        head[0] = head[1] = 1.3
        cases.append(("two-term equal, singular", head, two_term_pinv(1.3, 1.3, n)))
    head = np.zeros(n, dtype=np.complex128)
    head[3], head[4] = 1.5 - 0.2j, 0.4 + 0.1j
    cases.append(("two-term spectral", head, two_term_pinv(1.5 - 0.2j, 0.4 + 0.1j, n, 4)))
    zero_sum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    zero_sum -= zero_sum.mean()
    cases.append(("zero-sum, singular", zero_sum, zero_sum_shift_pinv(zero_sum, alpha=0.7)))
    cases.append(("zero-sum mean split", zero_sum + 0.5, zero_sum_shift_pinv(zero_sum + 0.5)))
    k = 3 if n % 4 == 0 else 1
    block = 1.5 * np.ones(n) - 0.7 * block_pattern_generator(k, n // (k + 1))
    cases.append(("block, singular", block, block_pattern_pinv(1.5, -0.7, k, n // (k + 1))))
    zeros = np.zeros(n, dtype=np.complex128)
    cases.append(("zero", zeros, circ_pinv_spectral(zeros)))
    return cases


def dense_and_structured(gen, xgen):
    dense = penrose_residuals(circ_materialize(gen), circ_materialize(xgen), DEFAULT_TOL)
    return dense, circ_penrose_residuals(gen, xgen, DEFAULT_TOL)


@pytest.mark.parametrize("n", [8, 64, 192, 512])
def test_structured_residuals_match_dense_on_every_route(n):
    # Residuals of true pseudoinverses are rounding noise, so for them only
    # the verdict and the distance to the bound are compared. A candidate
    # off by delta has residuals of order delta that both checks compute
    # from the same exact circulant, so those must agree to 1e-6 relative.
    rng = np.random.default_rng(n)
    for method, gen, xgen in route_cases(n, rng):
        dense, structured = dense_and_structured(gen, xgen)
        assert set(structured.residuals) == set(dense.residuals)
        assert dense.passed and structured.passed, method
        bound = 1e-9 * max(1.0, frobenius(circ_materialize(gen)))
        for key, value in dense.residuals.items():
            assert abs(structured.residuals[key] - value) <= 1e-5 * bound, (method, key)
        if not gen.any():
            continue
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for delta in (1e-3, 1e-6):
            off = xgen + delta * np.max(np.abs(xgen)) * noise
            dense, structured = dense_and_structured(gen, off)
            assert not dense.passed and not structured.passed, (method, delta)
            for key, value in dense.residuals.items():
                assert structured.residuals[key] == pytest.approx(value, rel=1e-6), (method, key)


def test_structured_residuals_match_dense_on_arbitrary_candidates():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 16, 31):
        gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xgen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dense, structured = dense_and_structured(gen, xgen)
        for key, value in dense.residuals.items():
            assert structured.residuals[key] == pytest.approx(value, rel=1e-12), key


def test_perturbed_generators_fail_the_structured_check():
    rng = np.random.default_rng(5)
    for n in (16, 64, 512):
        gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xgen = circ_pinv_spectral(gen)
        assert circ_penrose_residuals(gen, xgen, DEFAULT_TOL).passed
        for index in (0, n // 2, n - 1):
            bumped_x = xgen.copy()
            bumped_x[index] += 1e-6
            assert not circ_penrose_residuals(gen, bumped_x, DEFAULT_TOL).passed, (n, index)
            bumped_gen = gen.copy()
            bumped_gen[index] += 1e-6
            assert not circ_penrose_residuals(bumped_gen, xgen, DEFAULT_TOL).passed, (n, index)


@pytest.mark.parametrize("n", [2, 3, 64, 97, 512])
def test_structured_residuals_build_no_matrix(monkeypatch, n):
    # the products are cyclic convolutions on the generators (circ_mul), so
    # neither circulant is materialized and the peak stays far below n^2
    rng = np.random.default_rng(900 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xgen = circ_pinv_spectral(gen)
    dense = penrose_residuals(circ_materialize(gen), circ_materialize(xgen))
    wrong = xgen.copy()
    wrong[n // 2] += 1e-6 * np.max(np.abs(xgen))

    def refuse(gen):
        raise AssertionError("circ_penrose_residuals materialized a circulant")

    monkeypatch.setattr(pinvkit.circulant, "circ_materialize", refuse)
    tracemalloc.start()
    try:
        structured = circ_penrose_residuals(gen, xgen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.passed and structured.passed
    for key, bound in dense.bounds.items():
        assert abs(structured.residuals[key] - dense.residuals[key]) <= 1e-3 * bound, key
    assert n < 64 or peak < 16 * n * n
    assert not circ_penrose_residuals(gen, wrong).passed


def test_structured_residuals_reject_mismatched_lengths():
    with pytest.raises(PreconditionError, match="lengths"):
        circ_penrose_residuals([1.0, 2.0, 3.0], [1.0, 2.0])


@pytest.mark.parametrize("n", [64, 192, 512])
def test_generic_csv_operation_verifies_like_the_dense_check(tmp_path, capsys, n):
    rng = np.random.default_rng(700 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = tmp_path / "x.csv"
    arg = ",".join(format_complex(z) for z in gen)
    code = main(["circ", f"--gen={arg}", "--output", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["passed"]
    x = loads_matrix_csv(out.read_text())
    np.testing.assert_array_equal(x, circ_materialize(circ_pinv_spectral(gen)))
    c = circ_materialize(gen)
    dense = penrose_residuals(c, x, DEFAULT_TOL)
    assert dense.passed
    # the report carries the structured check's worst key, residual and bound
    name, value = circ_penrose_residuals(gen, circ_pinv_spectral(gen)).worst
    assert report["max_penrose_residual"] == value
    assert report["residual_bound"] == pytest.approx(dense.bounds[name], rel=1e-12)
    gap = abs(report["max_penrose_residual"] - dense.residuals[name])
    assert gap <= 1e-5 * 1e-9 * max(1.0, frobenius(c))


# --------------------------------------------------------------------------
# circ_mul and the FFT spectrum


def convolution(a, b) -> list:
    n = len(a)
    return [sum(a[j] * b[(i - j) % n] for j in range(n)) for i in range(n)]


def test_circ_mul_is_exact_on_large_integer_generators():
    rng = np.random.default_rng(2)
    a = rng.integers(-10**6, 10**6, 512)
    b = rng.integers(-10**6, 10**6, 512)
    got = circ_mul(a, b)
    assert got.dtype.kind == "i"
    assert got.tolist() == convolution(a.tolist(), b.tolist())
    huge = [2**70, -3, 5]
    assert circ_mul(huge, [1, 2**65, 7]).tolist() == convolution(huge, [1, 2**65, 7])
    # each int64 product fits, their sums do not: no silent wrap-around
    wide = np.full(16, 2**30 + 1)
    assert circ_mul(wide, wide).tolist() == convolution(wide.tolist(), wide.tolist())


def test_circ_mul_matches_the_dense_product_on_complex_generators():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    b = rng.standard_normal(33) + 1j * rng.standard_normal(33)
    np.testing.assert_allclose(
        circ_materialize(circ_mul(a, b)),
        circ_materialize(a) @ circ_materialize(b),
        rtol=0,
        atol=1e-12,
    )


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 64, 97, 512])
def test_circ_mul_matches_the_dense_product(n, kind):
    rng = np.random.default_rng(60 + n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "complex":
        a, b = a + 1j * rng.standard_normal(n), b + 1j * rng.standard_normal(n)
    got = circ_mul(a, b)
    assert got.shape == (n,) and got.dtype == a.dtype
    # each entry sums n products: rounding stays within n u ||a|| ||b||
    atol = 4 * n * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(b)
    np.testing.assert_allclose(
        circ_materialize(got), circ_materialize(a) @ circ_materialize(b), rtol=0, atol=atol
    )


@pytest.mark.parametrize("n", [2, 5, 64, 512])
def test_fft_spectrum_matches_the_dft_sum(n):
    rng = np.random.default_rng(30 + n)
    gen = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(k, k) / n) @ gen
    values = circ_spectrum(gen).values
    scale = np.max(np.abs(dft))
    assert np.max(np.abs(values - dft)) <= 1e-13 * n * scale
    back = np.exp(-2j * np.pi * np.outer(k, k) / n) @ dft / n
    np.testing.assert_allclose(generator_from_spectrum(dft), back, rtol=0, atol=1e-13 * n)


def test_importing_the_cli_does_not_load_numpy_fft():
    # numpy.fft is imported on first use, so import time does not grow
    code = "import sys, pinvkit.cli; print('numpy.fft' in sys.modules)"
    package_root = os.path.dirname(os.path.dirname(pinvkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
