"""Circulant matrices and their closed-form pseudoinverses.

A circulant is stored by its generator, the first row; row i of the
materialized matrix is the generator cyclically shifted right i places.
Equivalently circ(c) = sum_k c[k] Pi^k for the one-step shift matrix Pi.
Diagonalization by the unitary DFT turns every question about circ(c) into
one about its eigenvalue vector, and the closed forms below (two-term,
support splitting, zero-sum shift, block pattern) are checked against that
spectral route. The pseudoinverse of a circulant is a circulant, so every
route returns its generator as an array. circ_penrose_residuals checks a
candidate on generators alone: each product is circ_mul, a direct cyclic
convolution in O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ResidualReport, penrose_bounds
from .matrix import (
    DEFAULT_TOL,
    PreconditionError,
    Tolerance,
    _in_float_range,
    as_vector,
    frobenius,
    unit_scale,
)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a circulant and the index set of its nonzero ones."""

    values: np.ndarray
    support: tuple[int, ...]


def _circ_rows(gen: np.ndarray) -> np.ndarray:
    """Read-only view with entry (i, j) = gen[(j - i) mod n].

    Row i is gen rotated right by i, the window of the doubled generator
    that starts at n - i.
    """
    n = gen.shape[0]
    return sliding_window_view(np.concatenate((gen, gen))[1:], n)[::-1]


def circ_materialize(gen) -> np.ndarray:
    """Dense matrix with entry (i, j) = gen[(j - i) mod n]."""
    out = _circ_rows(as_vector(gen, min_len=2)).copy()
    out.flags.writeable = False
    return out


def rho(gen) -> np.ndarray:
    """Generator of the transpose: index 0 fixed, the rest reversed."""
    gen = as_vector(gen, min_len=2)
    return np.roll(gen[::-1], 1)


def shift_power(n: int, l: int) -> np.ndarray:
    """The matrix Pi^l, the l-step cyclic shift; Pi^n = I."""
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if not 0 <= l < n:
        raise PreconditionError(f"need 0 <= l < n, got l = {l}")
    gen = np.zeros(n, dtype=np.complex128)
    gen[l] = 1.0
    return circ_materialize(gen)


def circ_mul(a, b) -> np.ndarray:
    """Generator of circ(a) @ circ(b), the cyclic convolution of a and b.

    The first row of circ(a) circ(b) is a @ circ(b), entry k the sum of
    a[j] b[(k - j) mod n]. np.convolve gives the linear convolution, 2n - 1
    direct sums in the inputs' own dtype, and folding its tail onto its head
    (c[k] = full[k] + full[k + n]) makes it cyclic: no FFT, O(n) memory, and
    integer generators multiply exactly. Integer inputs whose products could
    pass int64 are multiplied as Python integers, which do not wrap.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise PreconditionError(f"generator lengths differ: {n} vs {b.shape[0]}")
    if a.dtype.kind in "iu" and b.dtype.kind in "iu":
        peak = n * max(map(abs, a.tolist())) * max(map(abs, b.tolist()))
        if peak > np.iinfo(np.int64).max:
            a, b = a.astype(object), b.astype(object)
    full = np.convolve(a, b)
    full[: n - 1] += full[n:]
    return full[:n]


def _adjoint_generator(gen: np.ndarray) -> np.ndarray:
    """Generator of circ(gen)*, which is circ(conj(rho(gen)))."""
    return np.conj(np.roll(gen[::-1], 1))


def circ_penrose_residuals(gen, xgen, tol: Tolerance = DEFAULT_TOL) -> ResidualReport:
    """Residuals of the four Penrose equations for circ(xgen) as a candidate
    inverse of circ(gen), computed on generators.

    Sums, products and adjoints of circulants are circulant, and
    ||circ(h)||_F = sqrt(n) ||h||, so each residual is sqrt(n) times the
    norm of a residual generator. Each product is a cyclic convolution,
    circ_mul's direct sums on the two generators, with no n x n matrix built
    and no use of the spectrum, so the check shares no arithmetic with the
    spectral route. In exact arithmetic these are the dense residuals, held
    to the dense bounds of penrose_bounds; the cost is O(n^2), not O(n^3).
    """
    gen = as_vector(gen, min_len=2)
    xgen = as_vector(xgen, min_len=2)
    if xgen.shape != gen.shape:
        raise PreconditionError(
            f"generator lengths differ: {gen.shape[0]} vs {xgen.shape[0]}"
        )
    ax = circ_mul(gen, xgen)
    xa = circ_mul(xgen, gen)
    n = gen.shape[0]
    scale = math.sqrt(n)
    return ResidualReport(
        {
            "penrose1": scale * frobenius(circ_mul(ax, gen) - gen),
            "penrose2": scale * frobenius(circ_mul(xa, xgen) - xgen),
            "penrose3": scale * frobenius(_adjoint_generator(ax) - ax),
            "penrose4": scale * frobenius(_adjoint_generator(xa) - xa),
        },
        penrose_bounds(scale * frobenius(gen), scale * frobenius(xgen), (n, n), tol),
    )


def circ_spectrum(gen, tol: Tolerance = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues lambda_k = sum_l gen[l] exp(2 pi i k l / n).

    circ(gen) = conj(F) diag(lambda) F for the unitary DFT matrix F, so
    lambda is the unnormalized inverse FFT of gen. circ(gen) is normal, so
    |lambda| are its singular values, and the support collects the indices
    with |lambda_k| above tol.rank_cutoff(max |lambda|, n, n): the rank rule
    of the SVD oracle.
    """
    # imported on first use: numpy does not load numpy.fft on import
    from numpy import fft

    gen = as_vector(gen, min_len=2)
    values = fft.ifft(gen, norm="forward")
    magnitudes = np.abs(values)
    cutoff = tol.rank_cutoff(float(magnitudes.max(initial=0.0)), gen.shape[0], gen.shape[0])
    support = tuple(np.flatnonzero(magnitudes > cutoff).tolist())
    return Spectrum(values, support)


def generator_from_spectrum(values) -> np.ndarray:
    """Inverse transform: gen = (1/sqrt(n)) F @ values, the FFT over n."""
    from numpy import fft

    return fft.fft(as_vector(values, min_len=2), norm="forward")


@np.errstate(over="ignore", invalid="ignore")
def circ_pinv_spectral(gen, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse generator by inverting the nonzero eigenvalues."""
    return _pinv_from_spectrum(circ_spectrum(gen, tol))


@np.errstate(over="ignore", invalid="ignore")
def _pinv_from_spectrum(spec: Spectrum) -> np.ndarray:
    """Generator of the pseudoinverse: the eigenvalues on the support
    inverted, the others left at 0."""
    inverted = np.zeros_like(spec.values)
    idx = list(spec.support)
    inverted[idx] = 1.0 / spec.values[idx]
    return _in_float_range(generator_from_spectrum(_in_float_range(inverted)))


def _shift_generator(gen: np.ndarray, l: int) -> np.ndarray:
    """Generator of circ(gen) @ Pi^l."""
    # circ(x) Pi^l = sum_k x[k] Pi^(k+l), so the generator rolls right by l
    return np.roll(gen, l % gen.shape[0])


@np.errstate(over="ignore", invalid="ignore")
def two_term_pinv(
    alpha: complex,
    beta: complex,
    n: int,
    k_pos: int = 1,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Pseudoinverse generator of the two-entry circulant with alpha at
    position k_pos (1-based) and beta cyclically next to it.

    The matrix is Pi^(k_pos-1) (alpha I + beta Pi), so the shift law
    (Pi^l C)^+ = C^+ Pi^(n-l) reduces everything to the k_pos = 1 case.
    That matrix is singular exactly when beta^n = (-1)^n alpha^n; the two
    real-coefficient singular families have closed forms:

      alpha = beta, n even: generator ((-1)^k (n^2 - (2k+1) n + 2) / 2
                            - (-1)^k) / (alpha n^2) at index k
      alpha = -beta:        generator (n - 1 - 2k) / (2 n alpha)

    Anything else goes through the spectral route, which also covers the
    remaining complex singular combinations.
    """
    gen = _two_term_generator(alpha, beta, n, k_pos)
    alpha, beta, l = complex(alpha), complex(beta), k_pos - 1
    k = np.arange(n)
    if alpha == beta and n % 2 == 0:
        w = (-1.0) ** k * (n * n - (2 * k + 1) * n + 2)
        v = (-1.0) ** k
        base = (w / 2.0 - v) / (alpha * n * n)
    elif alpha == -beta:
        base = (n - 1.0 - 2.0 * k) / (2.0 * n * alpha)
    else:
        base = circ_pinv_spectral(np.roll(gen, -l), tol)  # alpha at 0, beta at 1
    return _shift_generator(_in_float_range(base), (n - l) % n)


def _two_term_generator(alpha: complex, beta: complex, n: int, k_pos: int) -> np.ndarray:
    """The generator two_term_pinv inverts, its arguments validated first."""
    alpha, beta = complex(alpha), complex(beta)
    if alpha == 0 or beta == 0:
        raise PreconditionError("two-term generator needs nonzero alpha and beta")
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if not 1 <= k_pos <= n:
        raise PreconditionError(f"need 1 <= k_pos <= n, got {k_pos}")
    gen = np.zeros(n, dtype=np.complex128)
    gen[k_pos - 1] = alpha
    gen[k_pos % n] = beta
    return gen


def support_split_pinv(
    generators, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, bool]:
    """Pseudoinverse of circ(sum c_k) as the sum of the per-term ones.

    Valid when the eigenvalue support of each c_k avoids the support of
    every other member's transpose generator rho(c_k'). Returns the summed
    pseudoinverse generator and whether the supports cover all indices
    (which makes the summed circulant invertible).
    """
    gens = [as_vector(g, min_len=2) for g in generators]
    if not gens:
        raise PreconditionError("need at least one generator")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise PreconditionError("generators must share one length")
    spectra = [circ_spectrum(g, tol) for g in gens]
    supports = [set(spec.support) for spec in spectra]
    transpose_supports = [set(circ_spectrum(rho(g), tol).support) for g in gens]
    for kp in range(len(gens)):
        for k in range(len(gens)):
            if k == kp:
                continue
            collisions = sorted(supports[k] & transpose_supports[kp])
            if collisions:
                raise PreconditionError(
                    f"supports of members {k} and {kp} (transposed) collide "
                    f"at eigenvalue indices {collisions}"
                )
    total = np.zeros(n, dtype=np.complex128)
    for spec in spectra:
        total = total + _pinv_from_spectrum(spec)
    covered = set().union(*supports)
    return total, covered == set(range(n))


def _in_band(alpha: complex, n: int, top: float) -> complex:
    """alpha times the power of two that brings n |alpha| within 2^4 of top,
    when it lies outside and 0 < top < inf. alpha's larger part sets the
    exponent, so |alpha| is formed in range."""
    exp = math.frexp(max(abs(alpha.real), abs(alpha.imag)))[1]
    unit = abs(complex(math.ldexp(alpha.real, -exp), math.ldexp(alpha.imag, -exp)))
    gap = math.log2(n * unit) + exp - math.log2(top) if 0.0 < top < math.inf else 0.0
    shift = -round(gap) if abs(gap) > 4.0 else 0  # gap = log2(n |alpha| / top)
    return complex(math.ldexp(alpha.real, shift), math.ldexp(alpha.imag, shift))


@np.errstate(over="ignore", invalid="ignore")
def zero_sum_shift_pinv(
    gen, alpha: complex | None = None, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Pseudoinverse generator through the all-ones dyad split.

    The mean part of the generator and its zero-sum remainder have disjoint
    eigenvalue supports, so they pseudo-invert independently:

      entry sum t != 0: pinv(zero-sum part) + ones/(n t)
      entry sum t == 0: pinv(gen + alpha ones) - ones/(n^2 alpha),
                        any nonzero alpha

    Both return the pseudoinverse of circ(gen) itself. So that the shift's
    eigenvalue n alpha neither drops below the rank cutoff nor swamps the
    spectrum, alpha is scaled by a power of two (_in_band); the shift runs
    on s gen and s alpha, s = unit_scale(gen), and X is s times its result.
    """
    gen = as_vector(gen, min_len=2)
    n = gen.shape[0]
    spec = circ_spectrum(gen, tol)
    ones = np.ones(n, dtype=np.complex128)
    total = complex(np.sum(gen))
    if 0 in spec.support:
        # eigenvalue 0 is the entry sum; nonzero here, so split off the mean
        mean_split = circ_pinv_spectral(gen - (total / n) * ones, tol) + ones / (n * total)
        return _in_float_range(mean_split)
    if alpha is None or complex(alpha) == 0:
        raise PreconditionError("zero-sum generator needs a nonzero alpha for the shifted route")
    s = unit_scale(gen)  # exact, so gen + alpha ones and n^2 alpha stay in range
    alpha = s * _in_band(complex(alpha), n, float(np.abs(spec.values).max()))
    shifted = circ_pinv_spectral(s * gen + alpha * ones, tol) - ones / (n * n * alpha)
    return _in_float_range(s * shifted)


def block_pattern_generator(k: int, q: int) -> np.ndarray:
    """Integer generator (k, -1 x k) repeated q times; its circulant C
    satisfies C^2 = n C with n = q (k + 1)."""
    if k < 1 or q < 1:
        raise PreconditionError(f"need positive k and q, got k = {k}, q = {q}")
    return np.asarray(([k] + [-1] * k) * q, dtype=np.int64)


@np.errstate(over="ignore", invalid="ignore")
def block_pattern_pinv(
    alpha: complex,
    beta: complex,
    k: int,
    q: int,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Pseudoinverse generator of circ(alpha ones + beta pattern) for the
    block pattern above: (1/(alpha n^2)) ones + (1/(beta n^2)) pattern.

    The pattern's defining identity C^2 = n C is re-verified in exact
    integer arithmetic on every call.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha == 0 or beta == 0:
        raise PreconditionError("block pattern needs nonzero alpha and beta")
    base = block_pattern_generator(k, q)
    n = base.shape[0]
    if not np.array_equal(circ_mul(base, base), n * base):
        raise PreconditionError("block pattern failed its defining identity")
    ones = np.ones(n, dtype=np.complex128)
    return _in_float_range(ones / (alpha * n * n) + base / (beta * n * n))


def block_pattern_coefficients(a: complex, b: complex, k: int) -> tuple[complex, complex]:
    """Coefficients (alpha, beta) so that alpha ones + beta pattern equals
    the circulant with value a on the pattern's k-positions and b elsewhere."""
    if k < 1:
        raise PreconditionError(f"need positive k, got {k}")
    a = complex(a)
    b = complex(b)
    return (a + k * b) / (k + 1), (a - b) / (k + 1)
