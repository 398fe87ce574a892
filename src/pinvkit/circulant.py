"""Circulant matrices and their closed-form pseudoinverses.

A circulant is stored by its generator, the first row; row i of the
materialized matrix is the generator cyclically shifted right i places.
Equivalently circ(c) = sum_k c[k] Pi^k for the one-step shift matrix Pi.
Diagonalization by the unitary DFT turns every question about circ(c) into
one about its eigenvalue vector, and the closed forms below (two-term,
support splitting, zero-sum shift, block pattern) are checked against that
spectral route. The pseudoinverse of a circulant is a circulant, so every
route returns its generator as an array. circ_spectrum takes a generator's
spectrum, and the Spectrum it returns carries that generator too:
circ_pinv_spectral and zero_sum_shift_pinv take a generator or its
Spectrum, so a caller that holds the spectrum takes no second transform of
the same generator. circ_spectrum is also the one place that decides
realness. A real generator (every imaginary part +-0.0) stays real from end
to end: its spectrum comes from the real FFT and is conjugate-symmetric bit
for bit, and every route returns its X as complex128 with imaginary parts
+0.0. circ_penrose_residuals checks a candidate on generators alone: each
product is circ_mul, a direct cyclic convolution in O(n) memory, and
circulants commute, so three products (AX, AXA and AXX) make the four
residuals. block_pattern_pinv re-proves its pattern's identity on one
period of k + 1 entries.

Each decision lives here once. _cut is the support rule, the indices with
|lambda_k| above a cutoff: circ_spectrum, support_split_pinv and the zero-sum
mean split call it, the last two at the whole input's cutoff. The two-term
format is _two_term_generator and its inverse _two_term_from_generator, and
_two_term_inverse is the one choice between a closed form and the inverted
spectrum. block_pattern_pinv keeps each of its two terms by the rule that
circ_spectrum applies to their eigenvalues n alpha and n beta. The circ
command runs the checked forms at the end of the module, each from the
operation's one Spectrum, so every circ operation takes one forward
transform (the shifted zero-sum route a second, of the shifted generator)
and one circ_penrose_residuals check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ResidualReport, _Checked, _penrose, _returned
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
    """Eigenvalues of a circulant, the index set of its nonzero ones and the
    generator they were taken from: its float64 real parts when every
    imaginary part is +-0.0, else complex128."""

    values: np.ndarray
    support: tuple[int, ...]
    gen: np.ndarray


def _exactly_real(x: np.ndarray) -> np.ndarray:
    """x's real parts as complex128 with imaginary parts +0.0: the X of a real
    circulant, whose arithmetic left at most +-0.0 in them."""
    return x.real.astype(np.complex128)


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
    return np.concatenate((gen[:1], gen[:0:-1]))


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
    return np.conj(np.concatenate((gen[:1], gen[:0:-1])))


def circ_penrose_residuals(gen, xgen, tol: Tolerance = DEFAULT_TOL) -> ResidualReport:
    """Residuals of the four Penrose equations for circ(xgen) as a candidate
    inverse of circ(gen), computed on generators.

    Sums, products and adjoints of circulants are circulant, and
    ||circ(h)||_F = sqrt(n) ||h||, so each residual is sqrt(n) times the
    norm of a residual generator. Each product is a cyclic convolution,
    circ_mul's direct sums on the two generators, with no n x n matrix built
    and no use of the spectrum, so the check shares no arithmetic with the
    spectral route. Circulants commute, so XA is AX: Penrose 3 and 4 are one
    equation, XAX is (AX) X, and the check makes three products, AX, (AX) A
    and (AX) X. In exact arithmetic these are the dense residuals, held to
    the dense bounds of penrose_bounds; the cost is O(n^2), not O(n^3).
    """
    gen = as_vector(gen, min_len=2)
    xgen = as_vector(xgen, min_len=2)
    if xgen.shape != gen.shape:
        raise PreconditionError(
            f"generator lengths differ: {gen.shape[0]} vs {xgen.shape[0]}"
        )
    n = gen.shape[0]
    scale = math.sqrt(n)
    return _penrose(
        gen, xgen, circ_mul, _adjoint_generator, lambda h: scale * frobenius(h), (n, n), tol,
        commuting=True,
    )


def circ_spectrum(gen, tol: Tolerance = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues lambda_k = sum_l gen[l] exp(2 pi i k l / n).

    circ(gen) = conj(F) diag(lambda) F for the unitary DFT matrix F, so
    lambda is the unnormalized inverse FFT of gen. circ(gen) is normal, so
    |lambda| are its singular values, and the support collects the indices
    with |lambda_k| above tol.rank_cutoff(max |lambda|, n, n): the rank rule
    of the SVD oracle. The one place that decides whether gen is real: when
    every imaginary part is +-0.0 the spectrum keeps its float64 real parts,
    lambda_k = conj(rfft(gen)_k) for k <= n/2, and the rest is their mirror,
    lambda_(n-k) = conj(lambda_k) bit for bit, so the magnitudes and the
    support are symmetric too.
    """
    # imported on first use: numpy does not load numpy.fft on import
    from numpy import fft

    gen = as_vector(gen, min_len=2)
    n = gen.shape[0]
    if not gen.imag.any():
        gen = gen.real
        half = fft.rfft(gen)
        values = np.concatenate((half.conj(), half[1 : (n + 1) // 2][::-1]))
    else:
        values = fft.ifft(gen, norm="forward")
    return _cut(values, gen, tol.rank_cutoff(float(np.abs(values).max(initial=0.0)), n, n))


def _cut(values: np.ndarray, gen: np.ndarray, cutoff: float) -> Spectrum:
    """The Spectrum of gen with eigenvalues values, its support the indices k
    with |lambda_k| above cutoff: the one support rule of the circulant
    routes. A route that splits its input passes the whole input's cutoff,
    so no part is cut at a rule of its own."""
    return Spectrum(values, tuple(np.flatnonzero(np.abs(values) > cutoff).tolist()), gen)


def generator_from_spectrum(values) -> np.ndarray:
    """Inverse transform: gen = (1/sqrt(n)) F @ values, the FFT over n."""
    from numpy import fft

    return fft.fft(as_vector(values, min_len=2), norm="forward")


def _spectrum(gen, tol: Tolerance) -> Spectrum:
    """gen itself when it is a Spectrum, else circ_spectrum(gen, tol): what a
    route starts from."""
    return gen if isinstance(gen, Spectrum) else circ_spectrum(gen, tol)


@np.errstate(over="ignore", invalid="ignore")
def circ_pinv_spectral(gen, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse generator by inverting the nonzero eigenvalues.

    gen is a generator or the Spectrum circ_spectrum took of it. The
    eigenvalues on the support are inverted and the others left at 0; for
    the spectrum of a real generator X is the inverse real FFT of the first
    half, exactly real."""
    from numpy import fft

    spec = _spectrum(gen, tol)
    inverted = np.zeros_like(spec.values)
    idx = list(spec.support)
    inverted[idx] = 1.0 / spec.values[idx]
    _in_float_range(inverted)
    if np.isrealobj(spec.gen):
        # generator_from_spectrum of a conjugate-symmetric spectrum, in real arithmetic
        n = inverted.shape[0]
        return _exactly_real(_in_float_range(fft.irfft(inverted[: n // 2 + 1].conj(), n)))
    return _in_float_range(generator_from_spectrum(inverted))


def _shift_generator(gen: np.ndarray, l: int) -> np.ndarray:
    """Generator of circ(gen) @ Pi^l."""
    # circ(x) Pi^l = sum_k x[k] Pi^(k+l), so the generator rolls right by l
    cut = gen.shape[0] - l % gen.shape[0]
    return np.concatenate((gen[cut:], gen[:cut]))


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
    (Pi^l C)^+ = C^+ Pi^(n-l) reduces the closed forms to the k_pos = 1
    case. That matrix is singular exactly when beta^n = (-1)^n alpha^n; the
    two real-coefficient singular families have closed forms:

      alpha = beta, n even: generator ((-1)^k (n^2 - (2k+1) n + 2) / 2
                            - (-1)^k) / (alpha n^2) at index k
      alpha = -beta:        generator (n - 1 - 2k) / (2 n alpha)

    Any other pair inverts the spectrum of its own generator, which also
    covers the remaining complex singular combinations. A real pair gives a
    real X, with imaginary parts +0.0.
    """
    return _two_term_inverse(_two_term_generator(alpha, beta, n, k_pos), tol)


@np.errstate(over="ignore", invalid="ignore")
def _two_term_inverse(gen, tol: Tolerance) -> np.ndarray:
    """X of a two-entry generator, or of the Spectrum circ_spectrum took of
    it: two_term_pinv's closed form for a pair in a singular family, else the
    inverted spectrum, which only then is taken of a generator. The one
    choice of two_term_pinv and of circ's two-term method."""
    entries = gen.gen if isinstance(gen, Spectrum) else gen
    alpha, beta, k_pos = _two_term_from_generator(entries)
    n, l = entries.shape[0], k_pos - 1
    k = np.arange(n)
    if alpha == beta and n % 2 == 0:
        w = (-1.0) ** k * (n * n - (2 * k + 1) * n + 2)
        v = (-1.0) ** k
        base = (w / 2.0 - v) / (alpha * n * n)
    elif alpha == -beta:
        base = (n - 1.0 - 2.0 * k) / (2.0 * n * alpha)
    else:
        return circ_pinv_spectral(gen, tol)
    if not (alpha.imag or beta.imag):
        base = _exactly_real(base)
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


def _two_term_from_generator(gen: np.ndarray) -> tuple[complex, complex, int]:
    """Split a two-entry generator into (alpha, beta, k_pos), the inverse of
    _two_term_generator.

    The two nonzero entries must sit at cyclically adjacent indices; alpha is
    the one whose successor is the other.
    """
    n = gen.shape[0]
    nonzero = np.flatnonzero(gen).tolist()
    if len(nonzero) != 2:
        raise PreconditionError(
            f"two-term method needs exactly two nonzero entries, found {len(nonzero)}"
        )
    first, second = nonzero
    if (first + 1) % n == second:
        p = first
    elif (second + 1) % n == first:
        p = second
    else:
        raise PreconditionError(
            f"two-term entries at {first} and {second} are not cyclically adjacent"
        )
    return complex(gen[p]), complex(gen[(p + 1) % n]), p + 1


def support_split_pinv(
    generators, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, bool]:
    """Pseudoinverse of circ(sum c_k) as the sum of the per-term ones.

    Valid when A_k* A_k' = 0 = A_k A_k'* for every pair of members. circ(c)*
    has eigenvalue conj(lambda_k) at index k, so that holds exactly when the
    eigenvalue supports are pairwise disjoint; for real members, whose
    supports are symmetric, this is the rule with transposed supports. Each
    support is cut at tol.rank_cutoff of the largest member eigenvalue, the
    sum's rank rule, and X is returned only once circ_penrose_residuals on
    the summed generator passes. Returns X and whether the supports cover all
    indices (which makes the summed circulant invertible).
    """
    spectra = [circ_spectrum(g, tol) for g in generators]
    if not spectra:
        raise PreconditionError("need at least one generator")
    n = spectra[0].gen.shape[0]
    if any(spec.gen.shape[0] != n for spec in spectra):
        raise PreconditionError("generators must share one length")
    cutoff = tol.rank_cutoff(max(float(np.abs(spec.values).max()) for spec in spectra), n, n)
    spectra = [_cut(spec.values, spec.gen, cutoff) for spec in spectra]
    for k in range(len(spectra)):
        for kp in range(k + 1, len(spectra)):
            collisions = sorted(set(spectra[k].support) & set(spectra[kp].support))
            if collisions:
                raise PreconditionError(
                    f"supports of members {k} and {kp} collide at eigenvalue indices {collisions}"
                )
    total = np.zeros(n, dtype=np.complex128)
    for spec in spectra:
        total = total + circ_pinv_spectral(spec)
    report = circ_penrose_residuals(sum(spec.gen for spec in spectra), total, tol)
    covered = set().union(*(spec.support for spec in spectra))  # the sum's support
    return _returned((total, len(covered), report), "support-split"), covered == set(range(n))


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

    Both return the pseudoinverse of circ(gen) itself; gen is a generator or
    the Spectrum circ_spectrum took of it. Both cut at the whole's rank rule:
    the mean split reads the remainder's spectrum off the whole's, and the
    shifted branch inverts the spectrum of its shifted generator, its one
    further transform, on the whole's support and index 0, and refuses a
    support that its own rank rule does not keep. So that the shift's
    eigenvalue n alpha neither drops below the rank cutoff nor swamps the
    spectrum, alpha is scaled by a power of two (_in_band); the shift runs
    on s gen and s alpha, s = unit_scale(gen), and X is s times its result.
    A real generator stays real on both branches: X does not depend on
    alpha, so its shift is alpha's real part, or its imaginary part when
    that is all it has.
    """
    spec = _spectrum(gen, tol)
    gen = spec.gen
    n = gen.shape[0]
    ones = np.ones(n, dtype=gen.dtype)
    total = np.sum(gen).item()
    top = float(np.abs(spec.values).max())
    if 0 in spec.support:
        # eigenvalue 0 is the entry sum; nonzero here, so split off the mean.
        # The remainder's spectrum is the whole's with lambda_0 = 0, cut at the
        # whole's cutoff: no second transform, and no cutoff of its own
        values = spec.values.copy()
        values[0] = 0.0
        rest = _cut(values, gen - (total / n) * ones, tol.rank_cutoff(top, n, n))
        return _in_float_range(circ_pinv_spectral(rest, tol) + ones / (n * total))
    if alpha is None or complex(alpha) == 0:
        raise PreconditionError("zero-sum generator needs a nonzero alpha for the shifted route")
    alpha = complex(alpha)
    if np.isrealobj(gen):
        alpha = complex(alpha.real or alpha.imag)
    s = unit_scale(gen)  # exact, so gen + alpha ones and n^2 alpha stay in range
    alpha = s * _in_band(alpha, n, top)
    # lambda_k(s gen + alpha ones) = s lambda_k for k != 0 and n alpha at 0,
    # so the shifted spectrum is inverted on the whole's support plus index 0;
    # its own rule, at the scale of n alpha, must keep all of that support
    shifted = circ_spectrum(s * gen + alpha * ones, tol)
    unresolved = sorted(set(spec.support) - set(shifted.support))
    if unresolved:
        raise PreconditionError(
            f"eigenvalues {unresolved} sit within the shifted spectrum's rounding"
        )
    shifted = Spectrum(shifted.values, (0, *spec.support), shifted.gen)
    return _in_float_range(s * (circ_pinv_spectral(shifted, tol) - ones / (n * n * alpha)))


def block_pattern_generator(k: int, q: int) -> np.ndarray:
    """Integer generator (k, -1 x k) repeated q times; its circulant C
    satisfies C^2 = n C with n = q (k + 1)."""
    if k < 1 or q < 1:
        raise PreconditionError(f"need positive k and q, got k = {k}, q = {q}")
    return np.asarray(([k] + [-1] * k) * q, dtype=np.int64)


@np.errstate(over="ignore", invalid="ignore")
def block_pattern_pinv(
    alpha: complex, beta: complex, k: int, q: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Pseudoinverse generator of circ(alpha ones + beta pattern) for the
    block pattern above: (1/(alpha n^2)) ones + (1/(beta n^2)) pattern.

    The circulant has eigenvalue n alpha at index 0 and n beta at the
    pattern's k nonzero ones, so each term is kept only when n |coefficient|
    exceeds tol.rank_cutoff(n max(|alpha|, |beta|), n, n), circ_spectrum's
    rule. The rule is linear, so it is applied to the coefficients and
    n max(|alpha|, |beta|) is never formed.

    The pattern's defining identity C^2 = n C is re-verified in exact
    integer arithmetic on every call, on one period: the generator must be
    its first k + 1 entries p tiled q times, and p * p = (k + 1) p must hold
    for the cyclic convolution of length k + 1. A generator of period k + 1
    has q times p * p, tiled, as its own cyclic square, so the two together
    are exactly C^2 = n C, at O(n + (k + 1)^2) cost in place of O(n^2).
    Real alpha and beta give a real X, with imaginary parts +0.0.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if alpha == 0 or beta == 0:
        raise PreconditionError("block pattern needs nonzero alpha and beta")
    base = block_pattern_generator(k, q)
    n = base.shape[0]
    period = base[: k + 1]
    tiled = np.array_equal(base, np.tile(period, q))
    if not (tiled and np.array_equal(circ_mul(period, period), (k + 1) * period)):
        raise PreconditionError("block pattern failed its defining identity")
    sizes = [math.hypot(c.real, c.imag) for c in (alpha, beta)]  # inf, not OverflowError
    if not all(map(math.isfinite, sizes)):
        raise PreconditionError("the circulant leaves the float range")
    cutoff = tol.rank_cutoff(max(sizes), n, n)
    ones = np.ones(n, dtype=np.complex128)
    terms = ((alpha, ones), (beta, base))
    kept = [term / (c * n * n) for (c, term), size in zip(terms, sizes) if size > cutoff]
    x = sum(kept[1:], kept[0])
    return _in_float_range(x if alpha.imag or beta.imag else _exactly_real(x))


def block_pattern_coefficients(a: complex, b: complex, k: int) -> tuple[complex, complex]:
    """Coefficients (alpha, beta) so that alpha ones + beta pattern equals
    the circulant with value a on the pattern's k-positions and b elsewhere."""
    if k < 1:
        raise PreconditionError(f"need positive k, got {k}")
    a = complex(a)
    b = complex(b)
    return (a + k * b) / (k + 1), (a - b) / (k + 1)


def _circ_checked(spec: Spectrum, x: np.ndarray, tol: Tolerance) -> _Checked:
    """x, a route's X for circ(spec.gen), with the support size as its rank
    and circ_penrose_residuals on the two generators as its report."""
    return x, len(spec.support), circ_penrose_residuals(spec.gen, x, tol)


# the checked form of each circ method, from the operation's one Spectrum
def _spectral_checked(spec: Spectrum, tol: Tolerance) -> _Checked:
    return _circ_checked(spec, circ_pinv_spectral(spec, tol), tol)


def _two_term_checked(spec: Spectrum, tol: Tolerance) -> _Checked:
    return _circ_checked(spec, _two_term_inverse(spec, tol), tol)


def _zero_sum_checked(spec: Spectrum, alpha: complex | None, tol: Tolerance) -> _Checked:
    return _circ_checked(spec, zero_sum_shift_pinv(spec, alpha, tol), tol)


def _block_checked(spec: Spectrum, alpha: complex, beta: complex, k: int, q: int,
                   tol: Tolerance) -> _Checked:
    return _circ_checked(spec, block_pattern_pinv(alpha, beta, k, q, tol), tol)
