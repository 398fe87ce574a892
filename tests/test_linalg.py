"""In-repo SVD and solver checks against their stated accuracy bounds."""

import functools
import pathlib
import re

import numpy as np
import pytest

import pinvkit
from pinvkit.circulant import block_pattern_generator, circ_materialize
from pinvkit.linalg import (
    _EPS,
    SvdFactorization,
    _complete_orthonormal,
    _round_robin,
    _squared_norms,
    _sweep_schedule,
    cholesky_factor,
    cholesky_solve,
    hermitian_eigenvalues,
    inverse,
    lu_solve,
    random_unitary,
    svd,
)
from pinvkit.matrix import (
    DEFAULT_TOL,
    UNIT_ROUNDOFF,
    ConvergenceError,
    PreconditionError,
    Tolerance,
    dagger,
    eye,
    frobenius,
    unit_scale,
)


def _random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def _assert_factorization(a, f: SvdFactorization):
    m, n = a.shape
    q = min(m, n)
    assert f.u.shape == (m, m) and f.v.shape == (n, n) and f.sigma.shape == (q,)
    assert frobenius(dagger(f.u) @ f.u - np.eye(m)) <= 10 * UNIT_ROUNDOFF * m
    assert frobenius(dagger(f.v) @ f.v - np.eye(n)) <= 10 * UNIT_ROUNDOFF * n
    recon = f.u[:, :q] @ np.diag(f.sigma) @ dagger(f.v[:, :q])
    assert frobenius(recon - a) <= 100 * UNIT_ROUNDOFF * frobenius(a) * max(m, n)
    assert np.all(np.diff(f.sigma) <= 0)
    assert np.all(f.sigma >= 0)


def test_svd_identity():
    f = svd(np.eye(3, dtype=complex))
    assert np.allclose(f.sigma, [1, 1, 1]) and f.rank == 3


def test_svd_zero_matrix():
    f = svd(np.zeros((2, 4), dtype=complex))
    assert np.array_equal(f.sigma, [0.0, 0.0]) and f.rank == 0
    _assert_factorization(np.zeros((2, 4), dtype=complex), f)


def test_svd_diagonal_sorted():
    f = svd(np.array([[3.0, 0.0], [0.0, 4.0]], dtype=complex))
    assert np.allclose(f.sigma, [4.0, 3.0]) and f.rank == 2


@pytest.mark.parametrize("seed", range(12))
def test_svd_random_shapes(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 33)), int(rng.integers(1, 33))
    a = _random_complex(rng, m, n)
    f = svd(a)
    _assert_factorization(a, f)
    assert f.rank == min(m, n)


@pytest.mark.parametrize("seed", range(8))
def test_svd_rank_deficient(seed):
    rng = np.random.default_rng(100 + seed)
    m, n = int(rng.integers(3, 20)), int(rng.integers(3, 20))
    r = int(rng.integers(1, min(m, n)))
    a = _random_complex(rng, m, r) @ _random_complex(rng, r, n)
    f = svd(a)
    _assert_factorization(a, f)
    assert f.rank == r


def test_svd_wide_vs_tall_consistency():
    rng = np.random.default_rng(5)
    a = _random_complex(rng, 4, 9)
    fa, fat = svd(a), svd(dagger(a))
    assert np.allclose(fa.sigma, fat.sigma)


def test_svd_1x1():
    f = svd(np.array([[2 - 2j]]))
    assert np.allclose(f.sigma, [abs(2 - 2j)]) and f.rank == 1
    _assert_factorization(np.array([[2 - 2j]]), f)


def test_lu_solve_and_inverse():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 20))
        a = _random_complex(rng, n, n)
        b = _random_complex(rng, n, 3)
        x = lu_solve(a, b)
        assert frobenius(a @ x - b) <= 1e-10 * max(1.0, frobenius(a) * frobenius(x))
        assert frobenius(a @ inverse(a) - np.eye(n)) <= 1e-10 * max(1.0, frobenius(a) ** 2)


def test_lu_solve_singular_raises():
    with pytest.raises(PreconditionError):
        lu_solve(np.ones((3, 3), dtype=complex), np.eye(3, dtype=complex))


def _interleaved_lu_solve(a, rhs):
    """Reference: elimination applied to the right-hand side as it goes."""
    a = np.array(a, dtype=np.complex128)
    x = np.array(rhs, dtype=np.complex128)
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, piv]] = a[[piv, k]]
        x[[k, piv]] = x[[piv, k]]
        mult = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
        x[k + 1 :] -= np.outer(mult, x[k])
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def test_lu_factor_serves_many_solves_bit_for_bit():
    # lu_solve is the reference's loop; inverse is it on a s, scaled back by s
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 24):
        a = _random_complex(rng, n, n) * 3.0 ** (n - 7)
        for _ in range(3):
            b = _random_complex(rng, n, 2)
            np.testing.assert_array_equal(lu_solve(a, b), _interleaved_lu_solve(a, b))
        s = unit_scale(a)
        want = _interleaved_lu_solve(a * s, np.eye(n)) * s
        np.testing.assert_array_equal(inverse(a), want)


def test_lu_factor_rejects_singular_and_mismatched_inputs():
    with pytest.raises(PreconditionError, match="singular"):
        lu_solve(np.ones((3, 3), dtype=complex), np.eye(3))
    with pytest.raises(PreconditionError, match="square"):
        lu_solve(np.ones((2, 3), dtype=complex), np.eye(2))
    with pytest.raises(PreconditionError, match="wrong number of rows"):
        lu_solve(np.eye(3, dtype=complex), np.ones((2, 1)))


def test_inverse_returns_none_where_lu_factor_raises():
    # a breakdown only rules out the LU kernel, so the caller takes the SVD
    singular = np.ones((3, 3), dtype=complex)
    with pytest.raises(PreconditionError):
        lu_solve(singular, np.eye(3))
    assert inverse(singular) is None
    assert inverse(np.ones((2, 3), dtype=complex)) is None
    assert inverse(np.zeros((2, 2), dtype=complex)) is None


def test_cholesky_solves_hpd():
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(1, 15))
        g = _random_complex(rng, n + 2, n)
        h = dagger(g) @ g
        low = cholesky_factor(h)
        assert low is not None
        b = _random_complex(rng, n, 2)
        x = cholesky_solve(low, b)
        assert frobenius(h @ x - b) <= 1e-9 * max(1.0, frobenius(h) * frobenius(x))


def test_cholesky_breakdown_on_singular():
    g = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)  # rank 1, PSD
    assert cholesky_factor(g) is None
    neg = -np.eye(2, dtype=complex)
    assert cholesky_factor(neg) is None


def test_lu_solve_raises_only_on_an_exactly_zero_pivot():
    # the second pivot is 2^-52, below the former threshold 10 n u max |a_ij|;
    # the inverse [[2^52 + 1, -2^52], [-2^52, 2^52]] comes out exactly
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]], dtype=complex)
    want = np.array([[2.0**52 + 1, -(2.0**52)], [-(2.0**52), 2.0**52]])
    np.testing.assert_array_equal(lu_solve(a, np.eye(2)), want)
    np.testing.assert_array_equal(inverse(a), want)
    for singular in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((3, 3))):
        with pytest.raises(PreconditionError, match="exactly zero"):
            lu_solve(singular.astype(complex), np.eye(len(singular)))
        assert inverse(singular) is None


def test_cholesky_factor_breaks_down_only_on_a_pivot_not_above_zero():
    # the second pivot is 2^-52, below the former threshold 10 n u max h_kk
    h = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]], dtype=complex)
    low = cholesky_factor(h)
    np.testing.assert_array_equal(low, [[1.0, 0.0], [1.0, 2.0**-26]])
    for broken in ([[0.0]], [[1.0, 1.0], [1.0, 1.0]], [[-1e-300]], [[np.nan]]):
        assert cholesky_factor(np.array(broken, dtype=complex)) is None


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 16):
        q = random_unitary(rng, n)
        assert frobenius(dagger(q) @ q - np.eye(n)) <= 1e-12 * max(1, n)


def test_hermitian_eigenvalues_match_diagonal():
    d = np.diag([3.0, -1.0, 0.0, 2.5]).astype(complex)
    rng = np.random.default_rng(21)
    q = random_unitary(rng, 4)
    h = q @ d @ dagger(q)
    eig = hermitian_eigenvalues(h)
    assert np.allclose(sorted(eig), sorted([3.0, -1.0, 0.0, 2.5]), atol=1e-12)


def test_hermitian_eigenvalues_zero():
    assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))), np.zeros(3))


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-100, 1.0, 1e100, 1e160, 1e200])
def test_hermitian_eigenvalues_hold_at_any_scale(scale):
    # the shift ||h||_F overflowed its own sum of squares at 1e160 and
    # underflowed to 0 at 1e-170, where every eigenvalue came out 0
    eig = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]) * scale)
    np.testing.assert_allclose(eig, np.array([3.0, 2.0, -1.0]) * scale, rtol=1e-12)


def test_hermitian_eigenvalues_are_scale_equivariant():
    rng = np.random.default_rng(5)
    g = _random_complex(rng, 5, 5)
    h = g + dagger(g)
    big = 2.0**600
    np.testing.assert_array_equal(hermitian_eigenvalues(h * big), hermitian_eigenvalues(h) * big)


# --------------------------------------------------------------------------
# kernel cases checked against numpy.linalg.svd, an oracle used by tests only


def _assert_sigma_matches_oracle(a, f: SvdFactorization, rel):
    want = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(f.sigma - want)) <= rel * max(want[0], 1e-300)


def test_svd_block_pattern_circulant_converges():
    # 0.9*1 - 1.1*pattern(3, 8) at n = 32: columns at roundoff level in the
    # null space once kept a pair rotating for every allowed sweep
    a = circ_materialize(0.9 * np.ones(32) - 1.1 * block_pattern_generator(3, 8))
    f = svd(a)
    _assert_factorization(a, f)
    _assert_sigma_matches_oracle(a, f, 1e-13)
    assert f.rank == np.linalg.matrix_rank(a)


@pytest.mark.parametrize("exact", [False, True])
def test_svd_zero_singular_value_multiplicity(exact):
    rng = np.random.default_rng(31)
    if exact:
        # duplicated, dependent and zero columns: rank 3, so sigma = 0 six times
        x = _random_complex(rng, 9, 3)
        a = np.hstack([x, np.zeros((9, 2)), 2.0 * x[:, :1], x[:, 1:] - x[:, :2], np.zeros((9, 1))])
        zeros = 6
    else:
        a = _random_complex(rng, 12, 4) @ _random_complex(rng, 4, 10)
        zeros = 6
    f = svd(a)
    _assert_factorization(a, f)
    _assert_sigma_matches_oracle(a, f, 1e-13)
    assert f.rank == min(a.shape) - zeros


@pytest.mark.parametrize("seed", range(4))
def test_svd_graded_relative_accuracy(seed):
    # D1 A D2 with scales over 1e-8..1e8 (Demmel-Veselic): the singular
    # values span ~1e31, and Jacobi must get the smallest one to relative
    # accuracy. The oracle's own smallest value is unreliable here, so it is
    # taken as 1 / sigma_max(G^-1) with G^-1 = D2^-1 A^-1 D1^-1.
    rng = np.random.default_rng(900 + seed)
    n = 8
    a = _random_complex(rng, n, n)
    d1 = 10.0 ** rng.permutation(np.linspace(-8.0, 8.0, n))
    d2 = 10.0 ** rng.permutation(np.linspace(-8.0, 8.0, n))
    g = d1[:, None] * a * d2[None, :]
    g_inv = np.linalg.inv(a) / d2[:, None] / d1[None, :]
    f = svd(g)
    assert f.sigma[0] / f.sigma[-1] > 1e25
    want_max = np.linalg.svd(g, compute_uv=False)[0]
    want_min = 1.0 / np.linalg.svd(g_inv, compute_uv=False)[0]
    assert abs(f.sigma[0] - want_max) <= 1e-12 * want_max
    assert abs(f.sigma[-1] - want_min) <= 1e-12 * want_min


@pytest.mark.parametrize("exponent", [-300, -170, 170, 300])
def test_svd_extreme_scales(exponent):
    # squared column norms would underflow or overflow at these scales
    rng = np.random.default_rng(abs(exponent))
    base = _random_complex(rng, 6, 4)
    scale = 10.0**exponent
    f = svd(base * scale)
    want = np.linalg.svd(base, compute_uv=False)
    assert np.max(np.abs(f.sigma / scale - want)) <= 1e-14 * want[0]
    assert f.rank == 4
    assert frobenius(dagger(f.u) @ f.u - np.eye(6)) <= 10 * UNIT_ROUNDOFF * 6
    assert frobenius(dagger(f.v) @ f.v - np.eye(4)) <= 10 * UNIT_ROUNDOFF * 4
    recon = f.u[:, :4] @ np.diag(f.sigma / scale) @ dagger(f.v)
    assert frobenius(recon - base) <= 100 * UNIT_ROUNDOFF * frobenius(base) * 6


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1), (1, 40), (40, 1)])
def test_svd_single_row_or_column(shape):
    rng = np.random.default_rng(sum(shape))
    a = _random_complex(rng, *shape)
    f = svd(a)
    _assert_factorization(a, f)
    _assert_sigma_matches_oracle(a, f, 1e-14)
    assert f.rank == 1


def test_svd_tall_rank_one_u_unitary():
    rng = np.random.default_rng(128)
    m = 128
    a = _random_complex(rng, m, 1) @ _random_complex(rng, 1, 4)
    f = svd(a)
    assert frobenius(dagger(f.u) @ f.u - np.eye(m)) <= 10 * UNIT_ROUNDOFF * m
    _assert_factorization(a, f)
    _assert_sigma_matches_oracle(a, f, 1e-14)
    assert f.rank == 1


def count_completions(monkeypatch) -> list[int]:
    """Record the column count of every Householder completion of U."""
    calls = []

    def counting(cols, total):
        calls.append(cols.shape[1])
        return _complete_orthonormal(cols, total)

    monkeypatch.setattr(pinvkit.linalg, "_complete_orthonormal", counting)
    return calls


@pytest.mark.parametrize("shape,rank", [((12, 12), 5), ((16, 4), 4), ((16, 4), 2), ((4, 16), 3)])
def test_pinv_projectors_and_residuals_never_complete_u(monkeypatch, shape, rank):
    a = pinvkit.gen_random_matrix(7, *shape, rank=rank)
    calls = count_completions(monkeypatch)
    x = pinvkit.pinv(a)
    pinvkit.projectors(a)
    assert pinvkit.penrose_residuals(a, x).passed
    assert calls == []


@pytest.mark.parametrize("shape,rank", [((12, 12), 5), ((16, 4), 4), ((4, 16), 3)])
def test_u_is_completed_once_on_read_and_as_it_was_built(monkeypatch, shape, rank):
    a = pinvkit.gen_random_matrix(8, *shape, rank=rank)
    m, n = shape
    f = svd(a, deflate=True)
    # the lazy side is u for tall or square input and v for wide input
    wide = m < n
    lazy, total = (f.adjoint(), n) if wide else (f, m)
    cols = lazy._u.cols.copy()
    assert cols.shape[1] == np.count_nonzero(f.sigma > 0) < total
    calls = count_completions(monkeypatch)
    full = f.v if wide else f.u
    assert calls == [cols.shape[1]]
    # the eager kernel's U: the same reflectors on the same columns
    np.testing.assert_array_equal(full, _complete_orthonormal(cols, total))
    assert frobenius(dagger(full) @ full - np.eye(total)) <= 10 * UNIT_ROUNDOFF * total
    np.testing.assert_array_equal(full[:, : f.rank], f.cutoff_slices[int(wide)])
    # later reads, and reads through the adjoint, reuse it
    assert (f.adjoint().u if wide else f.adjoint().v) is full
    assert (f.v if wide else f.u) is full
    assert calls == [cols.shape[1]]
    _assert_factorization(a, f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 31, 32])
def test_round_robin_pairs_each_couple_once(n):
    rounds = _round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    seen = []
    for p, q in rounds:
        assert np.all(p < q) and np.all(q < n) and np.all(p >= 0)
        members = np.concatenate([p, q])
        assert len(set(members.tolist())) == members.size  # disjoint within a round
        seen.extend(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_library_source_avoids_numpy_linalg():
    # the kernels stay in-repo: no module of the package may use numpy.linalg
    package = pathlib.Path(pinvkit.__file__).parent
    pattern = re.compile(r"\b(?:numpy|np)\s*\.\s*linalg\b|\bfrom\s+numpy\s+import\b[^\n]*\blinalg\b")
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


# --------------------------------------------------------------------------
# the kernel against its former self: one Brent-Luk round per numpy step,
# pairs gathered and scattered by index, and a final sweep that rotates
# nothing to confirm convergence. Kept verbatim as the reference.


def reference_jacobi_svd(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, max_sweeps: int = 60
) -> SvdFactorization:
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    if m < n:
        f = reference_jacobi_svd(dagger(a), tol, max_sweeps)
        return SvdFactorization(u=f.v, sigma=f.sigma, v=f.u, rank=f.rank)

    top = float(np.max(np.abs(a), initial=0.0))
    scale = 2.0 ** -np.frexp(top)[1] if top > 0.0 else 1.0
    bt = np.array(a.T * scale, dtype=np.complex128, order="C")
    vt = eye(n)
    rounds = _round_robin(n)
    threshold = np.sqrt(m) * _EPS
    dead_floor = (UNIT_ROUNDOFF**3 * frobenius(bt)) ** 2
    for _ in range(max_sweeps):
        dead = _squared_norms(bt) <= dead_floor
        if np.any(dead):
            bt[dead] = 0.0
        rotated = False
        for p, q in rounds:
            bp, bq = bt[p], bt[q]
            app, aqq = _squared_norms(bp), _squared_norms(bq)
            apq = np.einsum("ij,ij->i", bp.conj(), bq)
            gam = np.abs(apq)
            live = (app > dead_floor) & (aqq > dead_floor)
            live &= gam > threshold * np.sqrt(app) * np.sqrt(aqq)
            if not np.any(live):
                continue
            rotated = True
            if not np.all(live):
                p, q, bp, bq = p[live], q[live], bp[live], bq[live]
                app, aqq, apq, gam = app[live], aqq[live], apq[live], gam[live]
            phase = np.conj(apq / gam)[:, None]
            zeta = (aqq - app) / (2.0 * gam)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
            s = c * t[:, None]
            bt[p], bt[q] = c * bp - (s * phase) * bq, s * bp + (c * phase) * bq
            vp, vq = vt[p], vt[q]
            vt[p], vt[q] = c * vp - (s * phase) * vq, s * vp + (c * phase) * vq
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps"
        )

    norms = np.sqrt(_squared_norms(bt))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = bt[order].T
    v = vt[order].T

    nonzero = norms > 0.0
    u_cols = b[:, nonzero] / norms[nonzero]
    u = _complete_orthonormal(u_cols, m) if u_cols.shape[1] < m else u_cols
    sigma = norms / scale

    sigma_max = sigma[0] if sigma.size else 0.0
    cutoff = tol.rank_cutoff(sigma_max, m, n)
    rank = int(np.count_nonzero(sigma > cutoff))
    return SvdFactorization(u=u, sigma=sigma, v=v, rank=rank)


# (rows, cols, rank) of every slot of the benchmark's dense-oracle workload
DENSE_ORACLE_SHAPES = sorted({
    (64, 64, 64), (32, 32, 32), (32, 32, 16), (16, 16, 16), (16, 16, 8), (16, 16, 12),
    (12, 12, 12), (12, 12, 6), (12, 12, 9), (10, 10, 10), (10, 10, 5), (8, 8, 8),
    (8, 8, 4), (8, 8, 6), (8, 8, 3), (128, 4, 1), (96, 4, 1), (64, 4, 1), (48, 4, 1),
    (32, 4, 1), (16, 4, 1),
})


def _low_rank(rng, m, n, r):
    if r >= min(m, n):
        return _random_complex(rng, m, n)
    return _random_complex(rng, m, r) @ _random_complex(rng, r, n)


def _assert_matches_reference(a):
    f, ref = svd(a), reference_jacobi_svd(a)
    m, n = a.shape
    assert f.rank == ref.rank
    assert f.sigma.shape == ref.sigma.shape
    assert np.max(np.abs(f.sigma - ref.sigma), initial=0.0) <= 1e-13 * max(ref.sigma[0], 1e-300)
    assert frobenius(dagger(f.u) @ f.u - np.eye(m)) <= 10 * UNIT_ROUNDOFF * m
    # V's departure from unitarity grows with the sweeps: the reference's own
    # reaches about 12 u n at n = 33 and 64, past the 10 u n that smaller
    # cases keep, so V may go as far as the reference's and no further.
    v_gap, ref_v_gap = (frobenius(dagger(g.v) @ g.v - np.eye(n)) for g in (f, ref))
    assert v_gap <= max(10 * UNIT_ROUNDOFF * n, ref_v_gap)


@pytest.mark.parametrize("shape", DENSE_ORACLE_SHAPES, ids=lambda s: "%dx%d-r%d" % s)
def test_svd_matches_reference_at_dense_oracle_shapes(shape):
    m, n, r = shape
    _assert_matches_reference(_low_rank(np.random.default_rng(m * 1000 + n * 10 + r), m, n, r))


@pytest.mark.parametrize("shape", DENSE_ORACLE_SHAPES, ids=lambda s: "%dx%d-r%d" % s)
def test_deflated_svd_keeps_v_unitary_and_the_rank(shape):
    # deflation zeroes columns of B and never touches V, so V is no further
    # from unitary than the accurate kernel's own V, and every sigma is
    # within the zeroed mass ||E||_F of the accurate one
    m, n, r = shape
    a = _low_rank(np.random.default_rng(m * 1000 + n * 10 + r), m, n, r)
    f, accurate = svd(a, deflate=True), svd(a)
    assert f.rank == accurate.rank == r
    assert np.max(np.abs(f.sigma - accurate.sigma)) <= f.deflated + 1e-13 * accurate.sigma[0]
    assert f.deflated < DEFAULT_TOL.rank_cutoff(accurate.sigma[0], m, n) / 4.0
    v_gap, ref_v_gap = (frobenius(dagger(g.v) @ g.v - np.eye(n)) for g in (f, accurate))
    assert v_gap <= max(10 * UNIT_ROUNDOFF * n, ref_v_gap)


@pytest.mark.parametrize("deflate", [False, True])
@pytest.mark.parametrize("shape", [(64, 64, 64), (32, 32, 16)], ids=lambda s: "%dx%d-r%d" % s)
def test_v_stays_unitary_within_a_bound_per_sweep_at_benchmark_shapes(shape, deflate):
    # Every sweep's rotations add their rounding to V, so its departure from
    # unitarity grows with the sweeps. At these seeded inputs it reaches
    # 12.7 u n at 64 x 64 (9 sweeps) and 10.7 u n at 32 x 32 rank 16 (15
    # sweeps of the accurate kernel), past the 10 u n that
    # _assert_factorization holds up to n = 32. The most measured per sweep
    # is 1.41 u n, at 64 x 64; the bound allows 2 u n per sweep.
    m, n, r = shape
    a = _low_rank(np.random.default_rng(m * 1000 + n * 10 + r), m, n, r)
    sweeps = _fewest_sweeps(functools.partial(svd, deflate=deflate), a)
    v = svd(a, deflate=deflate).v
    assert frobenius(dagger(v) @ v - np.eye(n)) <= 2 * UNIT_ROUNDOFF * n * sweeps


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (3, 3), (5, 5), (9, 9), (33, 33), (7, 3), (3, 7), (40, 5), (5, 40),
     (1, 9), (9, 1), (1, 33), (33, 1)],
)
def test_svd_matches_reference_at_odd_and_thin_shapes(shape):
    rng = np.random.default_rng(sum(shape) + 7)
    _assert_matches_reference(_random_complex(rng, *shape))
    if min(shape) > 2:
        _assert_matches_reference(_low_rank(rng, *shape, min(shape) // 2))


def test_svd_matches_reference_on_zero_and_repeated_zero_sigma():
    for shape in [(1, 1), (4, 4), (5, 3), (3, 5)]:
        _assert_matches_reference(np.zeros(shape, dtype=complex))
    rng = np.random.default_rng(41)
    x = _random_complex(rng, 9, 3)
    exact = np.hstack([x, np.zeros((9, 2)), 2.0 * x[:, :1], x[:, 1:] - x[:, :2], np.zeros((9, 1))])
    _assert_matches_reference(exact)
    _assert_matches_reference(exact.T)


def test_svd_matches_reference_on_block_circulant():
    _assert_matches_reference(circ_materialize(0.9 * np.ones(32) - 1.1 * block_pattern_generator(3, 8)))


@pytest.mark.parametrize("n", range(1, 34))
def test_sweep_schedule_pairs_each_couple_once(n):
    # Follow the labels through one sweep of row moves: each round pairs row
    # k with row k + size/2, and every couple p < q of real columns meets
    # exactly once, p in the first half. For odd n the phantom row n always
    # sits in the second half opposite a column that rests that round.
    first, steps = _sweep_schedule(n)
    size = n + n % 2
    half = size // 2
    assert sorted(first.tolist()) == list(range(size))
    labels = first.copy()
    seen = []
    for step in steps:
        p, q = labels[:half], labels[half:]
        assert np.all(p < q)
        assert not np.any(p == n)
        seen.extend((int(i), int(j)) for i, j in zip(p, q) if j < n)
        if n % 2:
            assert np.count_nonzero(q == n) == 1
        labels = labels[step]
    np.testing.assert_array_equal(labels, first)  # each sweep ends where it began
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def _fewest_sweeps(kernel, a):
    """Smallest max_sweeps with which kernel(a) returns: doubling, then bisection."""

    def returns(sweeps):
        try:
            kernel(a, max_sweeps=sweeps)
        except ConvergenceError:
            return False
        return True

    low, high = -1, 1  # kernel(a, max_sweeps=low) raises, and so far high is untried
    while not returns(high):
        assert high < 60
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if returns(mid) else (mid, high)
    return high


@pytest.mark.parametrize("shape", DENSE_ORACLE_SHAPES, ids=lambda s: "%dx%d-r%d" % s)
def test_gram_certificate_saves_the_confirming_sweep(shape):
    # the reference spends a last sweep that rotates nothing; the Gram
    # certificate stops after the last sweep that rotates
    m, n, r = shape
    a = _low_rank(np.random.default_rng(m * 1000 + n * 10 + r + 1), m, n, r)
    sweeps = _fewest_sweeps(svd, a)
    assert sweeps >= 1
    reference_jacobi_svd(a, max_sweeps=sweeps + 1)
    with pytest.raises(ConvergenceError):
        reference_jacobi_svd(a, max_sweeps=sweeps)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_orthogonal_columns_are_not_rotated(n):
    rng = np.random.default_rng(60 + n)
    d = np.diag(rng.uniform(0.5, 4.0, n) * np.exp(2j * np.pi * rng.random(n)))
    d[n // 2, n // 2] = d[0, 0]  # a repeated singular value
    for a in (d, random_unitary(rng, n) @ d):
        f = svd(a, max_sweeps=0)
        perm = np.abs(f.v)
        assert np.all((perm == 0.0) | (perm == 1.0))
        np.testing.assert_array_equal(perm.sum(axis=0), np.ones(n))
        np.testing.assert_array_equal(perm.sum(axis=1), np.ones(n))
        _assert_factorization(a, f)


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (1, 1)], ids=["tall", "wide", "1x1"])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_svd_rejects_non_finite_entries(shape, part, value):
    a = np.ones(shape, dtype=complex)
    a[-1, 0] = complex(value, 2.0) if part == "real" else complex(2.0, value)
    with pytest.raises(PreconditionError):
        svd(a)


def test_negative_max_sweeps_raises():
    a = np.arange(6.0).reshape(3, 2).astype(complex)
    for sweeps in (-1, 0):
        with pytest.raises(ConvergenceError):
            svd(a, max_sweeps=sweeps)
