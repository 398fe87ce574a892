"""Dense complex factorizations and solvers, implemented in-repo.

The SVD is a one-sided Jacobi iteration: unitary plane rotations applied on
the right orthogonalize the columns, so V stays unitary to machine precision
and singular values come out with high relative accuracy. Column pairs are
visited in the Brent-Luk round-robin order: each sweep is n-1 rounds (n for
odd n), and every round holds up to n/2 disjoint pairs, so a whole round is
rotated by one set of array operations. The columns of B and V are kept as
the rows of one array [B | V], ordered so that a round's p-columns fill its
first half and its q-columns the second; a round works on the two halves as
views, and one precomputed row permutation moves the array on to the next
round. A pair is rotated only while
|b_p* b_q| > sqrt(m) * eps * ||b_p|| ||b_q||, the stopping test of LAPACK's
one-sided Jacobi (Drmac-Veselic 2008); the sqrt(m) covers the rounding of
inner products formed straight from the columns. A pair that passes it gets
the exact identity rotation. Before each sweep one Gram product B B* applies
the same test to every pair at once, so convergence is certified without a
sweep that rotates nothing. The iteration runs on a copy scaled by a power of
two, so squared norms neither overflow nor underflow at extreme scales.
Missing columns of U, for rank-deficient or tall inputs, come from the
Householder reflectors that reduce the accepted columns to triangular form.
They are built on the first read of u (of v on the adjoint), at most once;
pinv, projectors and the residual checks read only cutoff_slices.

There is one sweep loop, and it runs over a stack of same-shape matrices:
svd_batch stacks the k members' [B | V] arrays with the p-rows of all
members over all their q-rows, so a round is the one-member round with
halves k times as tall, and svd is the stack of one. Each member keeps its
own scale, dead floor, zeroed mass, certificate and exits, and leaves the
stack as soon as it is certified; a member with no live pair in a round is
left exactly as it was. Every member is therefore bit-identical to svd run
alone, while at small n, where a round costs mostly numpy's call overhead,
a round over the stack costs little more than one member's does (one-sided
Jacobi over many small matrices at once, as in Boukaram, Turkiyyah,
Ltaief and Keyes 2018). One batched Gram product per sweep certifies all
the members at once. The rounds rotate into arrays that are allocated
once per stack size, not per round. The routes that factor several
matrices of one shape, Fill-Fishkind and the pair completion, factor them
together.

A column whose norm falls to the dead floor is frozen at zero. svd keeps
that floor at u^3 ||A||_F, so tiny but genuine singular values, such as
those of graded inputs, stay accurate (Demmel-Veselic 1992). Callers that
read only the singular values above the rank cutoff, which are the
pseudoinverse routes in core and sumdecomp and the CLI's pinv and verify,
pass deflate=True: the floor rises to just below the rank cutoff, the
roundoff block of a rank-deficient input is zeroed in a few sweeps instead
of ground down, and SvdFactorization.deflated bounds how far that moved
any singular value. hermitian_eigenvalues keeps the accurate kernel.

The solvers are the plain textbook algorithms. lu_solve eliminates A and its
right-hand sides in one partial-pivoting loop: every caller solves once per
matrix, so no factorization is kept. They hold no threshold: inverse and
core._gram_pinv return None only on an exactly zero LU pivot or a Cholesky
pivot that is not positive, core._admitted refuses that or a non-finite or
inaccurate X, and the route takes pinv(A). They and svd run on A times
unit_scale and scale back, so a route that only calls them holds at any scale.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .matrix import (
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

_EPS = 2.0 * UNIT_ROUNDOFF  # machine epsilon for float64


@dataclass
class _Basis:
    """The first columns of a total x total unitary; the rest are filled in
    by _complete_orthonormal on the first call of full(), and kept. A
    factorization and its adjoint share one, so that runs at most once."""

    cols: np.ndarray
    total: int

    def full(self) -> np.ndarray:
        if self.cols.shape[1] < self.total:
            self.cols = _complete_orthonormal(self.cols, self.total)
        return self.cols


class SvdFactorization:
    """A = u @ diag(sigma) @ v* with u (m,m) and v (n,n) unitary.

    sigma has length min(m, n), sorted non-increasing; rank counts the
    singular values above cutoff = rank_rel * sigma[0] * max(m, n).

    deflated is ||E||_F, in the units of A, for the columns of B = A V that
    the kernel froze at zero: u @ diag(sigma) @ v* = A - E v* exactly in
    exact arithmetic, so with v unitary every sigma lies within deflated of
    the singular value of A it stands for (Weyl). It is roundoff far below
    any cutoff for svd(a), and below the rank cutoff / 8 per column for
    svd(a, deflate=True).

    svd keeps only u's columns for the nonzero sigma and completes u on its
    first read; cutoff_slices never needs the completion.
    """

    __slots__ = ("_u", "sigma", "_v", "rank", "deflated")

    def __init__(self, u, sigma: np.ndarray, v, rank: int, deflated: float = 0.0):
        # an array given here reads back as it is; svd passes u as a _Basis
        u, v = (b if isinstance(b, _Basis) else _Basis(b, np.shape(b)[1]) for b in (u, v))
        for name, value in zip(self.__slots__, (u, sigma, v, rank, deflated)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SvdFactorization is immutable; cannot set {name}")

    @property
    def u(self) -> np.ndarray:
        return self._u.full()

    @property
    def v(self) -> np.ndarray:
        return self._v.full()

    @property
    def cutoff_slices(self) -> tuple[np.ndarray, np.ndarray]:
        """(u columns, v columns) spanning the range / co-range of A."""
        return self._u.cols[:, : self.rank], self._v.cols[:, : self.rank]

    def adjoint(self) -> SvdFactorization:
        """The factorization of A* = v @ diag(sigma) @ u*."""
        return SvdFactorization(self._v, self.sigma, self._u, self.rank, self.deflated)


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds (p, q) of one Jacobi sweep over the columns 0..n-1.

    Circle method: column 0 stays put while the others turn one place per
    round, and position i meets position size-1-i. Every pair p < q occurs
    in exactly one round, and the pairs within a round are disjoint. For odd
    n a phantom column n pads the circle; whoever meets it sits the round out.
    """
    size = n + n % 2
    half = size // 2
    others = np.arange(1, size)
    rounds = []
    for r in range(size - 1):
        ring = np.concatenate(([0], np.roll(others, r)))
        left, right = ring[:half], ring[::-1][:half]
        keep = (left < n) & (right < n)
        p, q = left[keep], right[keep]
        rounds.append((np.minimum(p, q), np.maximum(p, q)))
    return rounds


def _sweep_schedule(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The rounds of _round_robin(n) as row layouts and the moves between them.

    A layout orders size = n + n%2 rows so that row k of the first half
    meets row k + size/2 of the second: p sits in the first half and q in
    the second, so every pair keeps its p < q roles. For odd n, the column
    that sits a round out is placed opposite the phantom row n. Returns the
    first round's layout and, for each round, the row permutation that takes
    its layout to the next round's; the last one leads back to the first, so
    every sweep starts from the same layout. n = 0 has no rounds, and its
    one empty layout keeps the sweep loop uniform.
    """
    layouts = []
    for p, q in _round_robin(n):
        if n % 2:
            idle = np.ones(n, dtype=bool)
            idle[p] = idle[q] = False
            p, q = np.concatenate((p, np.flatnonzero(idle))), np.append(q, n)
        layouts.append(np.concatenate((p, q)))
    layouts = layouts or [np.arange(0)]
    steps = tuple(np.argsort(here)[after] for here, after in zip(layouts, layouts[1:] + layouts[:1]))
    return layouts[0], steps


@functools.lru_cache(maxsize=64)
def _stack_schedule(
    n: int, k: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """_sweep_schedule(n) for a stack of k members, p-rows over q-rows.

    Row s of the first (half = 0) or second (half = 1) half of member j's own
    layout sits at row (half k + j) h + s of the stack, h = (n + n%2) / 2, so
    a round pairs row i of the first k h rows with row i + k h, just as one
    member pairs row i with row i + h, and viewed as (2, k, h) the stack's
    rows hold each member at [:, j]. Returns the first round's layout, as
    rows of the k members' natural rows stacked one member after another;
    the row moves between rounds, each member moved as if alone; and the
    rows of a member's own first layout that hold its columns 0..n-1, in
    order. The arrays are read-only and cached per (n, k), since building
    them costs as much as a few rounds.
    """
    first, steps = _sweep_schedule(n)
    size = n + n % 2
    h = size // 2
    place = (np.arange(2)[:, None, None] * k + np.arange(k)[:, None]) * h + np.arange(h)
    rows = place.transpose(1, 0, 2).reshape(k, size)  # member j's rows, in its own layout

    def lift(source: np.ndarray) -> np.ndarray:
        table = np.empty(k * size, dtype=np.intp)
        table[rows] = source
        return table

    first_k = lift(np.arange(k)[:, None] * size + first)
    steps_k = tuple(lift(rows[:, step]) for step in steps)
    natural = np.argsort(first)[:n]
    for table in (first_k, *steps_k, natural):
        table.flags.writeable = False
    return first_k, steps_k, natural


def _complete_orthonormal(cols: np.ndarray, total: int) -> np.ndarray:
    """Extend orthonormal columns (total x k) to a full unitary (total x total).

    Householder reflectors H_1..H_k reduce cols to upper-triangular form;
    the last total-k columns of H_1 ... H_k are orthonormal and orthogonal
    to cols, so they fill out the basis.
    """
    k = cols.shape[1]
    r = cols.copy()
    reflectors = []
    for j in range(k):
        x = r[j:, j]
        alpha = np.sqrt(np.sum(np.abs(x) ** 2))
        if x[0] != 0:
            alpha = alpha * x[0] / abs(x[0])
        w = x.copy()
        w[0] += alpha  # w = x + alpha e1 maps x to -alpha e1, without cancellation
        w /= np.sqrt(np.sum(np.abs(w) ** 2))
        r[j:, j:] -= 2.0 * np.outer(w, np.conj(w) @ r[j:, j:])
        reflectors.append(w)
    tail = np.zeros((total, total - k), dtype=np.complex128)
    tail[k:, :] = eye(total - k)
    for j in range(k - 1, -1, -1):
        w = reflectors[j]
        tail[j:] -= 2.0 * np.outer(w, np.conj(w) @ tail[j:])
    return np.hstack([cols, tail])


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of a C-contiguous complex array."""
    flat = rows.view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def _certified(bt: np.ndarray, norms2: np.ndarray, threshold: float) -> np.ndarray:
    """Which members of a stack have every pair of rows pass the Jacobi
    stopping test.

    bt holds the members' rows as (k, size, m) and norms2 their squared
    norms as (k, size). One batched Gram product B B* gives every b_p* b_q of
    every member at once; the test is the one a round applies,
    |b_p* b_q| <= threshold * ||b_p|| ||b_q||. Rows zeroed as dead give zero
    entries, which always pass.
    """
    k, size = norms2.shape
    gram = np.abs(bt @ bt.conj().swapaxes(1, 2))
    gram.reshape(k, -1)[:, :: size + 1] = 0.0
    root = np.sqrt(norms2)
    over = gram > (threshold * root)[:, :, None] * root[:, None, :]
    return ~over.reshape(k, -1).any(axis=1)


def svd(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, max_sweeps: int = 60, deflate: bool = False
) -> SvdFactorization:
    """One-sided Jacobi SVD of a complex matrix, in round-robin order.

    The columns of B and V are the rows of one array [B | V], so one set of
    operations rotates both. Each round lays its pairs out as two halves,
    p-rows over q-rows, computes ||b_p||^2, ||b_q||^2 and b_p* b_q straight
    from the current columns, and rotates every pair at once; a pair that
    passes the stopping test |b_p* b_q| <= sqrt(m) * eps * ||b_p|| ||b_q||
    or holds a dead column gets the exact identity (c = 1, s = 0). One row
    permutation then moves the array to the next round's layout. Before each
    sweep one Gram product B B* certifies convergence by the same test, so
    no sweep is spent confirming it; max_sweeps bounds the sweeps that
    rotate, and ConvergenceError is raised if the columns are not certified
    after that many. U is b with its columns normalized, completed to a
    unitary by Householder reflectors when first read. The sweeps run on
    unit_scale(a) a, so subnormal input keeps its rank. Raises
    PreconditionError on inf or nan entries. The loop runs on a stack:
    svd_batch puts the p-rows of all its members over all their q-rows, so
    each round is this round with halves k times as tall, and svd is
    svd_batch on the stack of one member, a wide a factored through its
    adjoint.

    A column is frozen at zero once its norm falls to the dead floor. By
    default that floor is u^3 ||A||_F, so singular values far below the
    rank cutoff, such as those of a graded D1 A D2, keep their relative
    accuracy (Demmel-Veselic 1992). deflate=True raises it to
    min(c_lo / 8, tau ||A||_F / sqrt(n)), with c_lo =
    tol.rank_cutoff(||A||_F / sqrt(n), m, n) a lower bound on the rank
    cutoff (sigma_1 >= ||A||_F / sqrt(n)) and tau = tol.residual_rel: the
    roundoff-level columns of a rank-deficient input are zeroed instead of
    ground down, which saves about half the sweeps, as LAPACK's xGEJSV
    truncates its negligible part. The zeroed mass is returned as
    deflated, and every sigma moves by at most that much. Callers that read
    only the singular values above the rank cutoff (the pseudoinverse
    routes and the CLI) turn it on; the tau cap keeps each zeroed column
    within the Penrose bounds of AX and XA.
    """
    return svd_batch((a,), tol, max_sweeps, deflate)[0]


def svd_batch(
    mats, tol: Tolerance = DEFAULT_TOL, max_sweeps: int = 60, deflate: bool = False
) -> list[SvdFactorization]:
    """svd of each of several matrices of one shape up to the adjoint, in one
    stacked sweep loop.

    Member i of the result is bit-identical to svd(mats[i], tol, max_sweeps,
    deflate): every member keeps its own scale, dead floor, zeroed mass,
    certificate and exits, and the others only share its rounds. A round
    over a small stack costs little more than a round over one member, since
    at small n numpy's call overhead dominates. Each wide member is factored
    through its adjoint, so an m x n and an n x m member share
    the stack. Raises PreconditionError when the tall forms differ in shape
    or on an inf or nan entry, and ConvergenceError if a member is not
    certified within max_sweeps; both name the member when there are
    several. No members give an empty list.
    """
    mats = [np.asarray(a, dtype=np.complex128) for a in mats]
    wide = [a.shape[0] < a.shape[1] for a in mats]
    tall = [dagger(a) if w else a for a, w in zip(mats, wide)]
    if any(a.shape != tall[0].shape for a in tall):
        raise PreconditionError("svd_batch needs matrices of one shape, up to the adjoint")
    done = _jacobi_stack(tall, tol, max_sweeps, deflate) if tall else []
    return [f.adjoint() if w else f for f, w in zip(done, wide)]


def _jacobi_stack(
    mats: list[np.ndarray], tol: Tolerance, max_sweeps: int, deflate: bool
) -> list[SvdFactorization]:
    """The sweep loop of svd and svd_batch, on k >= 1 matrices of one m x n
    shape with m >= n.

    The k members' [B | V] arrays are stacked into one, p-rows of all members
    over their q-rows (_stack_schedule), so a round is the one-member round
    with its halves k times as tall. A member whose round has no live pair is
    left exactly as it was, and a member that is certified, or whose sweep
    rotated nothing, leaves the stack at once and is finished alone.

    A round allocates nothing of the stack's size. It rotates the stack into
    a spare array of the same shape through out= arguments, with one scratch
    array half as tall, and the row move to the next round takes the rotated
    rows back into the stack; these arrays are rebuilt only when a member
    leaves. A round in which every pair is live skips the masks that give
    idle pairs the identity. Writing through out= does the arithmetic of
    forming each product in a new array, and c and s are kept as the complex
    values that a real-by-complex product casts them to, so where a result
    is written changes none of its bits.
    """
    k = len(mats)
    m, n = mats[0].shape
    # Row j of a member's array holds column j of b and of v; for odd n a
    # zero phantom row pads the layout to an even size. Rows sit in the
    # current round's layout, so a round acts on the halves w[:half] and
    # w[half:] as views, and every sweep ends back in the first round's layout.
    size = n + n % 2
    h = size // 2
    natural = np.zeros((k, size, m + n), dtype=np.complex128)
    scales, floors2 = [], np.empty(k)
    for j, a in enumerate(mats):
        # Squared column norms overflow for entries above ~1e154 and underflow
        # below ~1e-154, so the iteration runs on a copy scaled by a power of
        # two, which is exact, to entries below 1; sigma is scaled back at the end.
        if not np.isfinite(a).all():
            raise PreconditionError(f"svd input has an inf or nan entry{_member(j, k)}")
        scale = unit_scale(a)
        natural[j, :n, :m] = a.T * scale
        natural[j, :n, m:] = eye(n)
        # Columns ground down to far below roundoff noise are frozen at zero;
        # repeated rotations among members of a multiple zero singular value
        # would otherwise shrink them without bound, toward denormal livelock.
        # The floor sits at u^3 ||A||_F, not u^2: a graded matrix (D1 A D2 with
        # scales over 1e-8..1e8) has genuine singular values near 1e-32 ||A||_F.
        norm = frobenius(natural[j, :n, :m])
        floor = UNIT_ROUNDOFF**3 * norm
        if deflate and n:
            typical = norm / np.sqrt(n)
            floor = max(floor, min(tol.rank_cutoff(typical, m, n) / 8.0, tol.residual_rel * typical))
        scales.append(scale)
        floors2[j] = floor**2
    threshold = np.sqrt(m) * _EPS
    zeroed2 = [0.0] * k
    done: list[SvdFactorization | None] = [None] * k
    members = list(range(k))  # the members still in the stack, in stack order
    w = natural.reshape(k * size, m + n)[_stack_schedule(n, k)[0]]
    del natural  # only the stack in round layout is kept

    def by_member(stacked: np.ndarray) -> np.ndarray:
        """The stack's rows as (members, size, ...), each member's rows in
        its own layout; a view when the stack holds one member."""
        if len(members) == 1:
            return stacked[None]
        kk, rest = len(members), stacked.shape[1:]
        return stacked.reshape(2, kk, h, *rest).swapaxes(0, 1).reshape(kk, size, *rest)

    def leave(positions=()) -> tuple[int, tuple[np.ndarray, ...], np.ndarray]:
        """Finish the members at these stack positions and drop their rows;
        return the stack's size, row moves and per-row dead floors."""
        nonlocal w, members
        if positions:
            columns = _stack_schedule(n, len(members))[2]
            rows = by_member(w)
            for pos in positions:
                j = members[pos]
                done[j] = _factorization(rows[pos][columns], m, n, scales[j], zeroed2[j], tol)
            keep = [pos for pos in range(len(members)) if pos not in positions]
            if not keep:
                return 0, (), np.empty(0)
            w = w.reshape(2, len(members), h, m + n)[:, keep].reshape(2 * len(keep) * h, m + n)
            members = [members[pos] for pos in keep]
        floors = np.repeat(floors2[members], h)
        return len(members), _stack_schedule(n, len(members))[1], np.concatenate((floors, floors))

    kk, steps, dead_floor = leave()
    spare = None
    for sweep in itertools.count():
        norms2 = _squared_norms(w[:, :m])
        dead = norms2 <= dead_floor
        if np.count_nonzero(dead):
            # one sum per member over its dead rows in its own layout, the
            # order in which np.sum adds them for the member alone; a member
            # without one adds 0.0, which leaves its mass's bits as they are
            for j, mine, values in zip(members, by_member(dead), by_member(norms2)):
                zeroed2[j] += float(np.sum(values[mine]))
            w[dead, :m] = 0.0
        certified = _certified(by_member(w[:, :m]), by_member(norms2), threshold)
        if np.count_nonzero(certified):
            kk, steps, dead_floor = leave([pos for pos in range(kk) if certified[pos]])
            if not kk:
                break
        if sweep >= max_sweeps:
            raise ConvergenceError(
                f"one-sided Jacobi SVD did not converge within {max_sweeps} sweeps"
                f"{_member(members[0], k)}"
            )
        half = kk * h
        if spare is None or spare.shape != w.shape:
            # The round's arrays and their views, made when the first sweep
            # runs and again after members leave; the rounds keep the stack
            # in w, so the views stay valid until then.
            spare = np.empty_like(w)
            scratch = np.empty((half, m + n), dtype=np.complex128)
            cs = np.zeros((2, half, 1), dtype=np.complex128)  # c and s; imaginary parts stay 0
            bt, wp, wq, lo, hi = w[:, :m], w[:half], w[half:], spare[:half], spare[half:]
            bp, bq = bt[:half], bt[half:]
            c, s, c_real, s_real = cs[0], cs[1], cs.real[0, :, 0], cs.real[1, :, 0]
            conj = scratch.reshape(-1)[: half * m].reshape(half, m)  # conj(b_p) of a round
        rotated = np.zeros(kk, dtype=bool)
        for step in steps:
            norms2 = _squared_norms(bt)
            root = np.sqrt(norms2)
            alive = norms2 > dead_floor
            app, aqq = norms2[:half], norms2[half:]
            apq = np.einsum("ij,ij->i", np.conjugate(bp, out=conj), bq)
            gam = np.abs(apq)
            live = alive[:half] & alive[half:] & (gam > threshold * root[:half] * root[half:])
            count = np.count_nonzero(live)
            if not count:
                w.take(step, axis=0, out=spare, mode="wrap")
                np.copyto(w, spare)
                continue
            # Real rotation (c, s) after the phase diag(1, conj(apq)/|apq|);
            # together they zero b_p* b_q. Pairs that are not live get phase
            # 1 and t = 0, so c = 1 and s = 0 leave them exactly.
            idle = None if count == half else ~live
            if idle is not None:
                gam[idle] = 1.0
            phase = np.conj(apq / gam)
            zeta = (aqq - app) / (2.0 * gam)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            if idle is not None:
                phase[idle] = 1.0
                t[idle] = 0.0
            # c and s go into the real parts of cs: the complex values that
            # multiplying real c and s by the complex columns would cast them to
            np.divide(1.0, np.sqrt(1.0 + t * t), out=c_real)
            np.multiply(c_real, t, out=s_real)
            turn = cs[::-1] * phase[:, None]  # s phase and c phase
            np.multiply(c, wp, out=lo)
            np.multiply(turn[0], wq, out=scratch)
            np.subtract(lo, scratch, out=lo)
            np.multiply(s, wp, out=hi)
            np.multiply(turn[1], wq, out=scratch)
            np.add(hi, scratch, out=hi)
            if idle is None or kk == 1:
                rotated[:] = True
            else:
                moved = live.reshape(kk, h).any(axis=1)
                rotated |= moved
                if not moved.all():
                    # the identity rotation can flip the sign of a zero, so a
                    # member without a live pair keeps its rows as they were,
                    # as it would skip the round alone
                    np.copyto(
                        spare.reshape(2, kk, h, m + n),
                        w.reshape(2, kk, h, m + n),
                        where=~moved[None, :, None, None],
                    )
            spare.take(step, axis=0, out=w, mode="wrap")
        if not rotated.all():
            # Every round passed the test although the Gram product did not:
            # the two disagree only by rounding, and this sweep confirmed
            # convergence the way each round tests it.
            kk, steps, dead_floor = leave([pos for pos in range(kk) if not rotated[pos]])
            if not kk:
                break
    return done


def _member(j: int, k: int) -> str:
    """Names member j in an error message when the stack has several."""
    return f" (stack member {j})" if k > 1 else ""


def _factorization(
    w: np.ndarray, m: int, n: int, scale: float, zeroed2: float, tol: Tolerance
) -> SvdFactorization:
    """Finish one member from its rows of [B | V], columns 0..n-1 in order."""
    bt, vt = w[:, :m], w[:, m:]
    norms = np.sqrt(_squared_norms(bt))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    b = bt[order].T
    v = vt[order].T

    nonzero = norms > 0.0
    u_cols = b[:, nonzero] / norms[nonzero]
    sigma = norms / scale

    sigma_max = sigma[0] if sigma.size else 0.0
    cutoff = tol.rank_cutoff(sigma_max, m, n)
    rank = int(np.count_nonzero(sigma > cutoff))
    deflated = float(np.sqrt(zeroed2) / scale)
    return SvdFactorization(_Basis(u_cols, m), sigma, v, rank, deflated)


def lu_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for square a and a matrix of right-hand sides.

    One partial-pivoting loop swaps and eliminates the rows of a and of rhs
    together; back substitution follows. Raises PreconditionError when a is
    not square, when rhs has the wrong number of rows, or on an exactly zero
    pivot; whether a tiny pivot's X is kept is core._admitted's decision.
    """
    a = np.array(a, dtype=np.complex128, copy=True)
    x = np.array(rhs, dtype=np.complex128, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise PreconditionError("LU factorization needs a square matrix")
    if x.shape[0] != n:
        raise PreconditionError("right-hand side has the wrong number of rows")
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0:
            raise PreconditionError("matrix is singular: a pivot is exactly zero")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            x[[k, piv]] = x[[piv, k]]
        mult = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
        x[k + 1 :] -= np.outer(mult, x[k])
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def inverse(a: np.ndarray) -> np.ndarray | None:
    """A^-1 as lu_solve(a s, I) s, s = unit_scale(a): exact, so it holds at any
    scale (inf past the float range, without a warning). None when a is not
    square or a pivot is exactly zero."""
    scale = unit_scale(a)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return lu_solve(a * scale, eye(len(a))) * scale
    except PreconditionError:
        return None


def cholesky_factor(h: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a Hermitian matrix, or None on a pivot that
    is not positive (NaN included); whether a small pivot's solve is kept is
    core._admitted's decision."""
    h = np.array(h, dtype=np.complex128, copy=True)
    n = h.shape[0]
    if h.shape != (n, n):
        raise PreconditionError("cholesky needs a square matrix")
    low = np.zeros_like(h)
    for k in range(n):
        pivot = h[k, k].real - float(np.sum(np.abs(low[k, :k]) ** 2))
        if not pivot > 0.0:
            return None
        low[k, k] = np.sqrt(pivot)
        if k + 1 < n:
            rest = h[k + 1 :, k] - low[k + 1 :, :k] @ np.conj(low[k, :k])
            low[k + 1 :, k] = rest / low[k, k]
    return low


def cholesky_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L*) x = rhs given the lower factor from cholesky_factor."""
    n = low.shape[0]
    y = np.array(rhs, dtype=np.complex128, copy=True)
    for k in range(n):
        y[k] = (y[k] - low[k, :k] @ y[:k]) / low[k, k]
    up = dagger(low)
    for k in range(n - 1, -1, -1):
        y[k] = (y[k] - up[k, k + 1 :] @ y[k + 1 :]) / up[k, k]
    return y


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random unitary via modified Gram-Schmidt on a complex Gaussian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        col = g[:, j]
        for _ in range(2):
            col = col - q[:, :j] @ (dagger(q[:, :j]) @ col)
        q[:, j] = col / np.sqrt(np.sum(np.abs(col) ** 2))
    return q


def hermitian_eigenvalues(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing.

    Shift-by-norm trick: h + c*I with c = ||h||_F is positive semidefinite,
    where the SVD coincides with the spectral decomposition; subtracting c
    back recovers the eigenvalues. Keeps the package eigensolver-free.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    h = (h + dagger(h)) / 2.0
    c = frobenius(h)
    if c == 0.0:
        return np.zeros(n)
    f = svd(h + c * eye(n), tol)
    return f.sigma - c
