"""Pseudoinverses of orthogonal sums and completed matrices.

A family {A_k} whose members have mutually orthogonal ranges and co-ranges
(certified by check_orthogonality) satisfies (sum A_k)^+ = sum A_k^+, and the
sum's pseudoinverse is a {1,3,4}-inverse of every member. The same geometry
yields single-equation characterizations through Gram sums, rank-completion
inversion by null-space dyads, the pair-completion solves, and the
Fill-Fishkind projector formula for rank-additive pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import _gram_pinv, bound_ratio, full_rank_certified, pinv, projectors
from .linalg import (
    SvdFactorization,
    cholesky_factor,
    cholesky_solve,
    inverse,
    random_unitary,
    svd,
    svd_batch,
)
from .matrix import (
    DEFAULT_TOL,
    PreconditionError,
    Tolerance,
    VerificationError,
    as_matrix,
    dagger,
    eye,
    frobenius,
)


@dataclass(frozen=True)
class OperatorFamily:
    """An ordered family of same-shape complex matrices, K >= 1."""

    members: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 1:
            raise PreconditionError("family needs at least one member")
        validated = tuple(as_matrix(m) for m in self.members)
        shape = validated[0].shape
        if any(m.shape != shape for m in validated):
            raise PreconditionError("family members must share one shape")
        object.__setattr__(self, "members", validated)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def shape(self) -> tuple[int, int]:
        return self.members[0].shape

    def total(self) -> np.ndarray:
        return np.sum(self.members, axis=0)

    def deflated(self, k0: int) -> np.ndarray:
        """Sum of all members except the k0-th (zero matrix when K = 1)."""
        rest = [m for k, m in enumerate(self.members) if k != k0]
        return np.sum(rest, axis=0) if rest else np.zeros(self.shape, dtype=np.complex128)


@dataclass(frozen=True)
class OrthogonalityCertificate:
    """Pairwise product norms certifying mutually orthogonal ranges.

    holds is true when every pair's products are within
    tol.bound(||A_k'||_F, ||A_k||_F); worst_pair is the (k', k) index pair
    with the largest product against that bound (None for K = 1).
    """

    pairwise_left: float
    pairwise_right: float
    holds: bool
    worst_pair: tuple[int, int] | None


def check_orthogonality(
    fam: OperatorFamily, tol: Tolerance = DEFAULT_TOL
) -> OrthogonalityCertificate:
    """Certify R(A_k) <= N(A_k'*) and R(A_k*) <= N(A_k') for all k != k'.

    Both inclusions are tested in the equivalent product form
    A_k'* A_k = 0 and A_k' A_k* = 0.
    """
    norms = [frobenius(m) for m in fam.members]
    left = right = 0.0
    worst: tuple[int, int] | None = None
    worst_ratio = -1.0
    for kp, a_kp in enumerate(fam.members):
        for k, a_k in enumerate(fam.members):
            if k == kp:
                continue
            lhs = frobenius(dagger(a_kp) @ a_k)
            rhs = frobenius(a_kp @ dagger(a_k))
            ratio = bound_ratio(max(lhs, rhs), tol.bound(norms[kp], norms[k]))
            if ratio > worst_ratio:
                worst, worst_ratio = (kp, k), ratio
            left = max(left, lhs)
            right = max(right, rhs)
    return OrthogonalityCertificate(left, right, worst_ratio <= 1.0, worst)


def _require_certificate(fam: OperatorFamily, tol: Tolerance) -> None:
    cert = check_orthogonality(fam, tol)
    if not cert.holds:
        kp, k = cert.worst_pair
        raise PreconditionError(
            f"family members {kp} and {k} are not orthogonal "
            f"(left {cert.pairwise_left:.3e}, right {cert.pairwise_right:.3e})"
        )


def pinv_sum(
    fam: OperatorFamily, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pseudoinverse of sum A_k as the sum of member pseudoinverses.

    Requires the orthogonality certificate; refuses with the offending pair
    otherwise. Returns (sum of pinvs, per-member pinvs).
    """
    _require_certificate(fam, tol)
    terms = [pinv(m, tol) for m in fam.members]
    return np.sum(terms, axis=0), terms


def pinv_via_gram_equation(
    fam: OperatorFamily, k0: int, side: str = "left", tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Member pseudoinverse from a single Gram-sum equation.

    side="left" evaluates (sum A_k* A_k)^+ A_k0*; when the Gram sum is
    numerically positive definite this is one Hermitian solve of
    (sum A_k* A_k) X = A_k0* (the injective-family case). side="right"
    uses A_k0* (sum A_k A_k*)^+ dually.
    """
    _require_certificate(fam, tol)
    if not 0 <= k0 < len(fam):
        raise PreconditionError(f"k0 must index a member, got {k0}")
    a_k0 = fam.members[k0]
    if side == "left":
        gram = np.sum([dagger(m) @ m for m in fam.members], axis=0)
        low = cholesky_factor(gram)
        if low is not None:
            return cholesky_solve(low, dagger(a_k0))
        return pinv(gram, tol) @ dagger(a_k0)
    if side == "right":
        gram = np.sum([m @ dagger(m) for m in fam.members], axis=0)
        low = cholesky_factor(gram)
        if low is not None:
            return dagger(cholesky_solve(low, a_k0))
        return dagger(a_k0) @ pinv(gram, tol)
    raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")


def pinv_invertible_projector_eq(
    fam: OperatorFamily, k0: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Member pseudoinverse by solving (sum A_k) X = P onto N(deflated sum*).

    Requires a square family sum, invertible at tol; X = (sum A_k)^+ P from
    its one SVD. The dual X (sum A_k) = P_N(deflated sum) is a checked residual.
    """
    _require_certificate(fam, tol)
    if not 0 <= k0 < len(fam):
        raise PreconditionError(f"k0 must index a member, got {k0}")
    total = fam.total()
    m, n = total.shape
    if m != n:
        raise PreconditionError("family sum must be square")
    f = svd(total, tol)
    if f.rank != n:
        raise PreconditionError("family sum is not invertible at tolerance")
    rest = fam.deflated(k0)
    _, p_null_rest_adj, _, p_null_rest = projectors(rest, tol)
    x = pinv(total, tol, f) @ p_null_rest_adj
    # x carries the solve's forward error, cond(total) ||x||
    dual = frobenius(x @ total - p_null_rest)
    bound = tol.bound(f.sigma[0] / f.sigma[-1], frobenius(x), frobenius(total))
    if dual > bound:
        raise VerificationError(f"dual projector equation residual {dual:.3e} exceeds {bound:.3e}")
    return x


@dataclass(frozen=True)
class CompletionData:
    """Orthonormal null-space bases and nonzero weights for rank completion.

    f_basis columns lie in N(A), g_basis columns in N(A*), one weight per
    column pair. Zero columns are allowed (p = 0) for already-full-rank
    matrices.
    """

    f_basis: np.ndarray
    g_basis: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.f_basis, dtype=np.complex128)
        g = np.asarray(self.g_basis, dtype=np.complex128)
        d = np.asarray(self.d, dtype=np.complex128).ravel()
        if f.ndim != 2 or g.ndim != 2 or f.shape[1] != g.shape[1] or d.size != f.shape[1]:
            raise PreconditionError("completion bases and weights must have matching counts")
        object.__setattr__(self, "f_basis", f)
        object.__setattr__(self, "g_basis", g)
        object.__setattr__(self, "d", d)

    @property
    def count(self) -> int:
        return self.f_basis.shape[1]


def _validate_completion(a: np.ndarray, comp: CompletionData, tol: Tolerance) -> None:
    p = comp.count
    if p == 0:
        return
    f, g, d = comp.f_basis, comp.g_basis, comp.d
    m, n = a.shape
    if f.shape[0] != n or g.shape[0] != m:
        raise PreconditionError("completion basis dimensions do not match the matrix")
    # ||f||_F^2 = p for an orthonormal basis, and likewise for g
    if frobenius(dagger(f) @ f - eye(p)) > tol.bound(p):
        raise PreconditionError("f_basis is not orthonormal")
    if frobenius(dagger(g) @ g - eye(p)) > tol.bound(p):
        raise PreconditionError("g_basis is not orthonormal")
    # rounding, plus the singular values below the rank cutoff that A f keeps
    norm_a = frobenius(a)
    bound = (tol.bound(norm_a) + tol.rank_cutoff(norm_a, m, n)) * np.sqrt(p)
    if frobenius(a @ f) > bound:
        raise PreconditionError("f_basis does not lie in the null space of A")
    if frobenius(dagger(a) @ g) > bound:
        raise PreconditionError("g_basis does not lie in the null space of A*")
    if np.any(np.abs(d) == 0.0):
        raise PreconditionError("completion weights must be nonzero")


def auto_completion(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> CompletionData:
    """Full null-space completion from the SVD, weights d_k = sigma_1.

    The scale-matched weight keeps the completed matrix's conditioning close
    to that of A itself. factorization, if given, is svd(a, tol, deflate=True).
    """
    m, n = a.shape
    f = factorization if factorization is not None else svd(a, tol, deflate=True)
    q = min(m, n)
    p = q - f.rank
    weight = f.sigma[0] if f.rank > 0 else 1.0
    return CompletionData(
        f_basis=f.v[:, f.rank : q],
        g_basis=f.u[:, f.rank : q],
        d=np.full(p, weight, dtype=np.complex128),
    )


def _completion_pinv(a: np.ndarray, comp: CompletionData, full: bool, tol: Tolerance) -> np.ndarray:
    """M^+ - sum_k (1/d_k) f_k g_k*, in the form rank_completion_pinv lists; a
    non-square full completion is one _gram_pinv(M), on M scaled by unit_scale."""
    m, n = a.shape
    f, g, d = comp.f_basis, comp.g_basis, comp.d
    dyads_back = (f / d) @ dagger(g)  # sum_k (1/d_k) f_k g_k*
    completed = a + (g * d) @ dagger(f)

    if not full:
        return pinv(completed, tol) - dyads_back
    if m == n:
        return inverse(completed) - dyads_back
    x = _gram_pinv(completed, m > n)
    if x is None:
        raise PreconditionError("completed Gram matrix is not positive definite")
    return x - dyads_back


def full_rank_completion_pinv(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """The full completion with no dyads (one LU inverse, or the Gram solve) if
    full_rank_certified proves rank min(m, n), else None, with no SVD; given
    svd(a, tol, deflate=True), rank_completion_pinv returns the same X."""
    a = as_matrix(a)
    no_dyads = CompletionData(np.zeros((a.shape[1], 0)), np.zeros((a.shape[0], 0)), np.zeros(0))
    try:
        x = _completion_pinv(a, no_dyads, True, tol)
    except PreconditionError:
        return None
    return x if full_rank_certified(a, x, tol) else None


def rank_completion_pinv(
    a: np.ndarray,
    comp: CompletionData | None = None,
    tol: Tolerance = DEFAULT_TOL,
    factorization: SvdFactorization | None = None,
) -> np.ndarray:
    """Pseudoinverse by completing the null spaces with weighted dyads.

    With M = A + sum_k d_k g_k f_k*, the identity A^+ = M^+ - sum_k (1/d_k)
    f_k g_k* holds for any orthonormal null-space subsets and nonzero
    weights. The input picks the form of M^+:

      square, full completion  one LU inverse of M
      m > n, full completion   Hermitian solve of (M*M) X = M* on M scaled
                               by unit_scale, M*M = A*A + sum |d_k|^2 f_k f_k*
      m < n, full completion   the mirrored solve
      partial completion       SVD pseudoinverse of M

    A is factored once, for the rank and the default completion;
    factorization, if given, is svd(a, tol, deflate=True) and saves that too.
    full_rank_completion_pinv gives the full-rank form without factoring A.
    """
    a = as_matrix(a)
    m, n = a.shape
    fa = factorization if factorization is not None else svd(a, tol, deflate=True)
    if comp is None:
        comp = auto_completion(a, tol, fa)
    _validate_completion(a, comp, tol)
    return _completion_pinv(a, comp, comp.count == min(m, n) - fa.rank, tol)


def completion_pinv_pair(
    a: np.ndarray,
    b: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    factorization: SvdFactorization | None = None,
    b_factorization: SvdFactorization | None = None,
) -> np.ndarray:
    """Pseudoinverse of A from a single completing partner B.

    The geometry of B picks the form:

      square, R(B*) = N(A) and R(B) <= N(A*) (or mirrored):
                     A^+ = (A+B)^-1 - B^+, checked against both projector
                     equations (A+B) X = P_N(B*) and X (A+B) = P_N(B); their
                     residuals are A B^+ and B^+ A, which keep the singular
                     values of A that the rank rule drops, so the bound
                     allows rho ||A||_F ||B^+||_F as penrose_bounds does
      else R(B*) = N(A): solve (A*A + B*B) X = A*
      else R(B) = N(A*): solve X (AA* + BB*) = A*

    A and B are each factored once; factorization and b_factorization, if
    given, are svd(a, tol, deflate=True) and svd(b, tol, deflate=True), as
    svd_batch((a, b), tol, deflate=True) gives them.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise PreconditionError("A and B must have the same shape")
    m, n = a.shape
    # rounding, plus the singular values below A's rank cutoff that A B* keeps
    norm_a = frobenius(a)
    bound = (tol.bound(norm_a) + tol.rank_cutoff(norm_a, m, n)) * frobenius(b)
    fa = factorization if factorization is not None else svd(a, tol, deflate=True)
    fb = b_factorization if b_factorization is not None else svd(b, tol, deflate=True)
    range_bstar_in_null_a = frobenius(a @ dagger(b)) <= bound
    range_b_in_null_astar = frobenius(dagger(a) @ b) <= bound
    fills_null_a = range_bstar_in_null_a and fb.rank == n - fa.rank
    fills_null_astar = range_b_in_null_astar and fb.rank == m - fa.rank

    if m == n and (
        (fills_null_a and range_b_in_null_astar) or (fills_null_astar and range_bstar_in_null_a)
    ):
        total = a + b
        inv = inverse(total)
        b_pinv = pinv(b, tol, fb)
        x = inv - b_pinv
        _, p_null_b_adj, _, p_null_b = projectors(b, tol, fb)
        rho = np.sqrt(n) * tol.rank_cutoff(1.0, n, n)
        bound = tol.bound(frobenius(total), frobenius(inv)) + rho * norm_a * frobenius(b_pinv)
        left = frobenius(total @ x - p_null_b_adj)
        right = frobenius(x @ total - p_null_b)
        if max(left, right) > bound:
            raise VerificationError(
                f"projector equation residuals left {left:.3e} / right {right:.3e} "
                f"exceed {bound:.3e}"
            )
        return x
    if fills_null_a:
        low = cholesky_factor(dagger(a) @ a + dagger(b) @ b)
        if low is None:
            raise PreconditionError("A*A + B*B is not positive definite at tolerance")
        return cholesky_solve(low, dagger(a))
    if fills_null_astar:
        low = cholesky_factor(a @ dagger(a) + b @ dagger(b))
        if low is None:
            raise PreconditionError("AA* + BB* is not positive definite at tolerance")
        return dagger(cholesky_solve(low, a))
    raise PreconditionError(
        "B completes neither null space of A: need R(B*) = N(A) or R(B) = N(A*); "
        f"rank(B) = {fb.rank}, dim N(A) = {n - fa.rank}, dim N(A*) = {m - fa.rank}"
    )


def _core_pinv(core: np.ndarray, f: SvdFactorization, n: int, tol: Tolerance) -> np.ndarray:
    """core^+ from f = svd(core, tol, deflate=True), for the n x n product
    V core N* with orthonormal V and N: both have the same singular values,
    so the core keeps rank_cutoff(sigma_max, n, n)."""
    cutoff = tol.rank_cutoff(np.max(f.sigma, initial=0.0), n, n)
    return pinv(core, tol, replace(f, rank=int(np.count_nonzero(f.sigma > cutoff))))


def fill_fishkind_pinv(
    a1: np.ndarray, a2: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Pseudoinverse of A1 + A2 for a rank-additive square pair.

    Requires rank(A1 + A2) = rank(A1) + rank(A2). Singular values within a
    factor of 4 of the rank cutoff make the numerical rank ambiguous; such
    ties are rejected rather than guessed. The three matrices are factored
    together, by one svd_batch call with deflate=True; if any of them zeroed
    a mass of cutoff / 4 or more, which could carry a singular value past
    the tie band, all three are factored again by the accurate kernel.

    L = (P_R(A2*) P_N(A1))^+ = N1 (V2* N1)^+ V2* and R = (P_N(A1*) P_R(A2))^+
    = U2 (M1* U2)^+ M1*, from the null-space columns N1, M1 of svd(A1) and the
    range columns U2, V2 of svd(A2), so each core has rank(A2) rows or columns.
    The cores are factored together too: V2* N1 is r2 x (n - r1) and M1* U2 is
    (n - r1) x r2, so the first goes in as its adjoint, as svd would factor
    it, unless r1 + r2 = n makes both square.
    """
    a1 = as_matrix(a1)
    a2 = as_matrix(a2)
    if a1.shape != a2.shape or a1.shape[0] != a1.shape[1]:
        raise PreconditionError("Fill-Fishkind needs same-shape square matrices")
    n = a1.shape[0]

    def cutoff(f: SvdFactorization) -> float:
        return tol.rank_cutoff(f.sigma[0], n, n)

    factors = svd_batch((a1, a2, a1 + a2), tol, deflate=True)
    # A sigma within deflated of the cutoff could sit on either side of it;
    # below cutoff / 4 such a sigma still lands in the tie band checked next.
    if any(cutoff(f) > 0 and f.deflated >= cutoff(f) / 4.0 for f in factors):
        factors = svd_batch((a1, a2, a1 + a2), tol)
    f1, f2, fs = factors
    for f in factors:
        c = cutoff(f)
        if c > 0 and np.any((f.sigma > c / 4.0) & (f.sigma <= c * 4.0)):
            raise PreconditionError(
                "a singular value ties with the rank cutoff; rank additivity undecidable"
            )
    if fs.rank != f1.rank + f2.rank:
        raise PreconditionError(
            f"rank additivity fails: rank(A1+A2) = {fs.rank}, "
            f"rank(A1) + rank(A2) = {f1.rank} + {f2.rank}"
        )
    u2, v2 = f2.cutoff_slices
    null1, conull1 = f1.v[:, f1.rank :], f1.u[:, f1.rank :]
    left_core, right_core = dagger(v2) @ null1, dagger(conull1) @ u2
    if left_core.shape[0] < left_core.shape[1]:
        f_left_adj, f_right = svd_batch((dagger(left_core), right_core), tol, deflate=True)
        f_left = f_left_adj.adjoint()
    else:
        f_left, f_right = svd_batch((left_core, right_core), tol, deflate=True)
    left = null1 @ _core_pinv(left_core, f_left, n, tol) @ dagger(v2)
    right = u2 @ _core_pinv(right_core, f_right, n, tol) @ dagger(conull1)
    x1 = pinv(a1, tol, f1)
    x2 = pinv(a2, tol, f2)
    return (eye(n) - left) @ x1 @ (eye(n) - right) + left @ x2 @ right


def gen_svd_block_family(
    seed: int, rows: int, cols: int, k: int, ranks=None
) -> OperatorFamily:
    """Seeded family sharing one singular-vector frame with disjoint blocks.

    Each member is V E_k W* where E_k carries positive diagonal values on its
    own index block; disjoint blocks make the orthogonality certificate hold
    by construction.
    """
    if ranks is None:
        ranks = (1,) * k
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != k or any(r < 1 for r in ranks):
        raise PreconditionError("ranks must list one positive rank per member")
    if sum(ranks) > min(rows, cols):
        raise PreconditionError(
            f"rank budget exceeded: sum(ranks) = {sum(ranks)} > min(rows, cols) = {min(rows, cols)}"
        )
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, rows)
    w = random_unitary(rng, cols)
    members = []
    offset = 0
    for r in ranks:
        values = rng.uniform(0.5, 2.0, size=r)
        members.append((v[:, offset : offset + r] * values) @ dagger(w[:, offset : offset + r]))
        offset += r
    return OperatorFamily(tuple(members))


def gen_shared_subspace_triple(
    seed: int, rows: int, cols: int, rank: int
) -> OperatorFamily:
    """Triple (M, M, -M) on one shared singular frame.

    The coefficients (1, 1, -1) make the sum's pseudoinverse equal the sum of
    member pseudoinverses even though all ranges coincide, so the
    orthogonality certificate fails: the certificate is sufficient, not
    necessary.
    """
    if not 1 <= rank <= min(rows, cols):
        raise PreconditionError("rank must lie in [1, min(rows, cols)]")
    rng = np.random.default_rng(seed)
    v = random_unitary(rng, rows)
    w = random_unitary(rng, cols)
    values = rng.uniform(0.5, 2.0, size=rank)
    base = (v[:, :rank] * values) @ dagger(w[:, :rank])
    return OperatorFamily((base, base, -base))


def gen_rank_additive_pair(
    seed: int, n: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random square pair with rank(A1 + A2) = rank(A1) + rank(A2).

    Rejection-sampled: random low-rank factor products are rank-additive for
    almost every draw, so the loop terminates immediately in practice.
    """
    if n < 2:
        raise PreconditionError(f"a rank-additive pair needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        r1 = int(rng.integers(1, n))
        r2 = int(rng.integers(1, n - r1 + 1))

        def low_rank(r):
            g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            return g @ h

        a1, a2 = low_rank(r1), low_rank(r2)
        f_sum, f1, f2 = svd_batch((a1 + a2, a1, a2), tol)
        if f_sum.rank == f1.rank + f2.rank:
            return a1, a2
    raise PreconditionError("could not sample a rank-additive pair")
