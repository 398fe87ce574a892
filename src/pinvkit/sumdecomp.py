"""Pseudoinverses of orthogonal sums and completed matrices.

A family {A_k} whose members have mutually orthogonal ranges and co-ranges
(certified by check_orthogonality) satisfies (sum A_k)^+ = sum A_k^+, and the
sum's pseudoinverse is a {1,3,4}-inverse of every member. The same geometry
yields single-equation characterizations through Gram sums, rank-completion
inversion by null-space dyads, the pair-completion solves, and the
Fill-Fishkind projector formula for rank-additive pairs. The Gram-sum and
pair routes take block k0 of one stacked Gram solve, core._gram_block_checked,
and every route returns X only once its Penrose check passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _admitted, _Checked, _cut_pinv, _gram_block_checked, _gram_pinv, _pinv_checked, _returned,
    bound_ratio, penrose_residuals, pinv, projectors,
)
from .linalg import (
    SvdFactorization,
    inverse,
    random_unitary,
    svd,
    svd_batch,
    unit_scale,
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
    with the largest product against that bound and worst_ratio that ratio,
    which reads the same at any scale (None and -1.0 for K = 1).
    """

    pairwise_left: float
    pairwise_right: float
    holds: bool
    worst_pair: tuple[int, int] | None
    worst_ratio: float


def check_orthogonality(
    fam: OperatorFamily, tol: Tolerance = DEFAULT_TOL
) -> OrthogonalityCertificate:
    """Certify R(A_k) <= N(A_k'*) and R(A_k*) <= N(A_k') for all k != k'.

    Both inclusions are tested in the equivalent product form
    A_k'* A_k = 0 and A_k' A_k* = 0. Each member is first scaled by its own
    unit_scale, which is exact: the test is homogeneous in each member, so
    its verdict holds at any scale, and no product can underflow to a
    vacuous zero or overflow. The product norms are reported in the
    members' own units, inf where that overflows.
    """
    scales = [unit_scale(m) for m in fam.members]
    members = [m * s for m, s in zip(fam.members, scales)]
    norms = [frobenius(m) for m in members]
    left = right = 0.0
    worst: tuple[int, int] | None = None
    worst_ratio = -1.0
    for kp, a_kp in enumerate(members):
        for k, a_k in enumerate(members):
            if k == kp:
                continue
            lhs = frobenius(dagger(a_kp) @ a_k)
            rhs = frobenius(a_kp @ dagger(a_k))
            ratio = bound_ratio(max(lhs, rhs), tol.bound(norms[kp], norms[k]))
            if ratio > worst_ratio:
                worst, worst_ratio = (kp, k), ratio
            left = max(left, lhs / scales[kp] / scales[k])
            right = max(right, rhs / scales[kp] / scales[k])
    return OrthogonalityCertificate(left, right, worst_ratio <= 1.0, worst, worst_ratio)


def _require_certificate(fam: OperatorFamily, tol: Tolerance) -> None:
    cert = check_orthogonality(fam, tol)
    if not cert.holds:
        kp, k = cert.worst_pair
        left, right = (
            f"{v:.3e}" if np.isfinite(v) else "non-finite"
            for v in (cert.pairwise_left, cert.pairwise_right)
        )
        raise PreconditionError(
            f"family members {kp} and {k} are not orthogonal (left {left}, right {right}, "
            f"{cert.worst_ratio:.3e} times the bound)"
        )


def pinv_sum(
    fam: OperatorFamily, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pseudoinverse of sum A_k as the sum of member pseudoinverses.

    Requires the orthogonality certificate; refuses with the offending pair
    otherwise. The members are factored together, by one svd_batch call with
    deflate=True, and each is cut at tol.rank_cutoff(max_k sigma_1(A_k), m,
    n): under the certificate the sum's sigma_1 is the largest member's, so
    that is the sum's rank rule, and a member far below the others drops out
    as its singular values drop out of the sum's. Returns (sum of pinvs,
    per-member pinvs) once penrose_residuals on the summed matrix passes;
    else raises VerificationError.
    """
    checked, terms = _pinv_sum_checked(fam, tol)
    return _returned(checked, "orthogonal-sum"), terms


def _pinv_sum_checked(fam: OperatorFamily, tol: Tolerance) -> tuple[_Checked, list[np.ndarray]]:
    """pinv_sum's X with the sum's rank and its Penrose report, and the terms."""
    _require_certificate(fam, tol)
    factors = svd_batch(fam.members, tol, deflate=True)
    cutoff = tol.rank_cutoff(max(float(f.sigma[0]) for f in factors), *fam.shape)
    ranks = [int(np.count_nonzero(f.sigma > cutoff)) for f in factors]
    terms = [_cut_pinv(f, rank) for f, rank in zip(factors, ranks)]
    x = np.sum(terms, axis=0)
    return (x, sum(ranks), penrose_residuals(fam.total(), x, tol)), terms


def pinv_via_gram_equation(
    fam: OperatorFamily, k0: int, side: str = "left", tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Member pseudoinverse from a single Gram-sum equation.

    side="left" evaluates (sum A_k* A_k)^+ A_k0*, side="right" A_k0* (sum
    A_k A_k*)^+: block k0 of S^+ for S = [A_1; ...; A_K] or [A_1 ... A_K],
    whose Gram matrix is that sum: core._gram_block_checked, one Gram solve
    of S. When core._admitted refuses its block as A_k0^+, X is pinv(A_k0).
    X that fails its Penrose check raises VerificationError.
    """
    _require_certificate(fam, tol)
    if not 0 <= k0 < len(fam):
        raise PreconditionError(f"k0 must index a member, got {k0}")
    if side not in ("left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    return _returned(_gram_block_checked(fam.members, k0, side == "left", None, tol), "gram-sum")


def pinv_invertible_projector_eq(
    fam: OperatorFamily, k0: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Member pseudoinverse by solving (sum A_k) X = P onto N(deflated sum*).

    Requires a square family sum, invertible at tol; X = (sum A_k)^+ P from
    its one SVD. The dual X (sum A_k) = P_N(deflated sum) is a checked
    residual, and X is returned once penrose_residuals(A_k0, X) passes; X
    that fails either check raises VerificationError.
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
    f_rest = svd(rest, tol, deflate=True)
    _, p_null_rest_adj, _, p_null_rest = projectors(rest, tol, f_rest)
    x = pinv(total, tol, f) @ p_null_rest_adj
    # x carries the solve's forward error, cond(total) ||x||
    dual = frobenius(x @ total - p_null_rest)
    bound = tol.bound(f.sigma[0] / f.sigma[-1], frobenius(x), frobenius(total))
    if dual > bound:
        raise VerificationError(f"dual projector equation residual {dual:.3e} exceeds {bound:.3e}")
    # the family's ranks add up to n, so A_k0 has the rank the rest leaves
    checked = (x, n - f_rest.rank, penrose_residuals(fam.members[k0], x, tol))
    return _returned(checked, "projector-equation")


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


def _full_rank_kernel(a: np.ndarray) -> np.ndarray | None:
    """linalg.inverse(a), or core._gram_pinv on a's long side; None on breakdown."""
    m, n = a.shape
    return inverse(a) if m == n else _gram_pinv(a, m > n)


def rank_completion_pinv(
    a: np.ndarray, comp: CompletionData | None = None, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Pseudoinverse by completing the null spaces with weighted dyads.

    With M = A + sum_k d_k g_k f_k*, the identity A^+ = M^+ - sum_k (1/d_k)
    f_k g_k* holds for any orthonormal null-space subsets and nonzero
    weights. The input picks the form of M^+:

      square, full completion  one LU inverse of M, by linalg.inverse
      m > n, full completion   core._gram_pinv: (M*M) X = M*, where
                               M*M = A*A + sum |d_k|^2 f_k f_k*
      m < n, full completion   the mirrored solve
      partial completion       SVD pseudoinverse of M

    Each kernel scales M itself, so the route holds at any scale. When
    core._admitted refuses X, with g_basis as the filled columns, the route
    returns pinv(A) from A's factorization, as on a kernel breakdown.

    A is factored once, by svd(a, tol, deflate=True), or not at all when,
    given no comp, the kernel's X for A itself is kept. X that fails its
    Penrose check raises VerificationError.
    """
    return _returned(_rank_completion_checked(a, comp, tol), "rank-completion")


def _rank_completion_checked(a: np.ndarray, comp, tol: Tolerance) -> _Checked:
    """rank_completion_pinv with its rank and its Penrose report."""
    a = as_matrix(a)
    if comp is None:
        x = _full_rank_kernel(a)
        report = _admitted(a, x, tol, (a, x))
        if report is not None:
            return x, min(a.shape), report
    fa = svd(a, tol, deflate=True)
    if comp is None and fa.rank == min(a.shape):  # its full completion is the X just refused
        return _pinv_checked(a, tol, fa)
    comp = comp if comp is not None else auto_completion(a, tol, fa)
    _validate_completion(a, comp, tol)
    f, g, d = comp.f_basis, comp.g_basis, comp.d
    dyads_back = (f / d) @ dagger(g)  # sum_k (1/d_k) f_k g_k*
    completed = a + (g * d) @ dagger(f)
    partial = comp.count < min(a.shape) - fa.rank
    inv = pinv(completed, tol) if partial else _full_rank_kernel(completed)
    x = None if inv is None else inv - dyads_back
    report = _admitted(a, x, tol, None if partial else (completed, inv), g)
    return (x, fa.rank, report) if report is not None else _pinv_checked(a, tol, fa)


def completion_pinv_pair(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse of A from a single completing partner B.

    The geometry of B picks the form, by one Gram solve (core._gram_pinv):

      R(B*) = N(A): (A*A + B*B)^-1 A*, the first m columns of [A; B]^+
      else R(B) = N(A*): A* (AA* + BB*)^-1, the first n rows of [A B]^+

    Neither subtracts B^+, so X cannot cancel. The square form (A + B)^-1 -
    B^+ holds for inputs that meet the first condition; it is
    rank_completion_pinv(a, CompletionData(V_B, U_B, sigma_B)). When
    core._admitted refuses X, the route returns pinv(A) from A's
    factorization, not from the SVD of the stack, which cuts at the larger
    of A and B. The range tests A B* and A* B, homogeneous in A and in B
    apart, run on each times its own unit_scale, so no product over- or
    underflows into a vacuous verdict. A and B are factored once, together,
    by svd_batch((a, b), tol, deflate=True), once their shapes agree. X that
    fails its Penrose check raises VerificationError.
    """
    return _returned(_pair_checked(a, b, tol), "pair-completion")


def _pair_checked(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> _Checked:
    """completion_pinv_pair with its rank and its Penrose report."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise PreconditionError("A and B must have the same shape")
    m, n = a.shape
    a_unit, b_unit = a * unit_scale(a), b * unit_scale(b)
    # rounding, plus the singular values below A's rank cutoff that A B* keeps
    unit_a = frobenius(a_unit)
    bound = (tol.bound(unit_a) + tol.rank_cutoff(unit_a, m, n)) * frobenius(b_unit)
    fa, fb = svd_batch((a, b), tol, deflate=True)
    fills_null_a = frobenius(a_unit @ dagger(b_unit)) <= bound and fb.rank == n - fa.rank
    fills_null_astar = frobenius(dagger(a_unit) @ b_unit) <= bound and fb.rank == m - fa.rank
    if not (fills_null_a or fills_null_astar):
        raise PreconditionError(
            "B completes neither null space of A: need R(B*) = N(A) or R(B) = N(A*); "
            f"rank(B) = {fb.rank}, dim N(A) = {n - fa.rank}, dim N(A*) = {m - fa.rank}"
        )
    return _gram_block_checked((a, b), 0, fills_null_a, fa.rank, tol, fa)


def _core_pinvs(cores: tuple[np.ndarray, np.ndarray], n: int, tol: Tolerance) -> list[np.ndarray]:
    """The pseudoinverses of the cores V2* N1 and M1* U2, which rank additivity
    makes full rank r2: by _gram_pinv if core._admitted keeps both at the
    n x n cutoff, else both from one svd_batch call, which takes V2* N1
    (r2 x (n - r1)) through its adjoint, as svd would. V core N*, with
    orthonormal V and N, has the core's singular values, so each core keeps
    rank_cutoff(sigma_max, n, n), at most its own rank. Empty cores (r2 = 0)
    give empty zeros."""
    if not cores[0].size:
        return [np.zeros(core.shape[::-1], dtype=np.complex128) for core in cores]
    xs = [_gram_pinv(core, core.shape[0] >= core.shape[1]) for core in cores]
    if all(_admitted(core, x, tol, (core, x), shape=(n, n)) for core, x in zip(cores, xs)):
        return xs
    factors = svd_batch(cores, tol, deflate=True)
    cutoffs = [tol.rank_cutoff(np.max(f.sigma, initial=0.0), n, n) for f in factors]
    return [_cut_pinv(f, int(np.count_nonzero(f.sigma > c))) for f, c in zip(factors, cutoffs)]


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
    Rank additivity makes both cores full rank, so each is inverted by one
    Cholesky solve on its Gram matrix, kept under core._admitted's rule; only
    when it refuses a core are both cores factored, by one svd_batch call.
    X is returned once penrose_residuals on A1 + A2 passes; else
    VerificationError is raised.
    """
    return _returned(_fill_fishkind_checked(a1, a2, tol), "fill-fishkind")


def _fill_fishkind_checked(a1: np.ndarray, a2: np.ndarray, tol: Tolerance) -> _Checked:
    """fill_fishkind_pinv with rank(A1 + A2) and the Penrose report on A1 + A2."""
    a1 = as_matrix(a1)
    a2 = as_matrix(a2)
    if a1.shape != a2.shape or a1.shape[0] != a1.shape[1]:
        raise PreconditionError("Fill-Fishkind needs same-shape square matrices")
    n = a1.shape[0]

    def cutoff(f: SvdFactorization) -> float:
        return tol.rank_cutoff(f.sigma[0], n, n)

    total = a1 + a2
    factors = svd_batch((a1, a2, total), tol, deflate=True)
    # A sigma within deflated of the cutoff could sit on either side of it;
    # below cutoff / 4 such a sigma still lands in the tie band checked next.
    if any(cutoff(f) > 0 and f.deflated >= cutoff(f) / 4.0 for f in factors):
        factors = svd_batch((a1, a2, total), tol)
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
    left_pinv, right_pinv = _core_pinvs((dagger(v2) @ null1, dagger(conull1) @ u2), n, tol)
    left = null1 @ left_pinv @ dagger(v2)
    right = u2 @ right_pinv @ dagger(conull1)
    x1 = pinv(a1, tol, f1)
    x2 = pinv(a2, tol, f2)
    x = (eye(n) - left) @ x1 @ (eye(n) - right) + left @ x2 @ right
    return x, fs.rank, penrose_residuals(total, x, tol)


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
