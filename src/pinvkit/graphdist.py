"""Distance matrices of zero-sum weighted trees and odd wheel graphs.

In both families the distance matrix D is singular with a known null vector,
and the inverse of D plus a rank-one completion on it, less the matching
dyad, is the Moore-Penrose inverse. For wheels that inverse is known
entrywise through an integer vector z, checked here exactly. For zero-sum
trees D^+ = -L/2 + u tau^t + tau u^t comes from the Laplacian directly, and
the inverse of the completion is D^+ plus the dyad.

Neither family factors a matrix: the null vector bounds rank(D) by n - 1
from above; the full-rank margin of the wheel's D + a a^t, or the tree's
D L = e tau^t - 2I, bounds it from below, against the rank cutoff of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circulant import circ_materialize, circ_mul
from .core import _Checked, _inverse_margin, _returned, penrose_residuals
from .linalg import hermitian_eigenvalues
from .matrix import (
    DEFAULT_TOL,
    PreconditionError,
    Tolerance,
    VerificationError,
    frobenius,
)

__all__ = [
    "TreeMatrices",
    "WheelGraph",
    "gen_zero_sum_tree",
    "tree_build",
    "tree_pinv",
    "tree_shift_inverse",
    "tree_u_and_reconstruction",
    "wheel_build",
    "wheel_pinv",
    "wheel_properties",
    "wheel_z",
    "wheel_z_identities",
]


# --------------------------------------------------------------------------
# weighted trees


@dataclass(frozen=True)
class TreeMatrices:
    """Distance matrix and companions of a weighted tree.

    D[i, j] is the sum of edge weights along the unique i-j path. L is the
    weighted Laplacian with off-diagonal entries -1/w_ij and row sums zero.
    delta holds vertex degrees and tau = 2e - delta. Vertices are 0-based
    here; the edge triples keep their 1-based labels as given.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    D: np.ndarray
    L: np.ndarray
    delta: np.ndarray
    tau: np.ndarray

    @cached_property
    def weight_sum(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    @cached_property
    def abs_weight_sum(self) -> float:
        return float(sum(abs(w) for _, _, w in self.edges))

    @cached_property
    def dl_residual(self) -> float:
        """||D L - (e tau^t - 2I)||_F, formed once per tree."""
        identity = np.outer(np.ones(self.n), self.tau) - 2.0 * np.eye(self.n)
        return frobenius(self.D @ self.L - identity)


def _is_zero_sum(tree: TreeMatrices, tol: Tolerance) -> bool:
    return abs(tree.weight_sum) <= tol.bound(tree.abs_weight_sum)


def _require_zero_sum(tree: TreeMatrices, tol: Tolerance) -> None:
    if not _is_zero_sum(tree, tol):
        raise PreconditionError(
            f"edge weights sum to {tree.weight_sum:.6g}, not zero; "
            "the closed-form routes need a zero-sum tree"
        )


def tree_build(edges, tol: Tolerance = DEFAULT_TOL) -> TreeMatrices:
    """Build TreeMatrices from (i, j, w) triples with 1-based vertices.

    The edge list must form a spanning tree on vertices 1..n with nonzero
    weights. Weights of either sign are allowed; a zero weight sum is only
    required later, by the pseudoinverse routes.

    Two structural identities are verified on every build: L e = 0 holds by
    construction, and D L = e tau^t - 2I is checked numerically. When the
    weights sum to zero, D tau = 0 is checked as well. Each residual is held
    to tol.bound of the norms of its two factors.
    """
    triples = []
    for entry in edges:
        i, j, w = entry
        i, j, w = int(i), int(j), float(w)
        if i == j:
            raise PreconditionError(f"self-loop at vertex {i}")
        if w == 0.0 or not np.isfinite(w):
            raise PreconditionError(f"edge ({i}, {j}) has weight {w}; need nonzero finite")
        if i < 1 or j < 1:
            raise PreconditionError(f"edge ({i}, {j}) uses a non-positive vertex label")
        triples.append((i, j, w))

    vertices = sorted({i for i, _, _ in triples} | {j for _, j, _ in triples})
    n = len(vertices)
    if n < 2:
        raise PreconditionError("a tree needs at least two vertices")
    if vertices != list(range(1, n + 1)):
        raise PreconditionError(f"vertex labels must be 1..{n}, got {vertices}")
    if len(triples) != n - 1:
        raise PreconditionError(f"a tree on {n} vertices needs {n - 1} edges, got {len(triples)}")

    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    seen_pairs = set()
    for i, j, w in triples:
        pair = (min(i, j), max(i, j))
        if pair in seen_pairs:
            raise PreconditionError(f"duplicate edge between {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        adjacency[i - 1].append((j - 1, w))
        adjacency[j - 1].append((i - 1, w))

    # One BFS from vertex 0 records each vertex's parent-edge weight up[v] and
    # its ancestor-or-self row anc[v] (anc[v, u] = 1 when u lies on the path
    # from the root to v). With s = anc @ up the root path sums,
    # D = s e^t + e s^t - 2 (anc diag(up)) anc^t: the last term sums the edges
    # the two root paths share. n-1 edges plus full reachability from vertex 0
    # rule out cycles, so each vertex is settled once.
    up = np.zeros(n)
    anc = np.zeros((n, n))
    anc[0, 0] = 1.0
    order = [0]
    for at in order:  # order doubles as the BFS queue
        for nxt, w in adjacency[at]:
            if not anc[nxt, nxt]:
                up[nxt] = w
                anc[nxt] = anc[at]
                anc[nxt, nxt] = 1.0
                order.append(nxt)
    if len(order) < n:
        raise PreconditionError("edge list is disconnected")
    s = anc @ up
    d = s[:, None] + s[None, :] - 2.0 * ((anc * up) @ anc.T)
    np.fill_diagonal(d, 0.0)

    lap = np.zeros((n, n))
    for i, j, w in triples:
        lap[i - 1, j - 1] -= 1.0 / w
        lap[j - 1, i - 1] -= 1.0 / w
    np.fill_diagonal(lap, -lap.sum(axis=1))

    delta = np.array([len(adjacency[k]) for k in range(n)], dtype=float)
    tau = 2.0 - delta
    tree = TreeMatrices(n=n, edges=tuple(triples), D=d, L=lap, delta=delta, tau=tau)

    norm_d = frobenius(d)
    if tree.dl_residual > tol.bound(norm_d, frobenius(lap)):
        raise VerificationError(f"D L = e tau^t - 2I failed with residual {tree.dl_residual:.3e}")
    if _is_zero_sum(tree, tol):
        dtau = frobenius(d @ tau)
        if dtau > tol.bound(norm_d, frobenius(tau)):
            raise VerificationError(f"D tau = 0 failed with residual {dtau:.3e}")
    return tree


def gen_zero_sum_tree(seed: int, n: int) -> TreeMatrices:
    """Random tree on n >= 3 vertices whose edge weights sum to zero.

    Each vertex v >= 2 attaches to a uniformly chosen earlier vertex. The
    first n-2 weights are drawn from +-[0.5, 2]; the last weight is the
    negated sum, redrawn whenever it lands within 0.05 of zero.
    """
    if n < 3:
        raise PreconditionError("zero-sum weights need at least two edges, so n >= 3")
    rng = np.random.default_rng(seed)
    while True:
        shape = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        weights = rng.uniform(0.5, 2.0, size=n - 2) * rng.choice([-1.0, 1.0], size=n - 2)
        last = -float(weights.sum())
        if abs(last) < 0.05:
            continue
        edges = [(i, j, float(w)) for (i, j), w in zip(shape[:-1], weights)]
        edges.append((shape[-1][0], shape[-1][1], last))
        return tree_build(edges)


def _auto_alpha(tree: TreeMatrices, tol: Tolerance) -> float:
    """Shift weight for the rank-one completion D + alpha tau tau^t.

    Any nonzero alpha gives the same pseudoinverse, and none is factored:
    alpha picks only the inverse tree_shift_inverse returns. 2/(tau^t L tau),
    or 1 when tau^t L tau is within tol.bound(||L||_F, ||tau||^2) of zero.
    """
    tau = tree.tau
    quad = float(tau @ tree.L @ tau)
    if abs(quad) > tol.bound(frobenius(tree.L), float(tau @ tau)):
        return 2.0 / quad
    return 1.0


def tree_shift_inverse(
    tree: TreeMatrices, alpha: float | None = None, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Ordinary inverse of D + alpha tau tau^t for a zero-sum tree.

    This inverse is a {1,3,4}-inverse of D: with M = D + alpha tau tau^t one
    has M^-1 tau = tau/(alpha ||tau||^2), hence D M^-1 = I - tau tau^t/||tau||^2,
    which is symmetric and fixes D from either side. The shifted matrix M
    itself is not such an inverse; taking it for one confuses M with M^-1.

    No matrix is factored: D tau = 0 and D^+ tau = 0 make
    M^-1 = D^+ + tau tau^t/(alpha ||tau||^4) exactly, with D^+ = tree_pinv(tree).
    A zero or non-finite alpha, or one whose dyad overflows, is refused,
    naming alpha.
    """
    alpha = float(_auto_alpha(tree, tol) if alpha is None else alpha)
    if alpha == 0.0:
        raise PreconditionError("alpha must be nonzero")
    dpinv = tree_pinv(tree, tol)
    tau_sq = float(tree.tau @ tree.tau)
    coef = 1.0 / (alpha * tau_sq**2)
    # every |tau_i tau_j| is at most ||tau||^2
    if not (np.isfinite(alpha) and np.isfinite(coef * tau_sq)):
        raise PreconditionError(
            f"alpha = {alpha:.6g} must be finite with a finite dyad tau tau^t/(alpha ||tau||^4)"
        )
    return dpinv + coef * np.outer(tree.tau, tree.tau)


def _closed_form_u(tree: TreeMatrices) -> np.ndarray:
    """u = (L tau / s - (q / (2 s^2)) tau) / 2, s = ||tau||^2, q = tau^t L tau.

    Nothing divides by q, so the form holds at q = 0 too: D L = e tau^t - 2I
    and D tau = 0 give D u = e/2 - tau/s, hence D X = I - tau tau^t/s for
    X = -L/2 + u tau^t + tau u^t, and the q term makes X tau = 0.
    """
    tau = tree.tau
    tau_sq = float(tau @ tau)
    l_tau = tree.L @ tau
    return 0.5 * (l_tau / tau_sq - (float(tau @ l_tau) / (2.0 * tau_sq**2)) * tau)


def tree_pinv(tree: TreeMatrices, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a zero-sum tree distance matrix.

    D^+ = -L/2 + u tau^t + tau u^t with u in closed form (see
    _closed_form_u); no matrix is factored. The paper's shift-inverse form
    (D + alpha tau tau^t)^-1 - tau tau^t / (alpha ||tau||^4) gives the same
    D^+ for every nonzero alpha, so no alpha is taken.

    A normal return certifies rank(D) = n - 1 without a factorization:
    tree_build checked D tau = 0 for the zero-sum tree, and tau != 0
    (e^t tau = 2), so rank(D) <= n - 1. With r = ||D L - (e tau^t - 2I)||_F,
    D L x has norm at least (2 - r)||x|| on x orthogonal to tau, so
    sigma_{n-1}(D) >= (2 - r)/||L||_F; that margin must clear
    tol.rank_cutoff(||D||_F, n, n). The result must then pass the four
    Penrose residuals, else VerificationError names the worst.
    """
    return _returned(_tree_pinv_checked(tree, tol), "tree")


def _tree_pinv_checked(tree: TreeMatrices, tol: Tolerance) -> _Checked:
    """tree_pinv, its certified rank n - 1 and its Penrose report."""
    _require_zero_sum(tree, tol)
    margin = (2.0 - tree.dl_residual) / frobenius(tree.L)
    cutoff = tol.rank_cutoff(frobenius(tree.D), tree.n, tree.n)
    if not margin > cutoff:
        raise VerificationError(f"D L margin {margin:.3e} is below the rank cutoff {cutoff:.3e}")
    u = _closed_form_u(tree)
    dpinv = -tree.L / 2.0 + np.outer(u, tree.tau) + np.outer(tree.tau, u)
    return dpinv, tree.n - 1, penrose_residuals(tree.D, dpinv, tol)


def tree_u_and_reconstruction(
    tree: TreeMatrices, dpinv: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Recover u with D^+ = -L/2 + u tau^t + tau u^t and rebuild D^+.

    dpinv is the verified tree_pinv(tree) that the caller holds. u is
    read off it as u = (D^+ e - (e^t D^+ e / 4) tau) / 2; the minus sign is
    forced by D^+ tau = 0, which pins tau^t u to tau^t L tau/(4 ||tau||^2).
    That u must agree with the closed form

        u = (L tau / ||tau||^2 - (tau^t L tau / (2 ||tau||^4)) tau) / 2;

    a mismatch on a valid tree is reported as a verification failure rather
    than reconciled. Finally the reconstruction -L/2 + u tau^t + tau u^t is
    checked against D^+. The rank n - 1 is certified by tree_pinv, not
    recomputed.
    """
    _require_zero_sum(tree, tol)
    tau = tree.tau
    ones = np.ones(tree.n)
    dpinv_e = dpinv @ ones
    u = 0.5 * (dpinv_e - (float(ones @ dpinv_e) / 4.0) * tau)
    # u and the rebuilt D^+ inherit the forward error of D^+, cond(D) ||D^+||
    norm_d, norm_x = frobenius(tree.D), frobenius(dpinv)

    gap = frobenius(u - _closed_form_u(tree))
    if gap > tol.bound(norm_d, norm_x, frobenius(dpinv_e)):
        raise VerificationError(
            f"definition and closed-form u disagree by {gap:.3e} on a valid tree"
        )

    rebuilt = -tree.L / 2.0 + np.outer(u, tau) + np.outer(tau, u)
    gap = frobenius(rebuilt - dpinv)
    if gap > tol.bound(norm_d, norm_x, norm_x):
        raise VerificationError(f"reconstruction differs from tree_pinv by {gap:.3e}")
    return u, rebuilt


# --------------------------------------------------------------------------
# odd wheels


@dataclass(frozen=True)
class WheelGraph:
    """Distance data of the wheel on n vertices, n odd and at least 5.

    Vertex 0 is the hub, vertices 1..n-1 the rim cycle. D has hub row e^t and
    rim block circ(u) with u = (0, 1, 2, ..., 2, 1): rim distances cap at 2
    because any detour through the hub has length 2. a spans the null space
    of D, z24 holds the 24-scaled integer vector describing the inverse of
    D + a a^t, and v is the alternating rim generator with a a^t rim block
    circ(v). inv134 is that inverse, verified by wheel_build; it is a
    {1,3,4}-inverse of D.
    """

    n: int
    D: np.ndarray
    a: np.ndarray
    z24: np.ndarray
    v: np.ndarray
    inv134: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.z24 / 24.0


def _require_odd_wheel(n: int) -> None:
    if n < 5 or n % 2 == 0:
        raise PreconditionError(f"wheel size must be odd and at least 5, got {n}")


def wheel_z(n: int) -> np.ndarray:
    """24-scaled integer z vector of the odd wheel, length n-1.

    Entries follow a three-branch closed form in k with a midpoint case split
    on n mod 4, and the symmetry z24[k] = z24[n-1-k] fills the upper half.
    All branches are integer-valued on the 24 scale, so the arithmetic here
    is exact.
    """
    _require_odd_wheel(n)
    z24 = [0] * (n - 1)
    for k in range((n - 1) // 2):
        if k % 2 == 0:
            z24[k] = 2 * (-6 * (n - 1) * k * k + 6 * (n - 1) ** 2 * k - n**3 + 3 * n**2 + n + 9)
        else:
            z24[k] = 2 * (6 * (n - 1) * k * k - 6 * (n - 1) ** 2 * k + n**3 - 3 * n**2 + 5 * n - 15)
    mid = (n - 1) // 2
    if n % 4 == 1:
        z24[mid] = n**3 - 3 * n**2 + 11 * n + 15
    else:
        z24[mid] = -(n**3) + 3 * n**2 + n - 27
    for k in range(mid + 1, n - 1):
        z24[k] = z24[n - 1 - k]
    return np.array(z24, dtype=np.int64)


def wheel_z_identities(n: int, z24=None) -> dict[str, bool]:
    """Exact integer checks of the z vector identities.

    All checks run on the 24-scaled integers, so every equality is exact.
    Passing an explicit z24 lets a caller probe the checker with a perturbed
    vector; by default the vector comes from wheel_z. Keys:

      sum_zero          e^t z = 0
      parity_sum_even   sum of even-index entries equals 12(n-1)
      parity_sum_odd    sum of odd-index entries equals -12(n-1)
      symmetry          z24[k] == z24[n-1-k]
      recurrence_even   2 z24[k] + z24[k-1] + z24[k+1] = 48(n-1), even k in [2, n-3]
      recurrence_odd    same combination vanishes for odd k in [1, n-3]
      boundary_even     2*sum(even k in [2, n-3]) - z24[1] - z24[n-2] = 24(n-1)(n-2)
      boundary_odd      2*sum(odd k in [1, n-4]) - z24[0] - z24[n-3] = -24(n-1)
      core_product      circ(u + v) z24 = 24((n-1)^2 e_0 - (n-1) e), the rim
                        block row of (D + a a^t) times its inverse

    The core product uses the generator u + v because the rim block of
    D + a a^t is circ(u) + circ(v).
    """
    _require_odd_wheel(n)
    if z24 is None:
        z24 = wheel_z(n)
    z24 = [int(value) for value in np.asarray(z24)]
    m = n - 1
    if len(z24) != m:
        raise PreconditionError(f"z vector must have length {m}, got {len(z24)}")

    even_sum = sum(z24[k] for k in range(0, m, 2))
    odd_sum = sum(z24[k] for k in range(1, m, 2))
    rim = [min(k, m - k, 2) + (-1) ** k for k in range(m)]
    product = circ_mul(rim, z24).tolist()
    expected = [-24 * m] * m
    expected[0] = 24 * (m * m - m)
    report = {
        "sum_zero": sum(z24) == 0,
        "parity_sum_even": even_sum == 12 * m,
        "parity_sum_odd": odd_sum == -12 * m,
        "symmetry": all(z24[k] == z24[m - k] for k in range(1, m)),
        "recurrence_even": all(
            2 * z24[k] + z24[k - 1] + z24[k + 1] == 48 * m for k in range(2, n - 2, 2)
        ),
        "recurrence_odd": all(
            2 * z24[k] + z24[k - 1] + z24[k + 1] == 0 for k in range(1, n - 2, 2)
        ),
        "boundary_even": 2 * sum(z24[k] for k in range(2, n - 2, 2)) - z24[1] - z24[m - 1]
        == 24 * m * (n - 2),
        "boundary_odd": 2 * sum(z24[k] for k in range(1, n - 3, 2)) - z24[0] - z24[m - 2]
        == -24 * m,
        "core_product": product == expected,
    }
    return report


def wheel_build(n: int, tol: Tolerance = DEFAULT_TOL) -> WheelGraph:
    """Construct the wheel distance data and certify rank(D) = n - 1.

    The rank is proved by two checks, with no SVD:

    - D a = 0 holds exactly (all entries are small integers, so the float
      products are exact), hence rank(D) <= n - 1;
    - the closed-form inverse of M = D + a a^t,

        M^-1 = [[-2(n-1)(n-3), (n-1) e^t], [(n-1) e, circ(z)]] / (n-1)^2,

      built from the integer vector z24 = 24 z, must have the defect r of
      core.full_rank_certified within tol.bound(||M||_F, ||X||_F) and the
      margin (1 - r) / ||X||_F <= sigma_n(M) <= sigma_{n-1}(D) (a rank-one
      downdate interlaces) above the tree's cutoff rank_cutoff(||D||_F, n, n).

    The verified inverse travels in the returned WheelGraph as inv134.
    """
    _require_odd_wheel(n)
    m = n - 1
    u = np.array([min(k, m - k, 2) for k in range(m)], dtype=float)
    d = np.zeros((n, n))
    d[0, 1:] = 1.0
    d[1:, 0] = 1.0
    d[1:, 1:] = circ_materialize(u).real
    a = np.zeros(n)
    a[1:] = [(-1.0) ** (k + 1) for k in range(m)]
    v = np.array([(-1.0) ** k for k in range(m)])
    if float(np.max(np.abs(d @ a))) != 0.0:
        raise VerificationError("D a = 0 failed in exact integer arithmetic")
    z24 = wheel_z(n)
    inv134 = np.empty((n, n))
    inv134[0, 0] = -2.0 * (n - 3) / m
    inv134[0, 1:] = 1.0 / m
    inv134[1:, 0] = 1.0 / m
    inv134[1:, 1:] = circ_materialize(z24.astype(float) / 24.0).real / m**2
    completed = d + np.outer(a, a)
    residual, margin = _inverse_margin(completed, inv134)
    if not residual <= tol.bound(frobenius(completed), frobenius(inv134)):
        raise VerificationError(f"(D + a a^t) inverse check failed: residual {residual:.3e}")
    cutoff = tol.rank_cutoff(frobenius(d), n, n)
    if not margin > cutoff:
        raise VerificationError(f"wheel margin {margin:.3e} is below the rank cutoff {cutoff:.3e}")
    return WheelGraph(n=n, D=d, a=a, z24=z24, v=v, inv134=inv134)


def wheel_pinv(wheel: WheelGraph, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Closed-form Moore-Penrose inverse of the wheel.

    The wheel's inv134 = (D + a a^t)^-1, already verified by wheel_build
    (which thereby certified rank(D) = n - 1), is a {1,3,4}-inverse of D.
    Subtracting the null-space dyad yields the pseudoinverse:

        D^+ = (D + a a^t)^-1 - a a^t / (n-1)^2,

    whose rim block is circ(z - v)/(n-1)^2 since a a^t has rim block circ(v).
    D^+ must pass the Penrose residuals, else VerificationError names the worst.
    """
    return _returned(_wheel_pinv_checked(wheel, tol), "wheel")


def _wheel_pinv_checked(wheel: WheelGraph, tol: Tolerance) -> _Checked:
    """wheel_pinv's D^+, its certified rank n - 1 and its Penrose report."""
    m = wheel.n - 1
    dpinv = wheel.inv134 - np.outer(wheel.a, wheel.a) / m**2
    return dpinv, m, penrose_residuals(wheel.D, dpinv, tol)


def wheel_properties(n: int, tol: Tolerance = DEFAULT_TOL) -> dict[str, bool]:
    """Structural identities tying the wheel inverse to a Laplacian.

    With M = D + a a^t, P = I - a a^t/(n-1) the projector onto the range of
    D, w = (5-n, 1, ..., 1)/4 and S = M^-1 - (4/(n-1)) w w^t:

      eigvector          M^-1 a = a/(n-1)
      projector_product  D^+ = M^-1 P
      laplacian_kernel   (recovered L~) e = 0
      laplacian_rank     rank(L~) = n - 2
      laplacian_psd      L~ has no negative eigenvalue
      pinv_split         D^+ = -L~/2 + (4/(n-1)) w w^t
      shifted_nsd        P S P has no positive eigenvalue

    where L~ = -2 S P. Each equality, and each zero or sign of an
    eigenvalue, is decided to within tol.bound of the norms of the factors
    its two sides are built from.
    """
    wheel = wheel_build(n, tol)
    inv134, dpinv = wheel.inv134, wheel_pinv(wheel, tol)
    m = n - 1
    proj = np.eye(n) - np.outer(wheel.a, wheel.a) / m
    w = np.full(n, 0.25)
    w[0] = (5.0 - n) / 4.0
    shifted = inv134 - (4.0 / m) * np.outer(w, w)
    lap = -2.0 * shifted @ proj
    lap_eigs = hermitian_eigenvalues(lap)
    projected = proj @ shifted @ proj
    projected_eigs = hermitian_eigenvalues(projected)
    norm_inv, norm_proj = frobenius(inv134), frobenius(proj)
    # the rounding carried by lap = -2 S P, and by every identity built on it
    lap_noise = tol.bound(2.0 * frobenius(shifted), norm_proj)
    report = {
        "eigvector": frobenius(inv134 @ wheel.a - wheel.a / m)
        <= tol.bound(norm_inv, frobenius(wheel.a)),
        "projector_product": frobenius(dpinv - inv134 @ proj) <= tol.bound(norm_inv, norm_proj),
        "laplacian_kernel": frobenius(lap @ np.ones(n)) <= lap_noise * np.sqrt(n),
        "laplacian_rank": int(np.sum(np.abs(lap_eigs) > lap_noise)) == n - 2,
        "laplacian_psd": float(lap_eigs.min()) >= -lap_noise,
        "pinv_split": frobenius(dpinv - (-lap / 2.0 + (4.0 / m) * np.outer(w, w))) <= lap_noise,
        "shifted_nsd": float(projected_eigs.max()) <= lap_noise * norm_proj,
    }
    return report
