"""Pseudoinverse oracle and verification predicates.

pinv is the SVD-backed reference implementation every closed-form path in
the package is checked against. The residual reports cover the four Penrose
equations and the six equivalent characterization systems; null-space
equalities are evaluated as projector differences, since null-space bases
are not unique. full_rank_certified proves full rank from an approximate
inverse X of A; _admitted decides whether a route keeps a fast kernel's X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import SvdFactorization, cholesky_factor, cholesky_solve, random_unitary, svd, unit_scale
from .matrix import (
    DEFAULT_TOL, UNIT_ROUNDOFF, PreconditionError, Tolerance, VerificationError, _in_float_range,
    dagger, eye, frobenius,
)

PENROSE_KEYS = ("penrose1", "penrose2", "penrose3", "penrose4")
CHARACTERIZATION_KEYS = ("char_i", "char_ii", "char_iii", "char_iv", "char_v", "char_vi")
_Checked = tuple[np.ndarray, int, "ResidualReport"]  # a checked form's X, rank and Penrose report


@dataclass(frozen=True)
class ResidualReport:
    """Named Frobenius residuals, each held to its own bound."""

    residuals: Mapping[str, float]
    bounds: Mapping[str, float]

    def check(self, name: str) -> bool:
        return self.residuals[name] <= self.bounds[name]

    @property
    def passed(self) -> bool:
        return all(self.check(name) for name in self.residuals)

    def passed_subset(self, names) -> bool:
        return all(self.check(name) for name in names)

    @property
    def worst(self) -> tuple[str, float]:
        """The key with the largest residual/bound ratio, and its residual."""
        name = max(self.residuals, key=lambda k: bound_ratio(self.residuals[k], self.bounds[k]))
        return name, self.residuals[name]


def bound_ratio(residual: float, bound: float) -> float:
    """residual / bound; a zero bound admits only zero, and NaN or inf ranks first."""
    ratio = residual / bound if bound > 0 and math.isfinite(residual) else math.inf
    return 0.0 if residual == 0 else ratio


def penrose_bounds(norm_a: float, norm_x: float, shape, tol: Tolerance) -> dict[str, float]:
    """Bounds of the four Penrose residuals of a candidate X for an m x n A.

    Each is tau times the norms its equation is built from (Higham 2002),
    with k = ||A||_F ||X||_F: k ||A|| for AXA - A, k ||X|| for XAX - X, and
    k for the symmetry of AX and XA. AXA - A also keeps the singular values
    of A that the rank rule drops, at most rho ||A||_F in norm with
    rho = sqrt(min(m, n)) tol.rank_cutoff(1, m, n), so the check never
    rejects the rank the rule chose. The equations are symmetric in A and
    X, and XAX - X likewise keeps rho ||X||_F: what a route leaves of the
    dropped part of A in X lies below X's own rank cutoff. Every singular
    value a pseudoinverse inverts exceeds tol.rank_cutoff, so a true A^+ has
    k <= min(m, n) / (rank_rel max(m, n)); a larger candidate gets bound 0
    on every equation, so inflating X cannot loosen the check.
    """
    m, n = shape
    k = norm_a * norm_x
    if k > min(m, n) / (tol.rank_rel * max(m, n)):
        return dict.fromkeys(PENROSE_KEYS, 0.0)
    rho = math.sqrt(min(m, n)) * tol.rank_cutoff(1.0, m, n)
    bounds = (
        tol.bound(k, norm_a) + rho * norm_a,
        tol.bound(k, norm_x) + rho * norm_x,
        tol.bound(k),
        tol.bound(k),
    )
    return dict(zip(PENROSE_KEYS, bounds))


def pinv(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> np.ndarray:
    """Moore-Penrose inverse via the in-repo SVD.

    Only singular values above the rank cutoff are inverted, so rank-deficient
    and zero matrices need no special-casing; A^+ past the float range is refused.
    A caller that already holds svd(a, tol, deflate=True) passes it as factorization.
    """
    f = factorization if factorization is not None else svd(a, tol, deflate=True)
    ur, vr = f.cutoff_slices
    if f.rank == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return _in_float_range((vr / f.sigma[: f.rank]) @ dagger(ur))


def _pinv_checked(a: np.ndarray, tol: Tolerance, f: SvdFactorization | None = None) -> _Checked:
    """pinv, its rank and its Penrose report, also where _admitted refuses an X."""
    f = f if f is not None else svd(a, tol, deflate=True)
    x = pinv(a, tol, f)
    return x, f.rank, penrose_residuals(a, x, tol)


def _returned(checked: _Checked, what: str) -> np.ndarray:
    """The X of a checked form once its Penrose report passes; else raise, naming the worst."""
    x, _, report = checked
    if not report.passed:
        name, value = report.worst
        raise VerificationError(f"{what} pseudoinverse failed {name} with residual {value:.3e}")
    return x


def projectors(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projectors (P_range, P_null_adjoint, P_range_adjoint, P_null).

    P_range + P_null_adjoint = I on the codomain and
    P_range_adjoint + P_null = I on the domain.
    """
    m, n = a.shape
    f = factorization if factorization is not None else svd(a, tol, deflate=True)
    ur, vr = f.cutoff_slices
    p_range = ur @ dagger(ur)
    p_range_adj = vr @ dagger(vr)
    return p_range, eye(m) - p_range, p_range_adj, eye(n) - p_range_adj


def full_rank_certified(a: np.ndarray, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x, an approximate inverse of the m x n a, proves that the SVD
    rule gives a rank k = min(m, n). With P = XA (m >= n) or AX, and gamma =
    N u / (1 - N u), N = max(m, n), the rounding bound of the product,
    r = ||P - I_k||_F + gamma ||X||_F ||A||_F < 1 gives sigma_k(A) >= (1 - r) /
    ||X||_F, which must clear tol.rank_cutoff(||A||_F, m, n): at least the
    SVD's cutoff, as ||A||_F >= sigma_1. A NaN fails the test."""
    return _inverse_margin(a, x)[1] > tol.rank_cutoff(frobenius(a), *a.shape)


def _inverse_margin(a: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(r, margin) of full_rank_certified; the margin (1 - r) / ||X||_F is 0 unless r < 1."""
    m, n = a.shape
    gamma = max(m, n) * UNIT_ROUNDOFF / (1.0 - max(m, n) * UNIT_ROUNDOFF)
    norm_x = frobenius(x)
    r = frobenius((x @ a if m >= n else a @ x) - eye(min(m, n))) + gamma * norm_x * frobenius(a)
    return r, (1.0 - r) / norm_x if r < 1.0 else 0.0


def inverse_certified(a: np.ndarray, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when square a and x certify each other's full rank: all their projectors are I or 0."""
    square = a.shape[0] == a.shape[1]
    return square and full_rank_certified(a, x, tol) and full_rank_certified(x, a, tol)


def penrose_residuals(a: np.ndarray, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> ResidualReport:
    """Residuals of the four Penrose equations for the candidate inverse x."""
    _check_shapes(a, x)
    ax = a @ x
    xa = x @ a
    return ResidualReport(
        {
            "penrose1": frobenius(ax @ a - a),
            "penrose2": frobenius(xa @ x - x),
            "penrose3": frobenius(dagger(ax) - ax),
            "penrose4": frobenius(dagger(xa) - xa),
        },
        penrose_bounds(frobenius(a), frobenius(x), a.shape, tol),
    )


def is_134_inverse(a: np.ndarray, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x satisfies Penrose equations 1, 3 and 4 for a."""
    return penrose_residuals(a, x, tol).passed_subset(("penrose1", "penrose3", "penrose4"))


def characterization_residuals(
    a: np.ndarray,
    x: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    factorization: SvdFactorization | None = None,
    x_factorization: SvdFactorization | None = None,
) -> ResidualReport:
    """Residuals of the six equivalent characterization systems.

    Each equation is held to the penrose_bounds entry of its scale: k for
    the products AX, XA and the projector differences, the AXA - A entry
    for XAA*, and the XAX - X entry for XAX, XX*A* and X P_N(A*). A system's entry is its equation
    with the largest residual/bound ratio:
      (i)   AX = P_R(A)            and N(X*) = N(A)
      (ii)  AX = P_R(A), XA = P_R(A*), XAX = X
      (iii) XAA* = A*              and XX*A* = X
      (iv)  XA P_R(A*) = P_R(A*)   and X P_N(A*) = 0
      (v)   XA = P_R(A*)           and N(X) = N(A*)
      (vi)  AX = P_R(A)            and XA = P_R(X)

    factorization and x_factorization, if given, are svd(a, tol, deflate=True)
    and svd(x, tol, deflate=True) and save recomputing them. Without the
    first, an X that passes inverse_certified needs no factorization.
    """
    _check_shapes(a, x)
    if factorization is None and inverse_certified(a, x, tol):
        proj_a = proj_x = (eye(len(a)), 0 * eye(len(a))) * 2
    else:
        proj_a, proj_x = projectors(a, tol, factorization), projectors(x, tol, x_factorization)
    p_range_a, p_null_a_adj, p_range_a_adj, p_null_a = proj_a
    p_range_x, p_null_x_adj, _, p_null_x = proj_x
    ax = a @ x
    xa = x @ a
    a_adj = dagger(a)
    by_ka, by_kx, by_k, _ = penrose_bounds(frobenius(a), frobenius(x), a.shape, tol).values()

    ax_eq = (frobenius(ax - p_range_a), by_k)
    xa_eq = (frobenius(xa - p_range_a_adj), by_k)
    systems = {
        "char_i": [ax_eq, (frobenius(p_null_x_adj - p_null_a), by_k)],
        "char_ii": [ax_eq, xa_eq, (frobenius(xa @ x - x), by_kx)],
        "char_iii": [
            (frobenius(x @ a @ a_adj - a_adj), by_ka),
            # X (X* A*): X X* alone leaves the float range at extreme scales
            (frobenius(x @ (dagger(x) @ a_adj) - x), by_kx),
        ],
        "char_iv": [
            (frobenius(xa @ p_range_a_adj - p_range_a_adj), by_k),
            (frobenius(x @ p_null_a_adj), by_kx),
        ],
        "char_v": [xa_eq, (frobenius(p_null_x - p_null_a_adj), by_k)],
        "char_vi": [ax_eq, (frobenius(xa - p_range_x), by_k)],
    }
    worst = [max(eqs, key=lambda eq: bound_ratio(*eq)) for eqs in systems.values()]
    residuals, bounds = zip(*worst)
    return ResidualReport(dict(zip(systems, residuals)), dict(zip(systems, bounds)))


def _admitted(
    a: np.ndarray, x: np.ndarray | None, tol: Tolerance, inverted=None, filled=None, shape=None
) -> ResidualReport | None:
    """The passing Penrose report of x, an LU or Gram kernel's X for a, or None:
    the one rule that keeps such an X. x (None on a breakdown) must be finite;
    (1) inverted = (M, Y), the matrix inverted and its inverse, must show an
    _inverse_margin above rank_cutoff(||M||_F, *shape), shape defaulting to M's;
    (2) x must map filled, the N(A*) columns a rank completion's dyads filled,
    to zero within tol.bound(||X||_F, ||G||_F), as A^+ does: a cancelling X
    passes every Penrose bound once ||A||_F ||X - A^+||_F > 1/tau; (3) x must pass
    penrose_residuals(a, x, tol), the report returned."""
    if x is None or not np.isfinite(x).all():
        return None
    if inverted is not None:
        mat, y = inverted
        if not _inverse_margin(mat, y)[1] > tol.rank_cutoff(frobenius(mat), *(shape or mat.shape)):
            return None
    if filled is not None and not frobenius(x @ filled) <= tol.bound(frobenius(x), frobenius(filled)):
        return None
    report = penrose_residuals(a, x, tol)
    return report if report.passed else None


def _gram_pinv(a: np.ndarray, left: bool) -> np.ndarray | None:
    """(A*A)^-1 A* (left) or A* (AA*)^-1 by Cholesky on unit_scale(a) a; None on breakdown."""
    scale = unit_scale(a)
    b = dagger(a * scale) if left else a * scale
    with np.errstate(over="ignore", invalid="ignore"):
        low = cholesky_factor(b @ dagger(b))
        x = None if low is None else cholesky_solve(low, b)
        return None if x is None else (x if left else dagger(x)) * scale


def pinv_normal_equations(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pseudoinverse through the Gram matrices.

    Full column rank: (A*A)^-1 A* by a Cholesky solve. Full row rank:
    A* (AA*)^-1. Each runs on A scaled by unit_scale, so A*A stays in range.
    The solve loses cond(A)^2 u, so _admitted decides whether its X is kept.
    Else, and below full rank, where (A*A)^+ A* = V_r Sigma_r^-1 U_r*, X is
    pinv(A) from svd(a, tol, deflate=True), computed only after the Gram
    form is refused. X that fails its Penrose check raises VerificationError.
    """
    return _returned(_normal_checked(a, tol), "normal-equations")


def _normal_checked(a: np.ndarray, tol: Tolerance) -> _Checked:
    """pinv_normal_equations with its rank and its Penrose report."""
    m, n = a.shape
    x = _gram_pinv(a, m >= n)
    report = _admitted(a, x, tol, (a, x))
    return (x, min(m, n), report) if report is not None else _pinv_checked(a, tol)


def gen_random_matrix(
    seed: int, rows: int, cols: int, rank: int | None = None
) -> np.ndarray:
    """Seeded complex test matrix, optionally with forced rank deficiency."""
    if rows < 1 or cols < 1:
        raise PreconditionError(f"need rows and cols >= 1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if not 0 <= rank <= min(rows, cols):
        raise PreconditionError("rank must lie in [0, min(rows, cols)]")
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right


def _check_shapes(a: np.ndarray, x: np.ndarray) -> None:
    if x.shape != (a.shape[1], a.shape[0]):
        raise PreconditionError(
            f"candidate inverse must be {a.shape[1]}x{a.shape[0]}, got {x.shape[0]}x{x.shape[1]}"
        )


__all__ = [
    "CHARACTERIZATION_KEYS",
    "PENROSE_KEYS",
    "ResidualReport",
    "characterization_residuals",
    "full_rank_certified",
    "gen_random_matrix",
    "is_134_inverse",
    "penrose_residuals",
    "pinv",
    "pinv_normal_equations",
    "projectors",
    "random_unitary",
    "svd",
]
