"""Pseudoinverse oracle and verification predicates.

pinv is the SVD-backed reference implementation every closed-form path in
the package is checked against. The residual reports cover the four Penrose
equations and the six equivalent characterization systems; null-space
equalities are evaluated as projector differences, since null-space bases
are not unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import SvdFactorization, cholesky_factor, cholesky_solve, random_unitary, svd
from .matrix import DEFAULT_TOL, PreconditionError, Tolerance, dagger, eye, frobenius

PENROSE_KEYS = ("penrose1", "penrose2", "penrose3", "penrose4")
CHARACTERIZATION_KEYS = ("char_i", "char_ii", "char_iii", "char_iv", "char_v", "char_vi")


@dataclass(frozen=True)
class ResidualReport:
    """Named Frobenius residuals compared against an absolute bound."""

    residuals: Mapping[str, float]
    tolerance: Tolerance = field(default=DEFAULT_TOL)

    def check(self, name: str) -> bool:
        return self.residuals[name] <= self.tolerance.residual_abs

    @property
    def passed(self) -> bool:
        return all(self.check(name) for name in self.residuals)

    def passed_subset(self, names) -> bool:
        return all(self.check(name) for name in names)

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.__getitem__)
        return name, self.residuals[name]


def pinv(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> np.ndarray:
    """Moore-Penrose inverse via the in-repo SVD.

    Only singular values above the rank cutoff are inverted, so rank-deficient
    and zero matrices need no special-casing. A caller that already holds
    svd(a, tol) passes it as factorization.
    """
    f = factorization if factorization is not None else svd(a, tol)
    ur, vr = f.cutoff_slices
    if f.rank == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    return (vr / f.sigma[: f.rank]) @ dagger(ur)


def projectors(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projectors (P_range, P_null_adjoint, P_range_adjoint, P_null).

    P_range + P_null_adjoint = I on the codomain and
    P_range_adjoint + P_null = I on the domain.
    """
    m, n = a.shape
    f = factorization if factorization is not None else svd(a, tol)
    ur, vr = f.cutoff_slices
    p_range = ur @ dagger(ur)
    p_range_adj = vr @ dagger(vr)
    return p_range, eye(m) - p_range, p_range_adj, eye(n) - p_range_adj


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
        tol,
    )


def is_134_inverse(a: np.ndarray, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when x satisfies Penrose equations 1, 3 and 4 for a."""
    return penrose_residuals(a, x, tol).passed_subset(("penrose1", "penrose3", "penrose4"))


def characterization_residuals(
    a: np.ndarray,
    x: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    factorization: SvdFactorization | None = None,
) -> ResidualReport:
    """Residuals of the six equivalent characterization systems.

    Each entry is the max Frobenius residual over that system's equations:
      (i)   AX = P_R(A)            and N(X*) = N(A)
      (ii)  AX = P_R(A), XA = P_R(A*), XAX = X
      (iii) XAA* = A*              and XX*A* = X
      (iv)  XA P_R(A*) = P_R(A*)   and X P_N(A*) = 0
      (v)   XA = P_R(A*)           and N(X) = N(A*)
      (vi)  AX = P_R(A)            and XA = P_R(X)

    factorization, if given, is svd(a, tol) and saves recomputing it.
    """
    _check_shapes(a, x)
    p_range_a, p_null_a_adj, p_range_a_adj, p_null_a = projectors(a, tol, factorization)
    p_range_x, p_null_x_adj, _, p_null_x = projectors(x, tol)
    ax = a @ x
    xa = x @ a
    a_adj = dagger(a)

    r_ax = frobenius(ax - p_range_a)
    r_xa = frobenius(xa - p_range_a_adj)
    systems = {
        "char_i": max(r_ax, frobenius(p_null_x_adj - p_null_a)),
        "char_ii": max(r_ax, r_xa, frobenius(xa @ x - x)),
        "char_iii": max(
            frobenius(x @ a @ a_adj - a_adj), frobenius(x @ dagger(x) @ a_adj - x)
        ),
        "char_iv": max(
            frobenius(xa @ p_range_a_adj - p_range_a_adj), frobenius(x @ p_null_a_adj)
        ),
        "char_v": max(r_xa, frobenius(p_null_x - p_null_a_adj)),
        "char_vi": max(r_ax, frobenius(xa - p_range_x)),
    }
    return ResidualReport(systems, tol)


def pinv_normal_equations(
    a: np.ndarray, tol: Tolerance = DEFAULT_TOL, factorization: SvdFactorization | None = None
) -> np.ndarray:
    """Pseudoinverse through the Gram matrices.

    Full column rank: (A*A)^-1 A* by a Cholesky solve. Full row rank:
    A* (AA*)^-1. Otherwise the general form (A*A)^+ A*, where
    (A*A)^+ = V_r Sigma_r^-2 V_r* comes from the same factorization,
    svd(a, tol), computed here when the caller has none.
    """
    m, n = a.shape
    f = factorization if factorization is not None else svd(a, tol)
    a_adj = dagger(a)
    if f.rank == n:
        low = cholesky_factor(a_adj @ a)
        if low is not None:
            return cholesky_solve(low, a_adj)
    if f.rank == m:
        low = cholesky_factor(a @ a_adj)
        if low is not None:
            return dagger(cholesky_solve(low, a))
    if f.rank == 0:
        return np.zeros((n, m), dtype=np.complex128)
    _, vr = f.cutoff_slices
    return (vr / f.sigma[: f.rank] ** 2) @ (dagger(vr) @ a_adj)


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
    "gen_random_matrix",
    "is_134_inverse",
    "penrose_residuals",
    "pinv",
    "pinv_normal_equations",
    "projectors",
    "random_unitary",
    "svd",
]
