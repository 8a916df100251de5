"""Isotropic elasticity tensors, the reduced plate tensor, and the thin-film strain scaling.

Everything in this module is a pure function of small dense matrices
(n <= 3), so no sparsity or caching is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class LameParams:
    """Lame coefficients of an isotropic material in spatial dimension n."""

    lam: float
    mu: float
    n: int = 2

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")


def validate_lame(p: LameParams) -> bool:
    """True iff lam and mu are finite and the elasticity tensor C is
    positive definite on symmetric matrices."""
    return (math.isfinite(p.lam) and math.isfinite(p.mu)
            and p.mu > 0.0 and 2.0 * p.mu + p.n * p.lam > 0.0)


def _check_rho(rho: float) -> None:
    """Raise ValueError unless 0 < rho < inf (a nan rho fails too)."""
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")


def _check_sym(E: np.ndarray, dim: int) -> np.ndarray:
    E = np.asarray(E, dtype=float)
    if E.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {E.shape}")
    if not (E == E.T).all():
        raise ValueError("matrix is not exactly symmetric")
    return E


def apply_C(p: LameParams, E: np.ndarray) -> np.ndarray:
    """C E = lam * tr(E) * I + 2 mu * E."""
    E = _check_sym(E, p.n)
    return p.lam * np.trace(E) * np.eye(p.n) + 2.0 * p.mu * E


def quadratic_form_C(p: LameParams, E: np.ndarray) -> float:
    """C E . E = lam * tr(E)^2 + 2 mu * |E|^2."""
    E = _check_sym(E, p.n)
    tr = E.trace()
    return p.lam * (tr * tr) + 2.0 * p.mu * float((E * E).sum())


def quadratic_form_C0(p: LameParams, E: np.ndarray) -> float:
    """Reduced tensor form: C0 E . E = 2 lam mu / (lam + 2 mu) tr(E)^2 + 2 mu |E|^2.

    E is an (n-1) x (n-1) symmetric matrix (in-plane strain).
    """
    E = _check_sym(E, p.n - 1)
    coeff = 2.0 * p.lam * p.mu / (p.lam + 2.0 * p.mu)
    tr = E.trace()
    return coeff * (tr * tr) + 2.0 * p.mu * float((E * E).sum())


def form_matrix(dim: int, f) -> np.ndarray:
    """Matrix Q of a quadratic form f on dim x dim matrices, by polarization.

    f takes any dim x dim matrix (symmetrize inside f to apply a form on
    symmetric matrices); Q is in flattened coordinates, f(D) = vec(D).Q vec(D).
    """
    k = dim * dim
    basis = [np.zeros((dim, dim)) for _ in range(k)]
    for i in range(k):
        basis[i].flat[i] = 1.0
    Q = np.empty((k, k))
    fs = [f(B) for B in basis]
    for a in range(k):
        for b in range(a, k):
            fab = f(basis[a] + basis[b])
            Q[a, b] = Q[b, a] = 0.5 * (fab - fs[a] - fs[b])
    return Q


def _embed(E: np.ndarray, xi: np.ndarray, n: int) -> np.ndarray:
    """Full n x n symmetric matrix with in-plane block E and last row/column xi."""
    M = np.zeros((n, n))
    M[: n - 1, : n - 1] = E
    M[-1, : n - 1] = xi[: n - 1]
    M[: n - 1, -1] = xi[: n - 1]
    M[-1, -1] = xi[-1]
    return M


@lru_cache(maxsize=2)
def _transverse_basis(n: int) -> np.ndarray:
    """Read-only basis matrices _embed(0, e_i, n) of the transverse entries, shape (n, n, n)."""
    B = np.array([_embed(np.zeros((n - 1, n - 1)), e, n) for e in np.eye(n)])
    B.flags.writeable = False
    return B


def reduced_min_oracle(p: LameParams, E: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize C E_xi . E_xi over the transverse entries xi in R^n.

    The objective is a strictly convex quadratic in xi (C is positive
    definite), so the minimizer solves the stationarity linear system
    exactly.  Returns (minimum value, minimizing xi).
    """
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    n = p.n
    E = _check_sym(E, n - 1)

    # f(xi) = C M.M for M = M0 + sum_i xi_i B_i, with M0 = _embed(E, 0) and
    # B_i the transverse basis matrices, is the quadratic c + b.xi + xi.A xi
    # with A_ij = C B_i . B_j and b_i = 2 C B_i . M0 (C is symmetric).
    B = _transverse_basis(n)
    CB = np.array([apply_C(p, Bi) for Bi in B])
    A = np.einsum("ikl,jkl->ij", CB, B)
    b = 2.0 * np.einsum("ikl,kl->i", CB, _embed(E, np.zeros(n), n))
    try:
        xi_star = np.linalg.solve(2.0 * A, -b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular stationarity system: invalid Lame parameters") from exc
    return quadratic_form_C(p, _embed(E, xi_star, n)), xi_star


def phi_rho(rho: float, nu: np.ndarray) -> float:
    """Anisotropic surface weight |(nu_1, ..., nu_{n-1}, nu_n / rho)|."""
    _check_rho(rho)
    nu = np.asarray(nu, dtype=float)
    w = nu.copy()
    w[-1] /= rho
    return float(np.linalg.norm(w))


def rescale_strain(E: np.ndarray, rho: float) -> np.ndarray:
    """Map the strain of the rescaled field to e^rho.

    In-plane entries unchanged, (alpha, n) entries divided by rho and the
    (n, n) entry by rho^2.  E is one n x n matrix or a (..., n, n) stack.
    """
    _check_rho(rho)
    E = np.asarray(E, dtype=float)
    out = E.copy()
    out[..., :-1, -1] /= rho
    out[..., -1, :-1] /= rho
    out[..., -1, -1] /= rho ** 2
    return out

