"""Isotropic elasticity tensors, the reduced plate tensor, and the thin-film strain scaling.

Everything in this module is a pure function of small dense matrices
(n <= 3), so no sparsity or caching is attempted.  The reduced tensor C0 is
written in closed form, through `_reduced_lam`; the tests check it against
the minimization over the transverse strains that defines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_dim(n) -> None:
    """Raise ValueError unless n is the integer 2 or 3."""
    if not isinstance(n, (int, np.integer)) or n not in (2, 3):
        raise ValueError(f"spatial dimension must be the integer 2 or 3, got {n!r}")


@dataclass(frozen=True)
class LameParams:
    """Lame coefficients of an isotropic material in spatial dimension n."""

    lam: float
    mu: float
    n: int = 2

    def __post_init__(self):
        _check_dim(self.n)


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


def quadratic_form_C(p: LameParams, E: np.ndarray) -> float:
    """C E . E = lam * tr(E)^2 + 2 mu * |E|^2."""
    E = _check_sym(E, p.n)
    tr = E.trace()
    return p.lam * (tr * tr) + 2.0 * p.mu * float((E * E).sum())


def _reduced_lam(p: LameParams) -> float:
    """The lam of the reduced tensor C0, 2 lam mu / (lam + 2 mu); its mu is mu."""
    return 2.0 * p.lam * p.mu / (p.lam + 2.0 * p.mu)


def quadratic_form_C0(p: LameParams, E: np.ndarray) -> float:
    """Reduced tensor form: C0 E . E = 2 lam mu / (lam + 2 mu) tr(E)^2 + 2 mu |E|^2.

    E is an (n-1) x (n-1) symmetric matrix (in-plane strain).
    """
    E = _check_sym(E, p.n - 1)
    tr = E.trace()
    return _reduced_lam(p) * (tr * tr) + 2.0 * p.mu * float((E * E).sum())


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

