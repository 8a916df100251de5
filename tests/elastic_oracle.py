"""Reference elasticity forms for the tests, built from their definitions.

`reduced_min_oracle` computes the reduced tensor C0 by its definition, the
minimum of C over the transverse strains, to check the closed form
`quadratic_form_C0`.  `exact_form` builds the form matrix of a bulk
density by polarization in exact rational arithmetic, to check the closed
form `energy._form` and to serve as an independent Q.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from platelab.elasticity import LameParams, _check_sym, quadratic_form_C, validate_lame


def apply_C(p: LameParams, E: np.ndarray) -> np.ndarray:
    """C E = lam * tr(E) * I + 2 mu * E."""
    E = _check_sym(E, p.n)
    return p.lam * np.trace(E) * np.eye(p.n) + 2.0 * p.mu * E


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


def exact_form(p: LameParams, rho: float | None = None) -> list:
    """The Fraction matrix Q of `energy._form(p, rho)`, by exact polarization.

    The density is lam' tr(e)^2 + 2 mu |e|^2 of e = sym(D) with its
    (alpha, n) entries divided by rho and its (n, n) entry by rho^2, on
    n x n matrices D; for rho None, C0's lam' = 2 lam mu / (lam + 2 mu) on
    (n-1) x (n-1) matrices with no scaling.  Every float is taken exactly.
    """
    lam, mu = Fraction(p.lam), Fraction(p.mu)
    if rho is None:
        dim, s = p.n - 1, [Fraction(1)] * (p.n - 1)
        lam = 2 * lam * mu / (lam + 2 * mu)
    else:
        dim, s = p.n, [Fraction(1)] * (p.n - 1) + [1 / Fraction(rho)]
    k = dim * dim

    def f(v):
        e = [[(v[i * dim + j] + v[j * dim + i]) / 2 * s[i] * s[j] for j in range(dim)]
             for i in range(dim)]
        tr = sum(e[i][i] for i in range(dim))
        return lam * tr * tr + 2 * mu * sum(x * x for row in e for x in row)

    basis = [[Fraction(int(a == b)) for b in range(k)] for a in range(k)]
    fs = [f(v) for v in basis]
    Q = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            both = [x + y for x, y in zip(basis[a], basis[b])]
            Q[a][b] = Q[b][a] = (f(both) - fs[a] - fs[b]) / 2
    return Q
