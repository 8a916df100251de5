"""Bulk + surface energies: physical, rescaled, limit, and penalized variants.

Bulk terms use midpoint quadrature with the per-cell forward-difference
strains of :mod:`.kirchhoff_love`; surface terms are sums of broken-face
areas, weighted by the anisotropic factor phi_rho in the rescaled energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elasticity import (LameParams, form_matrix, phi_rho, quadratic_form_C,
                         quadratic_form_C0, validate_lame)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, cell_derivative,
                             cell_strains, kl_lift)


@dataclass
class EnergyBreakdown:
    bulk: float
    surface: float
    boundary_penalty: float = 0.0

    @property
    def total(self) -> float:
        return self.bulk + self.surface + self.boundary_penalty

    def row(self, rho=None) -> dict:
        return {"rho": rho, "bulk": self.bulk, "surface": self.surface,
                "penalty": self.boundary_penalty, "total": self.total}


@lru_cache(maxsize=8)
def _form(dim: int, form, p: LameParams) -> np.ndarray:
    """Read-only Q of form(p, .) on symmetric dim x dim matrices.

    Cached because the crack search evaluates the energy once per candidate
    with the same (dim, form, p).
    """
    Q = form_matrix(dim, lambda D: form(p, 0.5 * (D + D.T)))
    Q.flags.writeable = False
    return Q


def _bulk_sum(p: LameParams, strains: np.ndarray, form, cell_volume: float) -> float:
    dim = strains.shape[-1]
    flat = strains.reshape(-1, dim * dim)
    Q = _form(dim, form, p)
    vals = np.einsum("ki,ij,kj->k", flat, Q, flat)
    return 0.5 * cell_volume * float(np.sum(vals))


def _surface_area(u: PlateField, weight=None) -> float:
    total = 0.0
    for a in range(u.grid.n):
        cnt = np.count_nonzero(u.broken[a])
        if cnt == 0:
            continue
        w = 1.0 if weight is None else weight(a)
        total += cnt * u.broken_face_area(a) * w
    return total


def griffith_energy(u: PlateField, p: LameParams) -> EnergyBreakdown:
    """(1/2) int C e(u).e(u) over uncut cells + area of broken faces."""
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    E = cell_strains(u, scheme="forward")
    bulk = _bulk_sum(p, E, quadratic_form_C, u.grid.cell_volume)
    return EnergyBreakdown(bulk, _surface_area(u))


def rescaled_strains(v: PlateField, rho: float) -> np.ndarray:
    """Per-cell strains of v with the thin-film scaling applied."""
    E = cell_strains(v, scheme="forward")
    n = v.grid.n
    E = E.copy()
    E[..., : n - 1, n - 1] /= rho
    E[..., n - 1, : n - 1] /= rho
    E[..., n - 1, n - 1] /= rho ** 2
    return E


def rescaled_energy(v: PlateField, p: LameParams, rho: float) -> EnergyBreakdown:
    """E_rho: (1/2) int C e^rho(v).e^rho(v) + int_{J_v} phi_rho(nu)."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    E = rescaled_strains(v, rho)
    bulk = _bulk_sum(p, E, quadratic_form_C, v.grid.cell_volume)
    n = v.grid.n

    def weight(axis):
        nu = np.zeros(n)
        nu[axis] = 1.0
        return phi_rho(rho, nu)

    return EnergyBreakdown(bulk, _surface_area(v, weight))


def rescale_plate_field(u: PlateField, rho: float) -> PlateField:
    """Map a field on the thin grid (z extent ~ rho) to the unit-thickness grid."""
    g = u.grid
    zlo, zhi = g.z_extent
    g1 = PlateGrid(g.n, g.plan_shape, g.layers, g.omega_lo, g.omega_hi,
                   (zlo / rho, zhi / rho))
    vals = u.values.copy()
    vals[..., g.n - 1] *= rho
    return PlateField(g1, vals, [b.copy() for b in u.broken])


def change_of_variables_check(u: PlateField, p: LameParams, rho: float) -> float:
    """Relative gap |F_rho(u) - rho * E_rho(v)| / F_rho(u), v the rescaled field."""
    F = griffith_energy(u, p)
    v = rescale_plate_field(u, rho)
    E = rescaled_energy(v, p, rho)
    if F.total == 0.0:
        return abs(rho * E.total)
    return abs(F.total - rho * E.total) / F.total


def limit_state_strains(s: KLState):
    """Membrane strain ebar(ubar) and bending Hessian of un, per plan cell.

    ebar by break-aware forward differences; the Hessian by centered second
    differences with one-sided fallback at crack columns and boundaries.
    """
    m = s.n - 1
    h = s.plan_h
    D = np.zeros(tuple(s.plan_shape) + (m, m))
    for c in range(m):
        for a in range(m):
            D[..., c, a] = cell_derivative(s.ubar[..., c], a, float(h[a]),
                                           s.crack_cols[a], "forward")
    ebar = 0.5 * (D + np.swapaxes(D, -1, -2))
    hess = np.zeros(tuple(s.plan_shape) + (m, m))
    for a in range(m):
        for b in range(m):
            hess[..., a, b] = cell_derivative(s.grad_un[..., a], b, float(h[b]),
                                              s.crack_cols[b], "central")
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    return ebar, hess


def limit_energy(s: KLState, p: LameParams, layers: int | None = None) -> EnergyBreakdown:
    """E_0: (1/2) int C_0 (ebar - x_n Hess un) + measure of crack_cols x thickness.

    The thickness integral is done analytically by default (cross term
    vanishes, int x_n^2 = 1/12); pass `layers` to use midpoint quadrature
    over that many layers instead.
    """
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    ebar, hess = limit_state_strains(s)
    area = float(np.prod(s.plan_h))
    if layers is None:
        bulk = (_bulk_sum(p, ebar, quadratic_form_C0, area)
                + _bulk_sum(p, hess, quadratic_form_C0, area) / 12.0)
    else:
        hz = 1.0 / layers
        z = -0.5 + hz * (np.arange(layers) + 0.5)
        bulk = 0.0
        for zk in z:
            E = ebar - zk * hess
            bulk += _bulk_sum(p, E, quadratic_form_C0, area * hz)
    surface = s.crack_measure() * 1.0  # times unit thickness
    return EnergyBreakdown(bulk, surface)


@dataclass
class BoundaryDatum:
    """A plate boundary datum with reduced structure: callables on omega points."""

    ubar: callable  # (k, n-1) -> (k, n-1)
    un: callable  # (k, n-1) -> (k,)
    grad_un: callable  # (k, n-1) -> (k, n-1)
    n: int = 2

    def lift(self, Xp: np.ndarray, z) -> np.ndarray:
        """Full displacement (ubar - z grad_un, un) at plan points Xp, height z."""
        Xp = np.atleast_2d(np.asarray(Xp, dtype=float))
        z = np.asarray(z, dtype=float)
        ub = np.atleast_2d(np.asarray(self.ubar(Xp), dtype=float))
        g = np.atleast_2d(np.asarray(self.grad_un(Xp), dtype=float))
        un = np.asarray(self.un(Xp), dtype=float).reshape(-1)
        out = np.zeros((Xp.shape[0],) + np.shape(z) + (self.n,))
        zb = np.asarray(z).reshape((1,) + np.shape(z))
        for a in range(self.n - 1):
            out[..., a] = ub[:, a].reshape(-1, *([1] * np.ndim(z))) - zb * g[:, a].reshape(-1, *([1] * np.ndim(z)))
        out[..., self.n - 1] = un.reshape(-1, *([1] * np.ndim(z)))
        return out


def stretch_datum(t: float, n: int = 2) -> BoundaryDatum:
    """Uniaxial stretch: ubar = (t x_1, 0, ...), un = 0."""

    def ubar(X):
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], n - 1))
        out[:, 0] = t * X[:, 0]
        return out

    def un(X):
        return np.zeros(np.atleast_2d(X).shape[0])

    def gz(X):
        return np.zeros((np.atleast_2d(X).shape[0], n - 1))

    return BoundaryDatum(ubar, un, gz, n)


def _lateral_sides(plan_shape):
    """(axis, side) pairs indexing the lateral boundary of the plan grid."""
    out = []
    for a in range(len(plan_shape)):
        out.append((a, 0))
        out.append((a, 1))
    return out


def _side_selector(plan_shape, axis, side):
    sl = [slice(None)] * len(plan_shape)
    sl[axis] = 0 if side == 0 else plan_shape[axis] - 1
    return tuple(sl)


def _side_area(plan_h, plan_shape, axis, zthick=1.0):
    other = [plan_h[a] * plan_shape[a] for a in range(len(plan_shape)) if a != axis]
    return float(np.prod(other)) * zthick if other else zthick


def boundary_penalty(obj, g: BoundaryDatum, tol_trace_scale: float = 1e-9,
                     released=None) -> float:
    """Lateral-boundary area where the trace differs from the datum.

    obj is a PlateField (compared against the lifted datum layer by layer)
    or a KLState (compared field by field).  `released` optionally lists
    (axis, side) pairs to skip (sides whose datum was intentionally dropped
    are still charged: this function only measures mismatch).
    """
    released = set(released or [])
    if isinstance(obj, PlateField):
        gr = obj.grid
        n = gr.n
        z = gr.z_centers()
        scale = max(1.0, float(np.max(np.abs(obj.values))))
        tol = tol_trace_scale * scale
        total = 0.0
        for axis, side in _lateral_sides(gr.plan_shape):
            if (axis, side) in released:
                continue
            sel = _side_selector(gr.plan_shape, axis, side)
            vals = obj.values[sel]  # (*other_plan, layers, n)
            mesh = gr.plan_mesh()
            Xp = np.stack([m[sel].ravel() for m in mesh], axis=-1)
            gvals = g.lift(Xp, z).reshape(vals.shape)
            mism = np.max(np.abs(vals - gvals), axis=(-1, -2)) > tol
            frac = np.count_nonzero(mism) / mism.size if mism.size else 0.0
            total += frac * _side_area(gr.plan_h, gr.plan_shape, axis)
        return total
    if isinstance(obj, KLState):
        s = obj
        scale = s.scale()
        tol = tol_trace_scale * scale
        mesh = np.meshgrid(*[np.asarray(s.omega_lo)[a] + s.plan_h[a]
                             * (np.arange(s.plan_shape[a]) + 0.5)
                             for a in range(s.n - 1)], indexing="ij")
        total = 0.0
        for axis, side in _lateral_sides(tuple(s.plan_shape)):
            if (axis, side) in released:
                continue
            sel = _side_selector(tuple(s.plan_shape), axis, side)
            Xp = np.stack([m[sel].ravel() for m in mesh], axis=-1)
            dub = np.atleast_2d(np.asarray(g.ubar(Xp)))
            dun = np.asarray(g.un(Xp)).reshape(-1)
            dgz = np.atleast_2d(np.asarray(g.grad_un(Xp)))
            mub = np.abs(s.ubar[sel].reshape(-1, s.n - 1) - dub).max(axis=1)
            mun = np.abs(s.un[sel].reshape(-1) - dun)
            mgz = np.abs(s.grad_un[sel].reshape(-1, s.n - 1) - dgz).max(axis=1)
            mism = np.maximum(np.maximum(mub, mun), mgz) > tol
            frac = np.count_nonzero(mism) / mism.size if mism.size else 0.0
            total += frac * _side_area(s.plan_h, tuple(s.plan_shape), axis)
        return total
    raise TypeError("expected PlateField or KLState")


def penalized_energies(obj, p: LameParams, g: BoundaryDatum,
                       rho: float | None = None) -> EnergyBreakdown:
    """E_rho^g for a PlateField (rho given) or E_0^g for a KLState (rho None)."""
    if isinstance(obj, PlateField):
        if rho is None:
            raise ValueError("rho required for the rescaled energy")
        e = rescaled_energy(obj, p, rho)
        pen = boundary_penalty(obj, g)
    else:
        e = limit_energy(obj, p)
        pen = boundary_penalty(obj, g)
    return EnergyBreakdown(e.bulk, e.surface, pen)


def compactness_check(v: PlateField, p: LameParams, rho: float) -> dict:
    """Transverse strain norms of the physical field vs the rho-scaled bounds.

    Returns the L2 norms of e_{alpha,n} and e_{n,n} of the physical
    displacement (recovered through the strain rescaling identity) together
    with the bounds rho * sqrt(2 E_rho) and rho^2 * sqrt(2 E_rho).
    """
    E = rescaled_strains(v, rho)
    n = v.grid.n
    vol = v.grid.cell_volume
    e_an_sq = 0.0
    for a in range(n - 1):
        e_an_sq += float(np.sum((rho * E[..., a, n - 1]) ** 2)) * vol
    e_nn_sq = float(np.sum((rho ** 2 * E[..., n - 1, n - 1]) ** 2)) * vol
    total = rescaled_energy(v, p, rho).total
    bound = np.sqrt(max(2.0 * total, 0.0))
    return {
        "e_an_norm": np.sqrt(e_an_sq),
        "e_nn_norm": np.sqrt(e_nn_sq),
        "bound_an": rho * bound,
        "bound_nn": rho ** 2 * bound,
        "ok": (np.sqrt(e_an_sq) <= rho * bound + 1e-14
               and np.sqrt(e_nn_sq) <= rho ** 2 * bound + 1e-14),
    }
