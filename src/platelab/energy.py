"""Bulk + surface energies: physical, rescaled, limit, and penalized variants.

Every bulk term is the quadratic form the solver of :mod:`.minimize`
minimizes: (1/2) w sum_c d_c . Q d_c, where d = S x are the per-cell rows
of the stencil triplets S of :mod:`.kirchhoff_love` (`_derivative_operator`
for displacements, `_hessian_operator` for the deflection) and Q is the
cached form matrix `_form`.  Surface terms are sums of broken-face areas,
weighted by the anisotropic factor phi_rho in the rescaled energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elasticity import (LameParams, form_matrix, phi_rho, quadratic_form_C,
                         quadratic_form_C0, rescale_strain, validate_lame)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, _apply_stencil,
                             _derivative_operator, _hessian_operator, cell_strains)
# unused here; bench/tracer.py wraps these names in this module
from .kirchhoff_love import cell_derivative, kl_lift  # noqa: F401

# relative tolerance of the trace comparison in `boundary_penalty`
_TRACE_TOL = 1e-9


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
def _form(p: LameParams, rho: float | None = None) -> np.ndarray:
    """Read-only Q of a bulk density on derivative matrices D, f = vec(D).Q vec(D).

    rho None: the reduced density C0 on (n-1) x (n-1) matrices, for the
    limit energy.  rho > 0: C of the rescaled strain e^rho on n x n
    matrices (rho = 1 is the physical density).  Cached because the crack
    search solves and evaluates once per candidate with the same (p, rho).
    """
    if rho is None:
        Q = form_matrix(p.n - 1, lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))
    else:
        Q = form_matrix(p.n, lambda D: quadratic_form_C(
            p, rescale_strain(0.5 * (D + D.T), rho)))
    Q.flags.writeable = False
    return Q


def _cell_rows(operator, x: np.ndarray, ncell: int, k: int) -> np.ndarray:
    """Rows d = S x, shape (ncell, k), of the triplets operator() builds.

    A zero x gives zero rows without building the stencil, as in the
    solver's zero-data rule.
    """
    if not np.any(x):
        return np.zeros((ncell, k))
    return _apply_stencil(operator(), x.ravel(), ncell * k).reshape(ncell, k)


def _bulk(d: np.ndarray, Q: np.ndarray, weight: float) -> float:
    """(1/2) weight sum_c d_c . Q d_c over the rows of d."""
    return 0.5 * weight * float(np.sum(np.einsum("ki,ij,kj->k", d, Q, d)))


def _film_bulk(u: PlateField, p: LameParams, rho: float) -> float:
    """Bulk of E_rho of a film field; rho = 1 gives the physical bulk."""
    g = u.grid
    d = _cell_rows(lambda: _derivative_operator(g.shape, g.spacings, u.broken, g.n),
                   u.values, int(np.prod(g.shape)), g.n * g.n)
    return _bulk(d, _form(p, rho), g.cell_volume)


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
    return EnergyBreakdown(_film_bulk(u, p, 1.0), _surface_area(u))


def rescaled_strains(v: PlateField, rho: float) -> np.ndarray:
    """Per-cell strains of v with the thin-film scaling applied."""
    E = cell_strains(v)
    n = v.grid.n
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
    bulk = _film_bulk(v, p, rho)
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


def limit_energy(s: KLState, p: LameParams, layers: int | None = None) -> EnergyBreakdown:
    """E_0: (1/2) int C_0 (ebar - x_n Hess un) + measure of crack_cols x thickness.

    ebar is read through `_derivative_operator` of ubar and Hess un through
    `_hessian_operator` of un, the solver's own stencils; grad_un is not
    read.  The thickness integral is done analytically by default (cross
    term vanishes, int x_n^2 = 1/12), so the bulk is that of the solver's
    membrane and bending quadratics; pass `layers` to use midpoint
    quadrature over that many layers instead.
    """
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    m = s.n - 1
    ps, h = tuple(s.plan_shape), s.plan_h
    ncell = int(np.prod(ps))
    dm = _cell_rows(lambda: _derivative_operator(ps, h, s.crack_cols, m),
                    s.ubar, ncell, m * m)
    dh = _cell_rows(lambda: _hessian_operator(ps, h, s.crack_cols), s.un, ncell, m * m)
    Q = _form(p)
    area = float(np.prod(h))
    if layers is None:
        bulk = _bulk(dm, Q, area) + _bulk(dh, Q, area / 12.0)
    else:
        hz = 1.0 / layers
        z = -0.5 + hz * (np.arange(layers) + 0.5)
        bulk = sum(_bulk(dm - zk * dh, Q, area * hz) for zk in z)
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


def _side_selector(plan_shape, axis, side):
    sl = [slice(None)] * len(plan_shape)
    sl[axis] = 0 if side == 0 else plan_shape[axis] - 1
    return tuple(sl)


def _side_area(plan_h, plan_shape, axis, zthick=1.0):
    other = [plan_h[a] * plan_shape[a] for a in range(len(plan_shape)) if a != axis]
    return float(np.prod(other)) * zthick if other else zthick


def boundary_penalty(obj, g: BoundaryDatum) -> float:
    """Lateral-boundary area where the trace differs from the datum.

    obj is a PlateField (compared against the lifted datum layer by layer)
    or a KLState (compared field by field).  Every side is charged, released
    or not: this function only measures mismatch.  A value differs when it
    is off by more than _TRACE_TOL times the field's scale.
    """
    if isinstance(obj, PlateField):
        gr = obj.grid
        ps, ph, mesh = gr.plan_shape, gr.plan_h, gr.plan_mesh()
        scale = max(1.0, float(np.max(np.abs(obj.values))))
        z = gr.z_centers()

        def gap(sel, Xp):  # largest gap over layers and components
            vals = obj.values[sel]  # (*other_plan, layers, n)
            return np.max(np.abs(vals - g.lift(Xp, z).reshape(vals.shape)), axis=(-1, -2))
    elif isinstance(obj, KLState):
        s = obj
        ps, ph, m = tuple(s.plan_shape), s.plan_h, s.n - 1
        mesh = np.meshgrid(*[np.asarray(s.omega_lo)[a] + ph[a] * (np.arange(ps[a]) + 0.5)
                             for a in range(m)], indexing="ij")
        scale = s.scale()

        def gap(sel, Xp):  # largest gap over ubar, un and grad_un
            mub = np.abs(s.ubar[sel].reshape(-1, m) - np.atleast_2d(np.asarray(g.ubar(Xp))))
            mun = np.abs(s.un[sel].reshape(-1) - np.asarray(g.un(Xp)).reshape(-1))
            mgz = np.abs(s.grad_un[sel].reshape(-1, m) - np.atleast_2d(np.asarray(g.grad_un(Xp))))
            return np.maximum(np.maximum(mub.max(axis=1), mun), mgz.max(axis=1))
    else:
        raise TypeError("expected PlateField or KLState")
    total = 0.0
    for axis in range(len(ps)):
        for side in (0, 1):
            sel = _side_selector(ps, axis, side)
            mism = gap(sel, np.stack([c[sel].ravel() for c in mesh], axis=-1)) > _TRACE_TOL * scale
            frac = np.count_nonzero(mism) / mism.size if mism.size else 0.0
            total += frac * _side_area(ph, ps, axis)
    return total


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
