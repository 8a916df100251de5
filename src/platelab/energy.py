"""Bulk + surface energies on the unit-thickness film: rescaled, limit, and penalized.

Every bulk term is the quadratic form the solver of :mod:`.minimize`
minimizes: (1/2) w sum_c d_c . Q d_c, where d = S x, shape (ncell, k), are
the per-cell rows that `_apply_stencil` reads off the stencil blocks S of
:mod:`.kirchhoff_love` and Q is the cached form matrix `_form`, the one
check of the Lame parameters and rho.  Each bulk quadratic of a crack
pattern, (stencil thunk, form, cell weight), is declared once, for the
energies and the solver: E_rho's in `_film_bulk`, E_0's membrane and
bending in `_plate_bulk`; a zero value array builds no stencil.  The
builders keep the blocks of the 4 crack patterns read last, so the energy
of a state the solver has just solved reuses the solver's blocks.  Surface
terms are sums of broken-face areas, weighted by the anisotropic factor
phi_rho in the rescaled energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elasticity import (LameParams, form_matrix, phi_rho, quadratic_form_C,
                         quadratic_form_C0, rescale_strain, validate_lame)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, _apply_stencil, _check_plan,
                             _derivative_operator, _hessian_operator, _lift, _plan_points,
                             _side, _z_centers, cell_strains)
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


@lru_cache(maxsize=8)
def _form(p: LameParams, rho: float | None = None) -> np.ndarray:
    """Read-only Q of a bulk density on derivative matrices D, f = vec(D).Q vec(D).

    rho None: the reduced density C0 on (n-1) x (n-1) matrices, for the
    limit energy.  rho > 0: C of the rescaled strain e^rho on n x n
    matrices (rho = 1 is the physical density).  Cached because the crack
    search solves and evaluates once per candidate with the same (p, rho).
    The one check of the parameters: ValueError unless `validate_lame`
    accepts p, and, through `rescale_strain`, unless 0 < rho < inf.
    """
    if not validate_lame(p):
        raise ValueError("invalid Lame parameters")
    if rho is None:
        Q = form_matrix(p.n - 1, lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))
    else:
        Q = form_matrix(p.n, lambda D: quadratic_form_C(
            p, rescale_strain(0.5 * (D + D.T), rho)))
    Q.flags.writeable = False
    return Q


def _bulk(d: np.ndarray, Q: np.ndarray, weight: float) -> float:
    """(1/2) weight sum_c d_c . Q d_c over the rows of d.  A sum that is not
    finite is an input error: a search cannot compare it with another total."""
    bulk = 0.5 * weight * float(np.sum(np.einsum("ki,ij,kj->k", d, Q, d)))
    if not math.isfinite(bulk):
        raise ValueError("bulk energy is not finite; is the boundary datum too large?")
    return bulk


def _rows(x: np.ndarray, stencil, Q: np.ndarray) -> np.ndarray:
    """The per-cell rows of values x in a quadratic of stencil thunk `stencil`
    and form Q.  A zero x builds no stencil: its rows are one zero row,
    which broadcasts against any other rows."""
    return _apply_stencil(stencil(), x) if x.any() else np.zeros((1, len(Q)))


def _film_bulk(grid: PlateGrid, broken, p: LameParams, rho: float) -> list:
    """E_rho's one bulk quadratic on the broken faces of grid, on the cell
    values (plan axes, layer, component): [(stencil thunk, form, cell weight)]."""
    return [(lambda: _derivative_operator(grid.shape, grid.spacings, broken, grid.n),
             _form(p, rho), grid.cell_volume)]


def _plate_bulk(plan_shape, plan_h, broken, p: LameParams) -> list:
    """E_0's membrane quadratic, on ubar, and bending quadratic, on un, on the
    crack columns `broken`: [(stencil thunk, form, cell weight)] * 2.  The
    bending weight is the plan area times int x_n^2 = 1/12 over the unit
    thickness, where the cross term of the two vanishes."""
    Q, area = _form(p), float(np.prod(plan_h))
    return [(lambda: _derivative_operator(plan_shape, plan_h, broken, len(plan_shape)),
             Q, area),
            (lambda: _hessian_operator(plan_shape, plan_h, broken), Q, area / 12.0)]


def rescaled_strains(v: PlateField, rho: float) -> np.ndarray:
    """Per-cell strains of v with the thin-film scaling applied."""
    return rescale_strain(cell_strains(v), rho)


def rescaled_energy(v: PlateField, p: LameParams, rho: float) -> EnergyBreakdown:
    """E_rho: (1/2) int C e^rho(v).e^rho(v) + int_{J_v} phi_rho(nu)."""
    [(stencil, Q, weight)] = _film_bulk(v.grid, v.broken, p, rho)
    bulk = _bulk(_rows(v.values, stencil, Q), Q, weight)
    surface = sum(np.count_nonzero(v.broken[a]) * v.broken_face_area(a) * phi_rho(rho, nu)
                  for a, nu in enumerate(np.eye(v.grid.n)))
    return EnergyBreakdown(bulk, float(surface))


def limit_energy(s: KLState, p: LameParams, layers: int | None = None) -> EnergyBreakdown:
    """E_0: (1/2) int C_0 (ebar - x_n Hess un) + measure of crack_cols x thickness.

    ebar and Hess un are the rows of ubar and un in the solver's membrane
    and bending quadratics (`_plate_bulk`); grad_un is not read.  The
    thickness integral is done analytically by default, so the bulk is the
    sum of the two quadratics; pass `layers` to use the film's midpoint
    quadrature over that many layers (`_z_centers`) instead.
    """
    (membrane, Q, area), (bending, _, bending_weight) = _plate_bulk(
        s.plan_shape, s.plan_h, s.crack_cols, p)
    dm, dh = _rows(s.ubar, membrane, Q), _rows(s.un, bending, Q)
    if layers is None:
        bulk = _bulk(dm, Q, area) + _bulk(dh, Q, bending_weight)
    else:
        bulk = sum(_bulk(dm - zk * dh, Q, area * (1.0 / layers)) for zk in _z_centers(layers))
    surface = s.crack_measure() * 1.0  # times unit thickness
    return EnergyBreakdown(bulk, surface)


@dataclass
class BoundaryDatum:
    """A plate boundary datum with reduced structure: callables on omega points."""

    ubar: callable  # (k, n-1) -> (k, n-1)
    un: callable  # (k, n-1) -> (k,)
    grad_un: callable  # (k, n-1) -> (k, n-1)
    n: int = 2

    def state(self, plan_shape, omega_lo, omega_hi) -> KLState:
        """The datum sampled at the plan cell centers, as an uncracked KLState.

        The only place the callables are evaluated; the plan is checked first.
        """
        plan_shape = tuple(plan_shape)
        _check_plan(self.n, plan_shape, omega_lo, omega_hi)
        X = _plan_points(plan_shape, omega_lo, omega_hi).reshape(-1, self.n - 1)
        vector = plan_shape + (self.n - 1,)
        return KLState(self.n, plan_shape, tuple(omega_lo), tuple(omega_hi),
                       np.reshape(self.ubar(X), vector), np.reshape(self.un(X), plan_shape),
                       np.reshape(self.grad_un(X), vector))


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


def boundary_penalty(obj, g: BoundaryDatum) -> float:
    """Lateral-boundary area where the trace differs from the datum: the
    `_trace_penalty` of obj against g's state on obj's plan."""
    if not isinstance(obj, (PlateField, KLState)):
        raise TypeError("expected PlateField or KLState")
    plan = obj.grid if isinstance(obj, PlateField) else obj
    d = g.state(plan.plan_shape, plan.omega_lo, plan.omega_hi)
    return _trace_penalty(obj, _lift(d, obj.grid.z_centers()) if isinstance(obj, PlateField)
                          else _kl_trace(d))


def _kl_trace(s: KLState) -> np.ndarray:
    """The trace rows (ubar, un, grad_un) of s, shape (*plan_shape, 2n - 1)."""
    return np.concatenate([s.ubar, s.un[..., None], s.grad_un], axis=-1)


def _trace_penalty(obj, datum: np.ndarray) -> float:
    """Lateral-boundary area where the trace of obj differs from the datum rows.

    The trace has one row per plan cell: a PlateField's values over all
    layers, or a KLState's `_kl_trace`.  datum holds the same rows of a
    datum state sampled on obj's plan (`BoundaryDatum.state`): that state
    lifted to obj's layers (`_lift`), or its `_kl_trace`.  So a search that
    samples and lifts its datum once charges every state against it.
    Every side is charged, released or not: this function only measures
    mismatch.  A cell differs when some entry of its row is off by more
    than _TRACE_TOL times max(1, max |trace|); each side is charged its
    area times its fraction of differing cells.
    """
    if isinstance(obj, PlateField):
        trace, plan = obj.values, obj.grid
    else:
        trace, plan = _kl_trace(obj), obj
    ps, h = tuple(plan.plan_shape), plan.plan_h
    trace = trace.reshape(ps + (-1,))
    scale = max(1.0, float(np.max(np.abs(trace))))
    gap = np.max(np.abs(trace - datum.reshape(trace.shape)), axis=-1)
    mism = gap > _TRACE_TOL * scale
    extent = h * np.asarray(ps)
    total = 0.0
    for axis in range(len(ps)):
        area = float(np.prod(np.delete(extent, axis)))
        for side in (0, 1):
            on_side = mism[_side(ps, axis, side)]
            total += np.count_nonzero(on_side) / on_side.size * area
    return total


def penalized_energies(obj, p: LameParams, g: BoundaryDatum,
                       rho: float | None = None) -> EnergyBreakdown:
    """E_rho^g for a PlateField (rho given) or E_0^g for a KLState (rho None)."""
    if isinstance(obj, PlateField):
        if rho is None:
            raise ValueError("rho required for the rescaled energy")
        e = rescaled_energy(obj, p, rho)
    else:
        e = limit_energy(obj, p)
    return EnergyBreakdown(e.bulk, e.surface, boundary_penalty(obj, g))


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
