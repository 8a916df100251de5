"""Alternating minimization of the penalized plate energies.

At fixed crack the bulk term is a convex quadratic in the cell values and
is minimized by one sparse LU solve.  Crack activation sweeps full vertical
face columns (plus boundary-side releases) and keeps the best strict
improvement, which for the n = 2 scenarios amounts to an exhaustive column
search.  One greedy search loop serves the rescaled and the limit problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .elasticity import (LameParams, form_matrix, quadratic_form_C,
                         quadratic_form_C0, rescale_strain)
from .energy import (BoundaryDatum, EnergyBreakdown, boundary_penalty,
                     limit_energy, penalized_energies)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, _empty_breaks,
                             _face_blocked, reduced_gradient)


# relative slack of the strict-descent test of the greedy crack search
_DESCENT_SLACK = 1e-10


@dataclass
class SolverConfig:
    altmin_max_rounds: int = 6

    def __post_init__(self):
        if self.altmin_max_rounds <= 0:
            raise ValueError("altmin_max_rounds must be positive")


@dataclass
class CrackIndicator:
    """Broken faces (per axis) plus the set of released boundary sides."""

    broken: list
    released: set = field(default_factory=set)

    def copy(self) -> "CrackIndicator":
        return CrackIndicator([b.copy() for b in self.broken],
                              set(self.released))


def empty_cracks(shape: tuple) -> CrackIndicator:
    return CrackIndicator(_empty_breaks(shape))


# ---------------------------------------------------------------------------
# quadratic assembly


def _derivative_operator(shape: tuple, spacings, broken: list, ncomp: int):
    """Sparse map from cell dofs to per-cell derivative matrices D[m, a].

    Row ordering: cell * (ncomp*nd) + m*nd + a; forward quotients with
    backward fallback at blocked plus-faces, zero when isolated.
    """
    nd = len(shape)
    ncell = int(np.prod(shape))
    rows, cols, data = [], [], []
    flat = np.arange(ncell).reshape(shape)
    for a in range(nd):
        bm, bp = _face_blocked(shape, a, broken[a])
        h = float(spacings[a])
        plus = np.roll(flat, -1, axis=a)
        minus = np.roll(flat, 1, axis=a)
        use_f = ~bp
        use_b = bp & ~bm
        for m in range(ncomp):
            rbase = flat * (ncomp * nd) + m * nd + a
            # forward: (v[c+e_a] - v[c]) / h
            idx = np.where(use_f.ravel())[0]
            rows.append(rbase.ravel()[idx])
            cols.append(plus.ravel()[idx] * ncomp + m)
            data.append(np.full(idx.size, 1.0 / h))
            rows.append(rbase.ravel()[idx])
            cols.append(flat.ravel()[idx] * ncomp + m)
            data.append(np.full(idx.size, -1.0 / h))
            # backward: (v[c] - v[c-e_a]) / h
            idx = np.where(use_b.ravel())[0]
            rows.append(rbase.ravel()[idx])
            cols.append(flat.ravel()[idx] * ncomp + m)
            data.append(np.full(idx.size, 1.0 / h))
            rows.append(rbase.ravel()[idx])
            cols.append(minus.ravel()[idx] * ncomp + m)
            data.append(np.full(idx.size, -1.0 / h))
    G = sp.csr_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ncell * ncomp * nd, ncell * ncomp))
    return G


def _stiffness(G, Q: np.ndarray, cell_volume: float, ncell: int):
    W = sp.kron(sp.identity(ncell, format="csr"), sp.csr_matrix(Q))
    return (G.T @ (W @ G)) * cell_volume


def _connected_components(shape: tuple, broken: list):
    nd = len(shape)
    ncell = int(np.prod(shape))
    flat = np.arange(ncell).reshape(shape)
    rows, cols = [], []
    for a in range(nd):
        sl_lo = [slice(None)] * nd
        sl_lo[a] = slice(0, shape[a] - 1)
        sl_hi = [slice(None)] * nd
        sl_hi[a] = slice(1, shape[a])
        open_face = ~broken[a]
        lo = flat[tuple(sl_lo)][open_face]
        hi = flat[tuple(sl_hi)][open_face]
        rows.append(lo)
        cols.append(hi)
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
    else:
        r = c = np.array([], dtype=int)
    adj = sp.csr_matrix((np.ones(r.size), (r, c)), shape=(ncell, ncell))
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    return labels


def _solve_constrained(K, rhs_full, fixed_mask, fixed_vals, labels_per_dof=None):
    """Minimize 1/2 x.Kx with x = fixed_vals on fixed dofs; gauge floating parts.

    The reduced system on the free dofs is solved by a sparse LU
    factorization (``scipy.sparse.linalg.splu``).
    """
    x = np.array(fixed_vals, dtype=float)
    free = ~fixed_mask
    Kff = K[free][:, free].tocsr()
    b = -(K[free][:, fixed_mask] @ fixed_vals[fixed_mask]) + rhs_full[free]
    if not np.any(b):  # zero data: the zero field is the (gauged) minimizer
        x[free] = 0.0
        return x
    # gauge floating connected components (no fixed dof)
    if labels_per_dof is not None:
        lab = labels_per_dof[free]
        anchored = set(np.unique(labels_per_dof[fixed_mask]))
        floating = ~np.isin(lab, list(anchored)) if anchored else np.ones(lab.size, bool)
        if np.any(floating):
            d = Kff.diagonal()
            kappa = 1e-8 * max(float(d.max()), 1.0)
            Kff = Kff + sp.diags(np.where(floating, kappa, 0.0))
    x[free] = spla.splu(Kff.tocsc()).solve(b)
    return x


# ---------------------------------------------------------------------------
# rescaled (full-thickness) problem


def _datum_values(grid: PlateGrid, g: BoundaryDatum) -> np.ndarray:
    mesh = grid.plan_mesh()
    Xp = np.stack([m.ravel() for m in mesh], axis=-1)
    z = grid.z_centers()
    vals = g.lift(Xp, z)  # (ncellplan, layers, n)
    return vals.reshape(grid.shape + (grid.n,))


def _lateral_cell_mask(shape: tuple, axis: int, side: int):
    m = np.zeros(shape, dtype=bool)
    sl = [slice(None)] * len(shape)
    sl[axis] = 0 if side == 0 else shape[axis] - 1
    m[tuple(sl)] = True
    return m


def elastic_solve(grid: PlateGrid, cracks: CrackIndicator, g: BoundaryDatum,
                  p: LameParams, rho: float, cfg: SolverConfig) -> PlateField:
    """Minimize the bulk of E_rho at fixed cracks, datum clamped on unreleased sides."""
    n = grid.n
    shape = grid.shape
    ncell = int(np.prod(shape))
    G = _derivative_operator(shape, grid.spacings, cracks.broken, n)

    def f(D):
        return quadratic_form_C(p, rescale_strain(0.5 * (D + D.T), rho))

    Q = form_matrix(n, f)
    K = _stiffness(G, Q, grid.cell_volume, ncell)

    gv = _datum_values(grid, g)
    fixed_cells = np.zeros(shape, dtype=bool)
    for axis in range(n - 1):
        for side in (0, 1):
            if (axis, side) in cracks.released:
                continue
            fixed_cells |= _lateral_cell_mask(shape, axis, side)
    fixed_mask = np.repeat(fixed_cells.ravel(), n)
    fixed_vals = gv.reshape(-1)

    labels_cell = _connected_components(shape, cracks.broken)
    labels_dof = np.repeat(labels_cell, n)
    x = _solve_constrained(K, np.zeros(K.shape[0]), fixed_mask, fixed_vals,
                           labels_dof)
    return PlateField(grid, x.reshape(shape + (n,)),
                      [b.copy() for b in cracks.broken])


def _column_candidates(plan_shape: tuple):
    """Interior plan faces, as (axis, face_multi_index) pairs."""
    out = []
    for a in range(len(plan_shape)):
        s = list(plan_shape)
        s[a] -= 1
        for idx in np.ndindex(*s):
            out.append((a, idx))
    return out


def _greedy_search(total, cracks: CrackIndicator, plan_shape: tuple,
                   column_area, rounds: int):
    """Greedy crack activation from `cracks` by strict descent of `total`.

    total(cracks) -> (state, EnergyBreakdown) solves at fixed crack;
    column_area[axis] is the surface a new face column along that axis adds,
    used to skip columns whose surface alone cannot descend.  Each round
    tries every unbroken interior column and every unreleased side, and
    keeps the best one if it lowers the total; at most `rounds` rounds.

    Returns (state, cracks, EnergyBreakdown, energy_trace).
    """
    state, e = total(cracks)
    trace = [e.total]
    for _ in range(rounds):
        floor = trace[-1] - _DESCENT_SLACK * max(1.0, trace[-1])
        candidates = []
        for axis, idx in _column_candidates(plan_shape):
            if np.all(cracks.broken[axis][idx]):
                continue
            if e.surface + column_area[axis] >= floor:
                continue  # candidate total >= candidate surface
            cand = cracks.copy()
            cand.broken[axis][idx] = True
            candidates.append(cand)
        for axis in range(len(plan_shape)):
            for side in (0, 1):
                if (axis, side) in cracks.released:
                    continue
                cand = cracks.copy()
                cand.released.add((axis, side))
                candidates.append(cand)
        best = None
        for cand in candidates:
            sc, ec = total(cand)
            if best is None or ec.total < best[2].total:
                best = (cand, sc, ec)
        if best is None or best[2].total >= floor:
            break
        cracks, state, e = best
        trace.append(e.total)
    return state, cracks, e, trace


def alternate_minimize(grid: PlateGrid, g: BoundaryDatum, p: LameParams,
                       rho: float, cfg: SolverConfig):
    """Alternate elastic solves with greedy column/release activation.

    Returns (field, cracks, EnergyBreakdown, energy_trace).
    """
    def total(c):
        u = elastic_solve(grid, c, g, p, rho, cfg)
        return u, penalized_energies(u, p, g, rho)

    # a vertical column adds grid.layers faces of this area (weight 1)
    column_area = [grid.layers * float(np.prod(np.delete(grid.spacings, a)))
                   for a in range(grid.n - 1)]
    return _greedy_search(total, empty_cracks(grid.shape), grid.plan_shape,
                          column_area, cfg.altmin_max_rounds)


# ---------------------------------------------------------------------------
# reduced (limit) problem


def _hessian_operator(plan_shape: tuple, plan_h, crack_cols: list):
    """Sparse map from un dofs to per-cell Hessian entries H[a, b].

    Centered second differences where both faces are open, one-sided shifted
    stencils otherwise, zero rows where no admissible stencil exists.
    """
    nd = len(plan_shape)
    ncell = int(np.prod(plan_shape))
    flat = np.arange(ncell).reshape(plan_shape)
    rows, cols, data = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        data.append(v)

    for a in range(nd):
        h2 = float(plan_h[a]) ** 2
        bm, bp = _face_blocked(plan_shape, a, crack_cols[a])
        plus = np.roll(flat, -1, axis=a)
        minus = np.roll(flat, 1, axis=a)
        plus2 = np.roll(flat, -2, axis=a)
        minus2 = np.roll(flat, 2, axis=a)
        bp2 = np.roll(bp, -1, axis=a)  # plus-face of the plus neighbor
        bm2 = np.roll(bm, 1, axis=a)
        centered = ~bm & ~bp
        fwd = ~centered & ~bp & ~bp2
        bwd = ~centered & ~fwd & ~bm & ~bm2
        rbase = flat * (nd * nd) + a * nd + a
        for mask, pts in ((centered, ((minus, 1.0), (flat, -2.0), (plus, 1.0))),
                          (fwd, ((flat, 1.0), (plus, -2.0), (plus2, 1.0))),
                          (bwd, ((flat, 1.0), (minus, -2.0), (minus2, 1.0)))):
            idx = np.where(mask.ravel())[0]
            if idx.size == 0:
                continue
            for arr, w in pts:
                add(rbase.ravel()[idx], arr.ravel()[idx],
                    np.full(idx.size, w / h2))
        for b in range(a + 1, nd):
            # mixed second differences on cells centered in both axes
            hab = float(plan_h[a]) * float(plan_h[b])
            bmb, bpb = _face_blocked(plan_shape, b, crack_cols[b])
            ok = centered & ~bmb & ~bpb
            pp = np.roll(np.roll(flat, -1, axis=a), -1, axis=b)
            pm = np.roll(np.roll(flat, -1, axis=a), 1, axis=b)
            mp = np.roll(np.roll(flat, 1, axis=a), -1, axis=b)
            mm = np.roll(np.roll(flat, 1, axis=a), 1, axis=b)
            idx = np.where(ok.ravel())[0]
            for r_ab in (flat * (nd * nd) + a * nd + b,
                         flat * (nd * nd) + b * nd + a):
                if idx.size:
                    for arr, w in ((pp, 0.25), (mm, 0.25), (pm, -0.25),
                                   (mp, -0.25)):
                        add(r_ab.ravel()[idx], arr.ravel()[idx],
                            np.full(idx.size, w / hab))
    if rows:
        B = sp.csr_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(ncell * nd * nd, ncell))
    else:
        B = sp.csr_matrix((ncell * nd * nd, ncell))
    return B


def _reduced_solve(plan_shape, omega_lo, omega_hi, cracks: CrackIndicator,
                   g: BoundaryDatum, p: LameParams) -> KLState:
    nd = len(plan_shape)
    n = nd + 1
    plan_h = (np.asarray(omega_hi, float) - np.asarray(omega_lo, float)) / np.asarray(plan_shape)
    area = float(np.prod(plan_h))
    ncell = int(np.prod(plan_shape))

    axes = [omega_lo[a] + plan_h[a] * (np.arange(plan_shape[a]) + 0.5)
            for a in range(nd)]
    mesh = np.meshgrid(*axes, indexing="ij")
    Xp = np.stack([m.ravel() for m in mesh], axis=-1)

    fixed_cells = np.zeros(plan_shape, dtype=bool)
    for axis in range(nd):
        for side in (0, 1):
            if (axis, side) in cracks.released:
                continue
            fixed_cells |= _lateral_cell_mask(plan_shape, axis, side)
    labels = _connected_components(plan_shape, cracks.broken)
    Q = form_matrix(nd, lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))

    # membrane solve for ubar
    Gm = _derivative_operator(plan_shape, plan_h, cracks.broken, nd)
    Km = _stiffness(Gm, Q, area, ncell)
    gub = np.atleast_2d(np.asarray(g.ubar(Xp), dtype=float))
    fixed_m = np.repeat(fixed_cells.ravel(), nd)
    ub = _solve_constrained(Km, np.zeros(Km.shape[0]), fixed_m,
                            gub.reshape(-1), np.repeat(labels, nd))
    ubar = ub.reshape(plan_shape + (nd,))

    # bending solve for un (weight 1/12 from the thickness integral)
    B = _hessian_operator(plan_shape, plan_h, cracks.broken)
    Kb = _stiffness(B, Q, area / 12.0, ncell)
    gun = np.asarray(g.un(Xp), dtype=float).reshape(-1)
    un = _solve_constrained(Kb, np.zeros(Kb.shape[0]), fixed_cells.ravel(),
                            gun, labels)
    un = un.reshape(plan_shape)

    grad_un = reduced_gradient(un, plan_h, cracks.broken)
    return KLState(n, tuple(plan_shape), tuple(omega_lo), tuple(omega_hi),
                   ubar, un, grad_un, [b.copy() for b in cracks.broken])


def minimize_limit(plan_shape, omega_lo, omega_hi, g: BoundaryDatum,
                   p: LameParams, cfg: SolverConfig):
    """Minimize E_0^g over KL states with vertical column cracks.

    Returns (KLState, cracks, EnergyBreakdown, energy_trace).
    """
    plan_shape = tuple(plan_shape)

    def total(c):
        s = _reduced_solve(plan_shape, omega_lo, omega_hi, c, g, p)
        e = limit_energy(s, p)
        pen = boundary_penalty(s, g)
        return s, EnergyBreakdown(e.bulk, e.surface, pen)

    # crack column measure: 1 for n=2, face length for n=3
    plan_h = (np.asarray(omega_hi, float) - np.asarray(omega_lo, float)) / np.asarray(plan_shape)
    column_area = [float(np.prod(np.delete(plan_h, a))) for a in range(len(plan_shape))]
    return _greedy_search(total, empty_cracks(plan_shape), plan_shape,
                          column_area, cfg.altmin_max_rounds)
