"""Alternating minimization of the penalized plate energies.

At fixed crack the bulk term is a convex quadratic in the cell values and
is minimized by one sparse LU solve.  Crack activation sweeps full vertical
face columns (plus boundary-side releases) and keeps the best strict
improvement, which for the n = 2 scenarios amounts to an exhaustive column
search.  One greedy search loop serves the rescaled and the limit problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.ndimage as ndimage
import scipy.sparse as sp
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
    """Stencil triplets (rows, cols, vals) of the map from cell dofs to
    per-cell derivative matrices D[m, a].

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
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def _connected_components(shape: tuple, broken: list):
    """Component label (from 0) of each cell, cells joined by unbroken faces.

    Labels one image of 2s - 1 pixels per axis of s cells: cells at even
    positions, the face between cells k and k + 1 of axis a at position
    2k + 1 along a (True when unbroken), so under cross connectivity two
    cells meet exactly through an open face.
    """
    cells = tuple(slice(None, None, 2) for _ in shape)
    image = np.zeros(tuple(2 * s - 1 for s in shape), dtype=bool)
    image[cells] = True
    for a, b in enumerate(broken):
        faces = list(cells)
        faces[a] = slice(1, None, 2)
        image[tuple(faces)] = ~b
    labels, _ = ndimage.label(image)
    return labels[cells].ravel() - 1


def _reduced_system(stencil, Q: np.ndarray, weight: float, fixed_mask, fixed_vals):
    """Free block Kff and load b = -K_free,fixed x_fixed of the bulk quadratic.

    K = weight * S^T (I kron Q) S for the stencil triplets S = (rows, cols,
    vals) with row = cell * len(Q) + alpha, assembled cell by cell:
    K[i, j] += weight * S[c alpha, i] Q[alpha, beta] S[c beta, j] over all
    pairs of a cell's entries (cells padded to the widest stencil).  Only
    pairs with a free row are kept; K itself is never formed.
    """
    rows, cols, vals = stencil
    cell, alpha = np.divmod(rows, len(Q))
    order = np.argsort(cell, kind="stable")
    cell, alpha, cols, vals = cell[order], alpha[order], cols[order], vals[order]
    counts = np.bincount(cell, minlength=1)
    slot = np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pad = (counts.size, int(counts.max()))
    A = np.zeros(pad, dtype=int)
    J = np.zeros(pad, dtype=int)
    V = np.zeros(pad)
    A[cell, slot], J[cell, slot], V[cell, slot] = alpha, cols, vals
    pair = (weight * V[:, :, None]) * Q[A[:, :, None], A[:, None, :]] * V[:, None, :]
    i = np.broadcast_to(J[:, :, None], pair.shape)
    j = np.broadcast_to(J[:, None, :], pair.shape)

    free = ~fixed_mask
    keep = free[i] & (pair != 0.0)
    i, j, pair = i[keep], j[keep], pair[keep]
    index = np.cumsum(free) - 1  # free dof number of each free dof
    nfree = int(np.count_nonzero(free))
    to_free = free[j]
    Kff = sp.csc_matrix((pair[to_free], (index[i[to_free]], index[j[to_free]])),
                        shape=(nfree, nfree))
    to_fixed = ~to_free
    b = -np.bincount(index[i[to_fixed]],
                     weights=pair[to_fixed] * fixed_vals[j[to_fixed]],
                     minlength=nfree)
    return Kff, b


def _solve_constrained(Kff, b, floating):
    """Solve Kff y = b for the free dofs; gauge floating components.

    A small diagonal shift on the `floating` free dofs (components with no
    fixed dof) removes their null space; every Kff is then symmetric
    positive definite and is factored by a symmetric-mode sparse LU
    (``scipy.sparse.linalg.splu``, minimum degree on A^T + A, diagonal
    pivots).  An exactly singular Kff raises RuntimeError.
    """
    if not np.any(b):  # zero data: the zero field is the (gauged) minimizer
        return np.zeros(b.size)
    if np.any(floating):
        kappa = 1e-8 * max(float(Kff.diagonal().max()), 1.0)
        Kff = Kff + sp.diags(np.where(floating, kappa, 0.0))
    lu = spla.splu(Kff.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    return lu.solve(b)


def _fixed_crack_solve(operator, Q: np.ndarray, weight: float, fixed_mask,
                       fixed_vals, labels):
    """Minimize the bulk quadratic with x = fixed_vals on the fixed dofs.

    operator() builds the stencil triplets; it is not called when every
    clamped value is zero, since the zero field is then the (gauged)
    minimizer.  labels: connected-component label of each dof, for the gauge.
    """
    x = np.where(fixed_mask, fixed_vals, 0.0)
    if not np.any(x):
        return x
    Kff, b = _reduced_system(operator(), Q, weight, fixed_mask, fixed_vals)
    anchored = np.zeros(labels.max() + 1, dtype=bool)
    anchored[labels[fixed_mask]] = True
    x[~fixed_mask] = _solve_constrained(Kff, b, ~anchored[labels[~fixed_mask]])
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


@lru_cache(maxsize=8)
def _film_form(n: int, p: LameParams, rho: float) -> np.ndarray:
    """Read-only Q of the rescaled density on derivative matrices.

    Cached because the crack search calls `elastic_solve` once per candidate
    with the same (n, p, rho).
    """
    Q = form_matrix(n, lambda D: quadratic_form_C(p, rescale_strain(0.5 * (D + D.T), rho)))
    Q.flags.writeable = False
    return Q


def elastic_solve(grid: PlateGrid, cracks: CrackIndicator, g: BoundaryDatum,
                  p: LameParams, rho: float) -> PlateField:
    """Minimize the bulk of E_rho at fixed cracks, datum clamped on unreleased sides."""
    n = grid.n
    shape = grid.shape
    gv = _datum_values(grid, g)
    fixed_cells = np.zeros(shape, dtype=bool)
    for axis in range(n - 1):
        for side in (0, 1):
            if (axis, side) in cracks.released:
                continue
            fixed_cells |= _lateral_cell_mask(shape, axis, side)
    labels = _connected_components(shape, cracks.broken)
    x = _fixed_crack_solve(
        lambda: _derivative_operator(shape, grid.spacings, cracks.broken, n),
        _film_form(n, p, rho), grid.cell_volume,
        np.repeat(fixed_cells.ravel(), n), gv.reshape(-1), np.repeat(labels, n))
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
        u = elastic_solve(grid, c, g, p, rho)
        return u, penalized_energies(u, p, g, rho)

    # a vertical column adds grid.layers faces of this area (weight 1)
    column_area = [grid.layers * float(np.prod(np.delete(grid.spacings, a)))
                   for a in range(grid.n - 1)]
    return _greedy_search(total, empty_cracks(grid.shape), grid.plan_shape,
                          column_area, cfg.altmin_max_rounds)


# ---------------------------------------------------------------------------
# reduced (limit) problem


def _hessian_operator(plan_shape: tuple, plan_h, crack_cols: list):
    """Stencil triplets (rows, cols, vals) of the map from un dofs to
    per-cell Hessian entries H[a, b], row cell * nd*nd + a*nd + b.

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
    if not rows:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def _reduced_solve(plan_shape, omega_lo, omega_hi, cracks: CrackIndicator,
                   g: BoundaryDatum, Q: np.ndarray) -> KLState:
    """Minimize the bulk of E_0 at fixed cracks; Q is the C0 form matrix."""
    nd = len(plan_shape)
    n = nd + 1
    plan_h = (np.asarray(omega_hi, float) - np.asarray(omega_lo, float)) / np.asarray(plan_shape)
    area = float(np.prod(plan_h))

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

    # membrane solve for ubar
    gub = np.atleast_2d(np.asarray(g.ubar(Xp), dtype=float))
    ubar = _fixed_crack_solve(
        lambda: _derivative_operator(plan_shape, plan_h, cracks.broken, nd),
        Q, area, np.repeat(fixed_cells.ravel(), nd), gub.reshape(-1),
        np.repeat(labels, nd))
    ubar = ubar.reshape(plan_shape + (nd,))

    # bending solve for un (weight 1/12 from the thickness integral)
    gun = np.asarray(g.un(Xp), dtype=float).reshape(-1)
    un = _fixed_crack_solve(
        lambda: _hessian_operator(plan_shape, plan_h, cracks.broken),
        Q, area / 12.0, fixed_cells.ravel(), gun, labels)
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
    Q = form_matrix(len(plan_shape), lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))

    def total(c):
        s = _reduced_solve(plan_shape, omega_lo, omega_hi, c, g, Q)
        e = limit_energy(s, p)
        pen = boundary_penalty(s, g)
        return s, EnergyBreakdown(e.bulk, e.surface, pen)

    # crack column measure: 1 for n=2, face length for n=3
    plan_h = (np.asarray(omega_hi, float) - np.asarray(omega_lo, float)) / np.asarray(plan_shape)
    column_area = [float(np.prod(np.delete(plan_h, a))) for a in range(len(plan_shape))]
    return _greedy_search(total, empty_cracks(plan_shape), plan_shape,
                          column_area, cfg.altmin_max_rounds)
