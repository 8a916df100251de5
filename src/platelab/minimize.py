"""Alternating minimization of the penalized plate energies.

At fixed crack the bulk term is a convex quadratic in the cell values and
is minimized by one sparse LU solve.  Crack activation tries every full
vertical face column (plus boundary-side releases) and keeps the best
strict improvement.  One greedy search loop serves the rescaled and the
limit problem.  On a 1D plan a through-cut leaves each clamped side in a
piece of its own, and a clamp column of a lifted datum is a rigid motion,
so every through-cut of a round is scored in closed form (only clamp
columns left alone carry bulk); the round's winner is then solved once
for its state, which also checks the score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.ndimage as ndimage
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elasticity import LameParams
from .energy import (BoundaryDatum, EnergyBreakdown, _form, penalized_energies,
                     rescaled_energy)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, _derivative_operator,
                             _empty_breaks, _hessian_operator, _plan_h, _plan_points,
                             _side, reduced_gradient)
# unused here; bench/tracer.py wraps these names in this module
from .elasticity import quadratic_form_C, quadratic_form_C0, rescale_strain  # noqa: F401
from .energy import boundary_penalty, limit_energy  # noqa: F401
from .kirchhoff_love import _face_blocked  # noqa: F401


# relative slack of the strict-descent test of the greedy crack search
_DESCENT_SLACK = 1e-10
# relative width of a tie between candidate totals: the earlier candidate wins
_TIE_SLACK = 1e-12
# relative amount by which a winner's closed-form score may exceed its solve
_CHECK_SLACK = 1e-10


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


def _reduced_system(stencil, Q: np.ndarray, weight: float, fixed_mask, fixed_vals,
                    floating):
    """Free block Kff and load b = -K_free,fixed x_fixed of the bulk quadratic.

    K = weight * S^T (I kron Q) S for the stencil triplets S = (rows, cols,
    vals) with row = cell * len(Q) + alpha, assembled cell by cell:
    K[i, j] += weight * S[c alpha, i] Q[alpha, beta] S[c beta, j] over all
    pairs of a cell's entries (cells padded to the widest stencil).  Only
    pairs with a free row are kept; K itself is never formed.

    `floating` marks free dofs of components with no fixed dof: each gets
    the gauge shift kappa = 1e-8 * max(max diag Kff, 1) on its diagonal,
    added to the triplets before the one CSC construction, which removes
    the null space of those components.
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
    fi, fj, fv = index[i[to_free]], index[j[to_free]], pair[to_free]
    if np.any(floating):
        on_diag = fi == fj
        diag = np.bincount(fi[on_diag], weights=fv[on_diag], minlength=nfree)
        shifted = np.flatnonzero(floating)
        fi = np.concatenate([fi, shifted])
        fj = np.concatenate([fj, shifted])
        fv = np.concatenate([fv, np.full(shifted.size, 1e-8 * max(float(diag.max()), 1.0))])
    Kff = sp.csc_matrix((fv, (fi, fj)), shape=(nfree, nfree))
    to_fixed = ~to_free
    b = -np.bincount(index[i[to_fixed]],
                     weights=pair[to_fixed] * fixed_vals[j[to_fixed]],
                     minlength=nfree)
    return Kff, b


def _solve_constrained(Kff, b):
    """Solve Kff y = b for the free dofs.

    Kff (gauged by `_reduced_system`) is symmetric positive definite and is
    factored by a symmetric-mode sparse LU (``scipy.sparse.linalg.splu``,
    minimum degree on A^T + A, diagonal pivots).  An exactly singular Kff
    raises RuntimeError.
    """
    if not np.any(b):  # zero data: the zero field is the (gauged) minimizer
        return np.zeros(b.size)
    lu = spla.splu(Kff, permc_spec="MMD_AT_PLUS_A",
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
    anchored = np.zeros(labels.max() + 1, dtype=bool)
    anchored[labels[fixed_mask]] = True
    Kff, b = _reduced_system(operator(), Q, weight, fixed_mask, fixed_vals,
                             ~anchored[labels[~fixed_mask]])
    x[~fixed_mask] = _solve_constrained(Kff, b)
    return x


# ---------------------------------------------------------------------------
# through-cuts of a 1D plan


def _cut_bulks(ends, broken) -> np.ndarray:
    """Minimum bulk after cutting each unbroken face of a 1D chain of columns.

    ends: the bulks of the first and of the last column alone with their
    clamped values (0 for a released side); broken: flags of the faces
    between columns (entry k for the face after column k).

    A cut leaves the two clamp columns in different pieces, and the clamp
    column of a lifted datum, (ubar - z grad_un, un) at one plan point, is a
    rigid motion: the free columns of its piece continue it at zero strain,
    and a piece with no clamp is zero.  So a piece scores only when it is a
    clamp column alone: the first column when the cut or an earlier break is
    face 0, the last when the cut or a later break is face N - 2.
    """
    k = np.arange(broken.size)
    return (ends[0] * ((k == 0) | broken[0])
            + ends[1] * ((k == broken.size - 1) | broken[-1]))


# ---------------------------------------------------------------------------
# rescaled (full-thickness) problem


def _datum_values(grid: PlateGrid, g: BoundaryDatum) -> np.ndarray:
    """The lifted datum at every cell, shape (*grid.shape, n)."""
    Xp = grid.plan_points().reshape(-1, grid.n - 1)
    return g.lift(Xp, grid.z_centers()).reshape(grid.shape + (grid.n,))


def _lateral_cell_mask(shape: tuple, axis: int, side: int):
    m = np.zeros(shape, dtype=bool)
    m[_side(shape, axis, side)] = True
    return m


def _clamped_cells(shape: tuple, plan_axes: int, released) -> np.ndarray:
    """Cells on the lateral sides of the first `plan_axes` axes of `shape`,
    except the sides in `released`."""
    fixed = np.zeros(shape, dtype=bool)
    for axis in range(plan_axes):
        for side in (0, 1):
            if (axis, side) not in released:
                fixed[_side(shape, axis, side)] = True
    return fixed


def elastic_solve(grid: PlateGrid, cracks: CrackIndicator, g: BoundaryDatum,
                  p: LameParams, rho: float) -> PlateField:
    """Minimize the bulk of E_rho at fixed cracks, datum clamped on unreleased sides."""
    n = grid.n
    shape = grid.shape
    gv = _datum_values(grid, g)
    fixed_cells = _clamped_cells(shape, n - 1, cracks.released)
    labels = _connected_components(shape, cracks.broken)
    x = _fixed_crack_solve(
        lambda: _derivative_operator(shape, grid.spacings, cracks.broken, n),
        _form(p, rho), grid.cell_volume,
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


def _greedy_search(problem, cracks: CrackIndicator, rounds: int):
    """Greedy crack activation from `cracks` by strict descent of the total.

    `problem` has `plan_shape`, `column_area` (the surface a new face column
    along each plan axis adds, used to skip columns whose surface alone
    cannot descend) and two methods: solve(cracks) -> (state,
    EnergyBreakdown), and score_cuts(cracks), the exact total of every
    through-cut column on the plan axis, or None where it has no closed
    form.

    Each round offers every unbroken interior column (in
    `_column_candidates` order) and then every unreleased side.  Columns
    are scored by score_cuts when it applies, otherwise solved one by one
    like the releases.  The lowest total wins; totals within _TIE_SLACK
    (relative) of it tie, and a tie goes to the earliest candidate.  A
    winner that lowers the total is kept.  A scored winner is solved for
    its state: that state is a field of the candidate, so a score above its
    total (by more than _CHECK_SLACK relative) is wrong and raises
    RuntimeError.  The solve's total is the one kept; it lies above the
    exact score only by the solve's rounding, which grows as the rescaled
    film stiffens (for a bent datum on a (32,) x 8 grid, up to 4e-14 at
    rho = 1e-2, 4e-7 at rho = 1e-3 and 13 at rho = 1e-4).  At most `rounds`
    rounds.

    Returns (state, cracks, EnergyBreakdown, energy_trace).
    """
    state, e = problem.solve(cracks)
    trace = [e.total]
    for _ in range(rounds):
        floor = trace[-1] - _DESCENT_SLACK * max(1.0, trace[-1])
        cuts = [(axis, idx) for axis, idx in _column_candidates(problem.plan_shape)
                if not np.all(cracks.broken[axis][idx])
                and e.surface + problem.column_area[axis] < floor]
        scores = problem.score_cuts(cracks) if cuts else None
        candidates, totals = [], []
        for axis, idx in cuts:
            cand = cracks.copy()
            cand.broken[axis][idx] = True
            candidates.append(cand)
            totals.append(None if scores is None else float(scores[idx]))
        for axis in range(len(problem.plan_shape)):
            for side in (0, 1):
                if (axis, side) not in cracks.released:
                    cand = cracks.copy()
                    cand.released.add((axis, side))
                    candidates.append(cand)
                    totals.append(None)
        if not candidates:
            break
        solved = {}  # candidate index -> (state, EnergyBreakdown)
        for i, cand in enumerate(candidates):
            if totals[i] is None:
                solved[i] = problem.solve(cand)
                totals[i] = solved[i][1].total
        totals = np.array(totals)
        best = totals.min()
        win = int(np.argmax(totals <= best + _TIE_SLACK * max(1.0, abs(best))))
        if totals[win] >= floor:
            break
        if win not in solved:
            solved[win] = problem.solve(candidates[win])
            total = solved[win][1].total
            if totals[win] > total + _CHECK_SLACK * max(1.0, abs(total)):
                raise RuntimeError(f"through-cut scored {totals[win]!r}, above the "
                                   f"{total!r} of its solved field")
        cracks = candidates[win]
        state, e = solved[win]
        trace.append(e.total)
    return state, cracks, e, trace


class _FilmProblem:
    """E_rho^g on a fixed grid, for `_greedy_search`; states are PlateFields."""

    def __init__(self, grid: PlateGrid, g: BoundaryDatum, p: LameParams, rho: float):
        self.grid, self.g, self.p, self.rho = grid, g, p, rho
        self.plan_shape = grid.plan_shape
        # a vertical column adds grid.layers faces of this area (weight 1)
        self.column_area = [grid.layers * float(np.prod(np.delete(grid.spacings, a)))
                            for a in range(grid.n - 1)]

    def solve(self, cracks: CrackIndicator):
        u = elastic_solve(self.grid, cracks, self.g, self.p, self.rho)
        return u, self._energy(u)

    def _energy(self, u: PlateField) -> EnergyBreakdown:
        return penalized_energies(u, self.p, self.g, self.rho)

    def score_cuts(self, cracks: CrackIndicator):
        """Totals of the through-cuts of a 1D plan (None on a 2D plan).

        Surface and penalty are those of the field that is the datum on the
        clamped cells and zero elsewhere: after any cut a released side lies
        in a piece with no clamp, whose field is zero.  (The penalty's trace
        tolerance scales with the largest clamped value, the field's maximum
        for a translation datum such as a stretch.)  The bulk is that of the
        clamp columns a cut leaves alone (`_cut_bulks`).
        """
        grid = self.grid
        if grid.n != 2:
            return None
        clamped = _clamped_cells(grid.shape, 1, cracks.released)[..., None]
        datum = np.where(clamped, _datum_values(grid, self.g), 0.0)
        e = self._energy(PlateField(grid, datum, cracks.broken))
        apart = [np.ones_like(cracks.broken[0]), *cracks.broken[1:]]
        ends = [rescaled_energy(PlateField(grid, np.where(end[:, None, None], datum, 0.0),
                                           apart), self.p, self.rho).bulk
                for end in (_lateral_cell_mask(grid.plan_shape, 0, side) for side in (0, 1))]
        bulk = _cut_bulks(ends, np.all(cracks.broken[0], axis=1))
        return bulk + (e.surface + self.column_area[0]) + e.boundary_penalty


def alternate_minimize(grid: PlateGrid, g: BoundaryDatum, p: LameParams,
                       rho: float, cfg: SolverConfig):
    """Alternate elastic solves with greedy column/release activation.

    Returns (field, cracks, EnergyBreakdown, energy_trace).
    """
    return _greedy_search(_FilmProblem(grid, g, p, rho), empty_cracks(grid.shape),
                          cfg.altmin_max_rounds)


# ---------------------------------------------------------------------------
# reduced (limit) problem


def _reduced_solve(plan_shape, omega_lo, omega_hi, cracks: CrackIndicator,
                   g: BoundaryDatum, Q: np.ndarray) -> KLState:
    """Minimize the bulk of E_0 at fixed cracks; Q is the C0 form matrix."""
    nd = len(plan_shape)
    n = nd + 1
    plan_h = _plan_h(plan_shape, omega_lo, omega_hi)
    Xp = _plan_points(plan_shape, omega_lo, omega_hi).reshape(-1, nd)
    area = float(np.prod(plan_h))
    fixed_cells = _clamped_cells(plan_shape, nd, cracks.released)
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


class _LimitProblem:
    """E_0^g on a fixed plan grid, for `_greedy_search`; states are KLStates."""

    def __init__(self, plan_shape, omega_lo, omega_hi, g: BoundaryDatum, p: LameParams):
        self.plan_shape = tuple(plan_shape)
        self.omega_lo, self.omega_hi, self.g, self.p = omega_lo, omega_hi, g, p
        self.Q = _form(p)
        nd = len(self.plan_shape)
        self.points = _plan_points(self.plan_shape, omega_lo, omega_hi).reshape(-1, nd)
        # crack column measure: 1 for n=2, face length for n=3
        plan_h = _plan_h(self.plan_shape, omega_lo, omega_hi)
        self.column_area = [float(np.prod(np.delete(plan_h, a))) for a in range(nd)]

    def solve(self, cracks: CrackIndicator):
        s = _reduced_solve(self.plan_shape, self.omega_lo, self.omega_hi, cracks,
                           self.g, self.Q)
        return s, self._energy(s)

    def _energy(self, s: KLState) -> EnergyBreakdown:
        return penalized_energies(s, self.p, self.g)

    def score_cuts(self, cracks: CrackIndicator):
        """Totals of the through-cuts of a 1D plan by the membrane alone.

        None on a 2D plan, and when the datum clamps a nonzero un; otherwise
        un and grad_un are zero in every candidate, and every piece a cut
        leaves has zero bulk (`_cut_bulks`; a lone cell has no membrane
        strain).  Surface and penalty are those of the state whose ubar is
        the datum on the clamped cells and zero elsewhere: after any cut a
        released side lies in a piece with no clamp, whose field is zero,
        and by the maximum principle of the membrane no value exceeds the
        clamps.
        """
        if len(self.plan_shape) != 1:
            return None
        N = self.plan_shape[0]
        fixed = _clamped_cells(self.plan_shape, 1, cracks.released)
        if np.any(np.asarray(self.g.un(self.points), dtype=float).reshape(-1)[fixed]):
            return None
        gub = np.asarray(self.g.ubar(self.points), dtype=float).reshape(N, 1)
        e = self._energy(KLState(2, self.plan_shape, tuple(self.omega_lo),
                                 tuple(self.omega_hi), np.where(fixed[:, None], gub, 0.0),
                                 np.zeros(N), np.zeros((N, 1)), cracks.broken))
        return np.full(N - 1, (e.surface + self.column_area[0]) + e.boundary_penalty)


def minimize_limit(plan_shape, omega_lo, omega_hi, g: BoundaryDatum,
                   p: LameParams, cfg: SolverConfig):
    """Minimize E_0^g over KL states with vertical column cracks.

    Returns (KLState, cracks, EnergyBreakdown, energy_trace).
    """
    plan_shape = tuple(plan_shape)
    return _greedy_search(_LimitProblem(plan_shape, omega_lo, omega_hi, g, p),
                          empty_cracks(plan_shape), cfg.altmin_max_rounds)
