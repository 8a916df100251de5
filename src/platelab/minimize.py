"""Alternating minimization of the penalized plate energies.

At fixed crack the bulk term is a convex quadratic in the cell values.  A
piece of the stiffness's graph that the clamped values do not load stays
zero; the loaded pieces are minimized by one direct solve, factored in this
order: a banded Cholesky in reverse Cuthill-McKee order; a symmetric-mode
sparse LU when the Cholesky meets a non-positive pivot; a dense
minimum-norm least squares when the LU factor is exactly singular.  Each
round of crack activation offers moves, every open vertical face column
and every unreleased side, and keeps the best strict improvement.  One greedy
search loop serves the rescaled and the limit problem.  On a 1D plan no
piece holds two clamp columns after any move, so every move's total is
the energy of its rigid state: each piece zero, or its clamp column's
datum continued rigidly at zero strain.  The round's winner takes that
rigid state, certified a minimizer of the bulk, with no solve; so such a
search factors only its starting state.  The bulk quadratics are declared
once in :mod:`.energy` (`_film_bulk`, `_plate_bulk`); both fixed-crack
solves are one loop over them (`_clamped_solve`), which holds each value
array to its datum on the plan cells of the unreleased sides
(`_clamped_cells`, a mask of the leading plan axes).  The stencil builders of
:mod:`.kirchhoff_love` keep the blocks of the 4 crack patterns read last,
so a search builds each pattern's stencils once: a state's solve and its
energies share them, a round's releases read the pattern of the state
they leave, and a 1D round's winner reads its cut kind's.  A search
samples and lifts its datum once, for every clamp and every penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .elasticity import LameParams
from .energy import (BoundaryDatum, EnergyBreakdown, _bulk, _film_bulk, _kl_trace,
                     _plate_bulk, _trace_penalty, limit_energy, rescaled_energy)
from .kirchhoff_love import (KLState, PlateField, PlateGrid, _apply_stencil, _empty_breaks,
                             _lift, _side, reduced_gradient)
# unused here; bench/tracer.py wraps these names in this module
from .elasticity import quadratic_form_C, quadratic_form_C0, rescale_strain  # noqa: F401
from .energy import boundary_penalty, penalized_energies  # noqa: F401
from .kirchhoff_love import _face_blocked  # noqa: F401


# relative slack of the strict-descent test of the greedy crack search
_DESCENT_SLACK = 1e-10
# relative width of a tie between candidate totals: the earlier candidate wins
_TIE_SLACK = 1e-12
# relative slack of a scored winner's certificate: the bulk of its cells that
# read a free dof, and |total - score|
_CHECK_SLACK = 1e-10
# relative residual of a singular block's least-squares minimizer
_RESIDUAL_SLACK = 1e-9


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


def _reduced_system(stencil, Q: np.ndarray, weight: float, fixed_mask, fixed_vals):
    """Free block Kff and load b = -K_free,fixed x_fixed of the bulk quadratic.

    K = weight * S^T (I kron Q) S for the stencil blocks S = (cols, vals)
    of shape (ncell, k, w), k = len(Q), assembled cell by cell:
    K[i, j] += weight * vals[c, a, s] Q[a, b] vals[c, b, t] with
    i = cols[c, a, s] and j = cols[c, b, t], over all pairs of a cell's
    k * w slots.  Only pairs with a free row and a nonzero value are kept,
    so zero-weight slots drop out; K itself is never formed.
    """
    import scipy.sparse as sp  # loaded here, not by `import platelab`

    cols, vals = stencil
    ncell, k, w = vals.shape
    A = np.repeat(np.arange(k), w)  # the row of each of a cell's slots
    J, V = cols.reshape(ncell, k * w), vals.reshape(ncell, k * w)
    pair = (weight * V[:, :, None]) * Q[A[:, None], A] * V[:, None, :]
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


def _solve_constrained(Kff, b):
    """Minimize (1/2) y.Kff y - b.y, Kff symmetric positive semidefinite.

    A component of Kff's graph whose load b is zero stays at exactly 0, the
    minimum-norm minimizer of its part.  The loaded ones (all of Kff when
    every one is loaded) are solved together by `_solve_block`: banded
    Cholesky, then sparse LU, then dense least squares.
    """
    from scipy.sparse.csgraph import connected_components  # not by `import platelab`

    y = np.zeros(b.size)
    ncomp, comp = connected_components(Kff, directed=False)
    loaded = np.zeros(ncomp, dtype=bool)
    loaded[comp[b != 0.0]] = True
    if not loaded.any():
        return y
    keep = loaded[comp]
    y[keep] = _solve_block(Kff if loaded.all() else Kff[keep][:, keep], b[keep])
    return y


def _solve_block(A, rhs):
    """y with A y = rhs, for A a sparse CSC block with no duplicate entries,
    symmetric positive semidefinite.  Every factorization of a loaded block
    is made here, in this order:

    1. LAPACK's banded Cholesky (dpbtrf and dpbtrs, called directly: the
       checks of scipy.linalg.cholesky_banded cost more than the factor of
       a small block) of A in reverse Cuthill-McKee order, unless A's own
       order has the narrowest band any order can have, as a chain does.
       The upper band is packed straight from the CSC arrays.  The solve
       takes one step of iterative refinement on a residual summed in
       np.longdouble (80-bit on x86), which keeps the ill-conditioned film
       accurate at small rho.
    2. When the Cholesky meets a non-positive pivot (A singular, or too
       ill-conditioned, as the film is at rho <= 1e-4): a symmetric-mode
       sparse LU (``scipy.sparse.linalg.splu``, minimum degree on A^T + A,
       diagonal pivots).
    3. When that factor is exactly singular: the dense minimum-norm
       least-squares solution, and RuntimeError when it misses the load.
    """
    # loaded here, at the first solve, not by `import platelab`
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = rhs.size
    counts = np.diff(A.indptr)
    r, c = A.indices, np.repeat(np.arange(n), counts)  # entry (r, c) of A
    # no order has a band narrower than half the most neighbours a dof has
    # (counts less its diagonal), rounded up; keep A's order when it has
    # that band already
    perm = None
    if 2 * np.max(np.abs(c - r), initial=0) > counts.max(initial=0):
        perm = reverse_cuthill_mckee(A, symmetric_mode=True)
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        r, c = rank[r], rank[c]  # entry (r, c) of A[perm][:, perm]
    upper = r <= c
    r, c = r[upper], c[upper]
    width = int(np.max(c - r, initial=0))
    # LAPACK's upper band storage ab[width + r - c, c], column-major
    ab = np.zeros(n * (width + 1))
    ab[(c + 1) * width + r] = A.data[upper]
    cb, info = dpbtrf(ab.reshape(n, width + 1).T, overwrite_ab=1)
    if info == 0:  # info > 0: a non-positive pivot
        def solve(v):
            return dpbtrs(cb, v)[0] if perm is None else dpbtrs(cb, v[perm])[0][rank]

        y = solve(rhs)
        # A is symmetric, so (A y)_j sums column j; no column of a definite
        # A is empty
        Ay = np.add.reduceat(np.multiply(A.data, y[A.indices], dtype=np.longdouble),
                             A.indptr[:-1])
        return y + solve(rhs - Ay)
    import scipy.sparse.linalg as spla
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError:  # exactly singular
        A = A.toarray()
        z = np.linalg.lstsq(A, rhs, rcond=None)[0]
        scale = max(1.0, np.abs(A).max()) * max(1.0, np.abs(z).max())
        if np.abs(A @ z - rhs).max() > _RESIDUAL_SLACK * scale:
            raise RuntimeError("singular free block with a load outside its range") from None
        return z
    return lu.solve(rhs)


def _clamped_cells(plan_shape: tuple, released) -> np.ndarray:
    """Plan cells on the lateral sides of the plan, except the sides in
    `released`; the mask indexes the leading plan axes of a value array."""
    fixed = np.zeros(plan_shape, dtype=bool)
    for axis in range(len(plan_shape)):
        for side in (0, 1):
            if (axis, side) not in released:
                fixed[_side(plan_shape, axis, side)] = True
    return fixed


def _clamped_solve(quadratics, data, clamped) -> list:
    """Minimize each bulk quadratic (stencil thunk, form, cell weight), its
    values held to its datum array on the clamped plan cells.  A quadratic
    whose clamped values are all zero has the zero minimizer: its stencil
    is not built."""
    out = []
    for (stencil, Q, weight), datum in zip(quadratics, data):
        fixed = np.zeros(datum.shape, dtype=bool)
        fixed[clamped] = True
        fixed, vals = fixed.ravel(), datum.ravel()
        x = np.where(fixed, vals, 0.0)
        if x.any():
            Kff, b = _reduced_system(stencil(), Q, weight, fixed, vals)
            x[~fixed] = _solve_constrained(Kff, b)
        out.append(x.reshape(datum.shape))
    return out


# ---------------------------------------------------------------------------
# moves of a 1D plan


def _piece_clamps(broken, released) -> np.ndarray:
    """The clamp column in the piece of each column of a 1D chain, or -1.

    broken: flags of the faces between columns; released: the released
    sides (axis 0, side).  A piece is a run of columns between broken
    faces; no piece may hold both clamp columns.
    """
    piece = np.concatenate([[0], np.cumsum(broken)])
    clamp = np.full(piece.size, -1)
    for side, c in enumerate((0, piece.size - 1)):
        if (0, side) not in released:
            clamp[piece == piece[c]] = c
    return clamp


def _line_scores(problem, cracks: CrackIndicator, moves) -> np.ndarray:
    """Exact total of each move of a 1D plan, with no solve.

    After any move no piece holds two clamp columns: a through-cut parts
    the chain's ends and a release drops one.  So a move's minimizer is
    problem._rigid_state(broken, released), the field of each piece fixed
    by its clamp column alone, and its total is that state's energy.  A
    cut adds one whole column of faces, and its pieces are zero, a clamp
    column alone, or a clamp column continued at zero strain; so its total
    depends only on whether it leaves the first column alone and whether
    it leaves the last one alone.  A broken end face leaves its column
    alone after every cut, so among the open faces that is decided by
    whether the cut is the first or the last face.  One cut of each kind
    is evaluated and its total reused.
    """
    kinds = {}  # (first face, last face) -> total
    totals = []
    for axis, where in moves:
        if isinstance(where, tuple):
            kind = (where[0] == 0, where[0] == len(cracks.broken[axis]) - 1)
            if kind not in kinds:
                broken = [b.copy() for b in cracks.broken]
                broken[axis][where] = True
                kinds[kind] = problem._energy(
                    problem._rigid_state(broken, cracks.released)).total
            totals.append(kinds[kind])
        else:
            state = problem._rigid_state(cracks.broken, cracks.released | {(axis, where)})
            totals.append(problem._energy(state).total)
    return np.array(totals, dtype=float)


# ---------------------------------------------------------------------------
# rescaled (full-thickness) problem


def elastic_solve(grid: PlateGrid, cracks: CrackIndicator, g: BoundaryDatum,
                  p: LameParams, rho: float) -> PlateField:
    """Minimize the bulk of E_rho (`_film_bulk`) at fixed cracks, datum
    clamped on unreleased sides.  g is a BoundaryDatum or its state lifted
    to the grid's layers (`_lift`), as a search passes it."""
    quadratics = _film_bulk(grid, cracks.broken, p, rho)
    if not isinstance(g, np.ndarray):
        g = _lift(g.state(grid.plan_shape, grid.omega_lo, grid.omega_hi), grid.z_centers())
    [x] = _clamped_solve(quadratics, [g], _clamped_cells(grid.plan_shape, cracks.released))
    return PlateField(grid, x, [b.copy() for b in cracks.broken])


def _solve_move(problem, cracks: CrackIndicator, move, score=None):
    """(candidate, state, EnergyBreakdown) of `cracks` after one move (axis,
    where): `where` is a face index of that axis's broken array for a column
    and a side (0 or 1) for a release.  Only here is a candidate built.

    An unscored move is solved.  A scored one takes problem._rigid_state.
    The bulk sums a term >= 0 per stencil cell, and a cell that reads only
    clamped dofs has one term in every state that holds the datum there.
    So a state that holds the datum on the candidate's clamped cells
    (problem._bulk_parts) minimizes the bulk when every cell that reads a
    free dof adds zero.  RuntimeError unless so, those cells' bulk within
    _CHECK_SLACK relative, and its total is `score`, to the same slack.
    """
    axis, where = move
    cand = cracks.copy()
    if isinstance(where, tuple):
        cand.broken[axis][where] = True
    else:
        cand.released.add((axis, where))
    if score is None:
        return (cand, *problem.solve(cand))
    state = problem._rigid_state(cand.broken, cand.released)
    e = problem._energy(state)
    clamped = _clamped_cells(problem.plan_shape, cand.released)
    held, loose = True, 0.0  # loose: the bulk of the cells that read a free dof
    for x, d, stencil, Q, weight in problem._bulk_parts(state):
        held &= np.array_equal(x[clamped], d[clamped])
        if np.any(x):  # a zero field has zero rows; its stencil is not built
            cols, vals = stencil()
            fixed = np.zeros(x.shape, dtype=bool)
            fixed[clamped] = True
            free = np.any(~fixed.ravel()[cols] & (vals != 0.0), axis=(1, 2))
            loose += _bulk(_apply_stencil((cols, vals), x)[free], Q, weight)
    slack = _CHECK_SLACK * max(1.0, abs(e.total))
    if not (held and loose <= slack and abs(e.total - score) <= slack):
        raise RuntimeError(f"move {move!r} scored {float(score)!r}, but its rigid state "
                           f"(bulk {loose!r} on cells that read a free dof, "
                           f"total {float(e.total)!r}) is not certified")
    return cand, state, e


def _greedy_search(problem, cracks: CrackIndicator, rounds: int):
    """Greedy crack activation from `cracks` by strict descent of the total.

    `problem` has `plan_shape`, `column_area` (the surface a new face column
    along each plan axis adds) and two methods: solve(cracks) -> (state,
    EnergyBreakdown), and score_moves(cracks, moves), the exact total of
    every offered move, or None where they have no closed form.  A problem
    that scores also has _rigid_state(broken, released), _energy(state) and
    _bulk_parts(state), with which `_solve_move` certifies a scored winner.

    Each round offers moves: the open columns of each plan axis (a column
    is open unless every face in it is broken), in index order, then the
    unreleased sides.  An axis whose column surface alone cannot descend
    offers no column.  The moves are scored by score_moves when it applies;
    otherwise each is solved on its candidate crack (`_solve_move`).  The
    lowest total wins; totals within _TIE_SLACK (relative) of it tie, and a
    tie goes to the earliest move.  A winner that lowers the total is kept.
    A scored winner is not solved: its state is its certified rigid state
    (`_solve_move` with its score), so a search that scores every round
    factors only its starting state.  At most `rounds` rounds.

    Returns (state, cracks, EnergyBreakdown, energy_trace).
    """
    nd = len(problem.plan_shape)
    state, e = problem.solve(cracks)
    trace = [e.total]
    for _ in range(rounds):
        floor = trace[-1] - _DESCENT_SLACK * max(1.0, trace[-1])
        moves = []
        for axis, area in enumerate(problem.column_area):
            if e.surface + area < floor:
                b = cracks.broken[axis]
                open_cols = ~np.all(b.reshape(b.shape[:nd] + (-1,)), axis=-1)
                moves += [(axis, tuple(k)) for k in np.argwhere(open_cols).tolist()]
        moves += [(axis, side) for axis in range(nd) for side in (0, 1)
                  if (axis, side) not in cracks.released]
        if not moves:
            break
        scores = problem.score_moves(cracks, moves)
        solved = None  # (candidate, state, EnergyBreakdown) of each unscored move
        if scores is None:
            solved = [_solve_move(problem, cracks, move) for move in moves]
            scores = [s[2].total for s in solved]
        totals = np.asarray(scores, dtype=float)
        best = totals.min()
        win = int(np.argmax(totals <= best + _TIE_SLACK * max(1.0, abs(best))))
        if totals[win] >= floor:
            break
        cracks, state, e = (solved[win] if solved is not None
                            else _solve_move(problem, cracks, moves[win], totals[win]))
        trace.append(e.total)
    return state, cracks, e, trace


class _FilmProblem:
    """E_rho^g on a fixed grid, for `_greedy_search`; states are PlateFields.

    The datum is sampled and lifted once: the lift is every solve's clamp
    values and every state's penalty datum.
    """

    def __init__(self, grid: PlateGrid, g: BoundaryDatum, p: LameParams, rho: float):
        self.grid, self.p, self.rho = grid, p, rho
        self.plan_shape = grid.plan_shape
        self.datum = g.state(grid.plan_shape, grid.omega_lo, grid.omega_hi)
        self.lifted = _lift(self.datum, grid.z_centers())
        self.lifted.flags.writeable = False
        # a vertical column adds grid.layers faces of this area (weight 1)
        self.column_area = [grid.layers * float(np.prod(np.delete(grid.spacings, a)))
                            for a in range(grid.n - 1)]

    def solve(self, cracks: CrackIndicator):
        u = elastic_solve(self.grid, cracks, self.lifted, self.p, self.rho)
        return u, self._energy(u)

    def _energy(self, u: PlateField) -> EnergyBreakdown:
        e = rescaled_energy(u, self.p, self.rho)
        return replace(e, boundary_penalty=_trace_penalty(u, self.lifted))

    def score_moves(self, cracks: CrackIndicator, moves):
        """Totals of `moves` by `_line_scores`.  None on a 2D plan, and when
        a broken face lies outside a whole vertical column: a cell it cuts
        off along one axis strains a piece's rigid continuation."""
        b = cracks.broken
        if (self.grid.n != 2 or np.any(b[1])
                or np.any(np.any(b[0], axis=1) != np.all(b[0], axis=1))):
            return None
        return _line_scores(self, cracks, moves)

    def _rigid_state(self, broken, released) -> PlateField:
        """The film on a 1D plan whose every piece holds at most one clamp column.

        A piece with no clamp is zero.  A piece with clamp column c carries
        the datum state of c continued rigidly, ubar(x_c), grad_un(x_c) and
        un(x_c) + grad_un(x_c) (x - x_c), lifted; that is c's datum on c
        and has zero discrete strain.  With one layer the z-difference is
        zero, so the continuation is the translation (slope 0).
        """
        grid, d = self.grid, self.datum
        clamp = _piece_clamps(np.all(broken[0], axis=1), released)
        c = np.maximum(clamp, 0)
        un = d.un[c]
        if grid.layers > 1:
            x = d.plan_points().reshape(-1)
            un = un + d.grad_un[c, 0] * (x - x[c])
        values = _lift(replace(d, ubar=d.ubar[c], un=un, grad_un=d.grad_un[c]),
                       grid.z_centers())
        return PlateField(grid, np.where((clamp >= 0)[:, None, None], values, 0.0), broken)

    def _bulk_parts(self, u: PlateField):
        """(values, datum values, stencil thunk, form, cell weight) of u's
        one bulk quadratic (`_film_bulk`), plan axes first."""
        return [(u.values, self.lifted, *q)
                for q in _film_bulk(self.grid, u.broken, self.p, self.rho)]


def alternate_minimize(grid: PlateGrid, g: BoundaryDatum, p: LameParams,
                       rho: float, cfg: SolverConfig):
    """Alternate elastic solves with greedy column/release activation.

    Returns (field, cracks, EnergyBreakdown, energy_trace).
    """
    return _greedy_search(_FilmProblem(grid, g, p, rho), empty_cracks(grid.shape),
                          cfg.altmin_max_rounds)


# ---------------------------------------------------------------------------
# reduced (limit) problem


def _reduced_solve(d: KLState, cracks: CrackIndicator, p: LameParams) -> KLState:
    """Minimize the bulk of E_0, its membrane and bending quadratics
    (`_plate_bulk`), at fixed cracks, clamped to the datum state d on the
    unreleased sides."""
    h = d.plan_h
    ubar, un = _clamped_solve(_plate_bulk(d.plan_shape, h, cracks.broken, p), [d.ubar, d.un],
                              _clamped_cells(d.plan_shape, cracks.released))
    return replace(d, ubar=ubar, un=un, grad_un=reduced_gradient(un, h, cracks.broken),
                   crack_cols=[b.copy() for b in cracks.broken])


class _LimitProblem:
    """E_0^g on a fixed plan grid, for `_greedy_search`; states are KLStates.

    The datum is sampled once, and its trace rows are every state's
    penalty datum.
    """

    def __init__(self, plan_shape, omega_lo, omega_hi, g: BoundaryDatum, p: LameParams):
        self.p = p
        self.datum = g.state(plan_shape, omega_lo, omega_hi)
        self.plan_shape = self.datum.plan_shape
        self.datum_trace = _kl_trace(self.datum)
        # crack column measure: 1 for n=2, face length for n=3
        self.column_area = [float(np.prod(np.delete(self.datum.plan_h, a)))
                            for a in range(len(self.plan_shape))]

    def solve(self, cracks: CrackIndicator):
        s = _reduced_solve(self.datum, cracks, self.p)
        return s, self._energy(s)

    def _energy(self, s: KLState) -> EnergyBreakdown:
        e = limit_energy(s, self.p)
        return replace(e, boundary_penalty=_trace_penalty(s, self.datum_trace))

    def score_moves(self, cracks: CrackIndicator, moves):
        """Totals of `moves` by `_line_scores`, by the membrane alone.

        None on a 2D plan, and when the datum clamps a nonzero un; otherwise
        un and grad_un are zero after every move.
        """
        if len(self.plan_shape) != 1:
            return None
        if np.any(self.datum.un[_clamped_cells(self.plan_shape, cracks.released)]):
            return None
        return _line_scores(self, cracks, moves)

    def _rigid_state(self, broken, released) -> KLState:
        """The state with zero un on a 1D plan whose every piece holds at most
        one clamp cell: ubar is the clamp's datum on its piece, zero elsewhere."""
        d = self.datum
        clamp = _piece_clamps(broken[0], released)
        ubar = np.where((clamp >= 0)[:, None], d.ubar[np.maximum(clamp, 0)], 0.0)
        return replace(d, ubar=ubar, un=np.zeros_like(d.un),
                       grad_un=np.zeros_like(d.grad_un), crack_cols=broken)

    def _bulk_parts(self, s: KLState):
        """(values, datum values, stencil thunk, form, cell weight) of the
        membrane (ubar) and the bending (un) quadratic of s (`_plate_bulk`),
        plan axes first."""
        d = self.datum
        return [(x, dx, *q) for x, dx, q in zip(
            (s.ubar, s.un), (d.ubar, d.un),
            _plate_bulk(s.plan_shape, s.plan_h, s.crack_cols, self.p))]


def minimize_limit(plan_shape, omega_lo, omega_hi, g: BoundaryDatum,
                   p: LameParams, cfg: SolverConfig):
    """Minimize E_0^g over KL states with vertical column cracks.

    Returns (KLState, cracks, EnergyBreakdown, energy_trace).
    """
    plan_shape = tuple(plan_shape)
    return _greedy_search(_LimitProblem(plan_shape, omega_lo, omega_hi, g, p),
                          empty_cracks(plan_shape), cfg.altmin_max_rounds)
