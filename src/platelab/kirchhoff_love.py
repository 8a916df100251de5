"""Reduced plate states, their 3D lifts, and structure verification.

Displacements live at cell centers of a tensor grid over omega x (-1/2, 1/2);
cracks are unions of cell faces, encoded by per-axis break-indicator arrays.
The break-aware stencils `_derivative_operator` and `_hessian_operator` are
the one discretization that the solver of :mod:`.minimize` and the
energies of :mod:`.energy` share.  A stencil is a pair of blocks (cols,
vals) of shape (ncell, k, w): row r of cell c is the sum over its w slots
of vals[c, r, s] x[cols[c, r, s]], and `_apply_stencil` evaluates it.
Both keep the read-only blocks of the _STENCIL_PATTERNS = 4 crack patterns
read last (`_memo`), so a solve and the energies of its state, and every
state of one pattern, share one build.
The thickness layers use a midpoint layout symmetric about z = 0, so the
x_n-odd part of a lifted field integrates to zero exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PlateGrid:
    """Cell-centered grid on omega x (-1/2, 1/2), the unit-thickness film,
    with uniform spacing per axis."""

    n: int
    plan_shape: tuple
    layers: int
    omega_lo: tuple
    omega_hi: tuple

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        _check_plan(self.n, self.plan_shape, self.omega_lo, self.omega_hi)
        if self.layers < 1 or any(s < 1 for s in self.plan_shape):
            raise ValueError("grid sizes must be positive")

    @property
    def plan_h(self) -> np.ndarray:
        return _plan_h(self.plan_shape, self.omega_lo, self.omega_hi)

    def plan_points(self) -> np.ndarray:
        return _plan_points(self.plan_shape, self.omega_lo, self.omega_hi)

    @property
    def hz(self) -> float:
        return 1.0 / self.layers

    @property
    def shape(self) -> tuple:
        return self.plan_shape + (self.layers,)

    @property
    def spacings(self) -> np.ndarray:
        return np.append(self.plan_h, self.hz)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def z_centers(self) -> np.ndarray:
        return _z_centers(self.layers)


def _z_centers(layers: int) -> np.ndarray:
    """Midpoints of `layers` equal layers of the unit thickness (-1/2, 1/2),
    each 1 / layers thick.  ValueError unless layers is a positive integer."""
    if not isinstance(layers, (int, np.integer)) or layers < 1:
        raise ValueError(f"layers must be a positive integer, got {layers!r}")
    return -0.5 + (1.0 / layers) * (np.arange(layers) + 0.5)


def _check_plan(n: int, plan_shape, omega_lo, omega_hi) -> None:
    """Raise ValueError unless the plan and both omega bounds have n - 1 entries."""
    if not len(plan_shape) == len(omega_lo) == len(omega_hi) == n - 1:
        raise ValueError(f"plan, omega_lo and omega_hi must have n - 1 = {n - 1} "
                         f"entries each, got {len(plan_shape)}, {len(omega_lo)} "
                         f"and {len(omega_hi)}")


def _plan_h(plan_shape: tuple, lo, hi) -> np.ndarray:
    """Cell widths of the uniform plan grid of `plan_shape` cells on [lo, hi]."""
    return (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)) / np.asarray(plan_shape)


def _plan_points(plan_shape: tuple, lo, hi) -> np.ndarray:
    """Plan cell centers, shape (*plan_shape, nd)."""
    h = _plan_h(plan_shape, lo, hi)
    axes = [lo[a] + h[a] * (np.arange(k) + 0.5) for a, k in enumerate(plan_shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _side(shape: tuple, axis: int, side: int) -> tuple:
    """Index of the cells on the minus (side 0) or plus (side 1) end of `axis`."""
    sl = [slice(None)] * len(shape)
    sl[axis] = 0 if side == 0 else shape[axis] - 1
    return tuple(sl)


def _face_shapes(shape: tuple) -> list:
    """Per axis, the shape of the interior faces of `shape` cells across it."""
    return [tuple(k - (a == b) for b, k in enumerate(shape)) for a in range(len(shape))]


def _empty_breaks(shape: tuple) -> list:
    return [np.zeros(s, dtype=bool) for s in _face_shapes(shape)]


def _checked_breaks(name: str, breaks, shape: tuple) -> list:
    """breaks, or `_empty_breaks(shape)` for None.  ValueError unless breaks
    holds one bool array per axis of `shape`, of exactly those shapes: a
    broadcastable wrong shape would otherwise reach the stencils unnoticed."""
    if breaks is None:
        return _empty_breaks(shape)
    faces = _face_shapes(shape)
    if len(breaks) != len(faces):
        raise ValueError(f"{name} needs {len(faces)} arrays, one per axis, got {len(breaks)}")
    for a, (b, s) in enumerate(zip(breaks, faces)):
        if getattr(b, "dtype", None) != bool or b.shape != s:
            raise ValueError(f"{name}[{a}] must be a bool array of shape {s}, got "
                             f"{getattr(b, 'dtype', type(b).__name__)} of shape {np.shape(b)}")
    return breaks


@dataclass
class PlateField:
    """Vector displacement on a plate grid with per-face break indicators."""

    grid: PlateGrid
    values: np.ndarray  # (*shape, n)
    broken: list = field(default=None)  # per axis, bool over interior faces

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = self.grid.shape + (self.grid.n,)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != {expect}")
        self.broken = _checked_breaks("broken", self.broken, self.grid.shape)

    def broken_face_area(self, axis: int) -> float:
        """Area of one grid face orthogonal to the given axis."""
        sp = self.grid.spacings
        return float(np.prod(np.delete(sp, axis)))

    def nonvertical_broken_count(self) -> int:
        return int(np.count_nonzero(self.broken[self.grid.n - 1]))


@dataclass
class KLState:
    """Reduced plate state: membrane ubar, deflection un, its gradient, cracks."""

    n: int
    plan_shape: tuple
    omega_lo: tuple
    omega_hi: tuple
    ubar: np.ndarray  # (*plan_shape, n-1)
    un: np.ndarray  # (*plan_shape,)
    grad_un: np.ndarray  # (*plan_shape, n-1)
    crack_cols: list = field(default=None)  # per plan axis, bool over faces

    def __post_init__(self):
        self.ubar = np.asarray(self.ubar, dtype=float)
        self.un = np.asarray(self.un, dtype=float)
        self.grad_un = np.asarray(self.grad_un, dtype=float)
        _check_plan(self.n, self.plan_shape, self.omega_lo, self.omega_hi)
        ps = tuple(self.plan_shape)
        vector = ps + (self.n - 1,)
        for name, shape in (("ubar", vector), ("un", ps), ("grad_un", vector)):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape mismatch")
        self.crack_cols = _checked_breaks("crack_cols", self.crack_cols, ps)

    @property
    def plan_h(self) -> np.ndarray:
        return _plan_h(self.plan_shape, self.omega_lo, self.omega_hi)

    def plan_points(self) -> np.ndarray:
        return _plan_points(self.plan_shape, self.omega_lo, self.omega_hi)

    def crack_measure(self) -> float:
        """(n-2)-measure of the crack lines (count for n=2, length for n=3)."""
        return float(sum(np.count_nonzero(c) * np.prod(np.delete(self.plan_h, a))
                         for a, c in enumerate(self.crack_cols)))


# ---------------------------------------------------------------------------
# break-aware finite differences


def _face_blocked(shape: tuple, axis: int, broken: np.ndarray | None):
    """Per-cell flags: is the minus/plus face along `axis` a boundary or break."""
    blocked_m = np.zeros(shape, dtype=bool)
    blocked_p = np.zeros(shape, dtype=bool)
    blocked_m[_side(shape, axis, 0)] = True
    blocked_p[_side(shape, axis, 1)] = True
    if broken is not None:
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(1, None)
        blocked_m[tuple(sl)] |= broken
        sl[axis] = slice(0, -1)
        blocked_p[tuple(sl)] |= broken
    return blocked_m, blocked_p


def cell_derivative(vals: np.ndarray, axis: int, h: float,
                    broken: np.ndarray | None) -> np.ndarray:
    """Per-cell central derivative along one axis, one-sided at breaks.

    Centered where both neighbor faces are open, forward or backward where
    only one is, zero when the cell is isolated along this axis.
    """
    bm, bp = _face_blocked(vals.shape, axis, broken)
    plus = np.roll(vals, -1, axis=axis)
    minus = np.roll(vals, 1, axis=axis)
    fwd = (plus - vals) / h
    bwd = (vals - minus) / h
    cen = (plus - minus) / (2.0 * h)
    return np.where(~bm & ~bp, cen, np.where(~bp, fwd, np.where(~bm, bwd, 0.0)))


def _cell_blocks(cols: np.ndarray, vals: np.ndarray):
    """Stencil blocks (cols, vals) of shape (ncell, k1*k2, w) from arrays of
    shape (k1, k2, w, *cells).  The builders write row- and slot-major, one
    contiguous plane of cells at a time, and transpose once here."""
    k1, k2, w = cols.shape[:3]
    return tuple(np.moveaxis(x, (0, 1, 2), (-3, -2, -1)).reshape(-1, k1 * k2, w)
                 for x in (cols, vals))


def _build_derivative(shape: tuple, spacings, broken: list, ncomp: int):
    """Stencil blocks (cols, vals), shape (ncell, ncomp*nd, 2), of the map
    from cell dofs to per-cell derivative matrices D[m, a] in row m*nd + a.

    Slot 0 holds the high point, slot 1 the low one: a forward quotient
    (v[c+e_a] - v[c]) / h, a backward one (v[c] - v[c-e_a]) / h at a
    blocked plus-face, zero weights when the cell is isolated along a.
    """
    nd = len(shape)
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    cols = np.empty((ncomp, nd, 2) + flat.shape, dtype=int)
    vals = np.empty(cols.shape)
    for a in range(nd):
        bm, bp = _face_blocked(shape, a, broken[a])
        hi = np.where(bp, flat, np.roll(flat, -1, axis=a))
        lo = np.where(bp, np.roll(flat, 1, axis=a), flat)
        w = np.where(bp & bm, 0.0, 1.0 / float(spacings[a]))
        for m in range(ncomp):
            cols[m, a] = hi * ncomp + m, lo * ncomp + m
            vals[m, a] = w, -w
    return _cell_blocks(cols, vals)


def _build_hessian(plan_shape: tuple, plan_h, crack_cols: list):
    """Stencil blocks (cols, vals), shape (ncell, nd*nd, 4), of the map from
    un dofs to per-cell Hessian entries H[a, b] in row a*nd + b.

    A diagonal row is the centered second difference where both faces are
    open, a one-sided shifted one otherwise, and zero where no admissible
    stencil exists; its fourth slot has zero weight.  A mixed row holds the
    four corners on cells centered along both axes, zero elsewhere.
    """
    nd = len(plan_shape)
    flat = np.arange(int(np.prod(plan_shape))).reshape(plan_shape)
    cols = np.empty((nd, nd, 4) + flat.shape, dtype=int)
    cols[...] = flat
    vals = np.zeros(cols.shape)
    for a in range(nd):
        bm, bp = _face_blocked(plan_shape, a, crack_cols[a])
        m2, m1, p1, p2 = (np.roll(flat, k, axis=a) for k in (2, 1, -1, -2))
        centered = ~bm & ~bp
        # shifted forward: the plus-face of the plus neighbor is open too
        fwd = ~centered & ~bp & ~np.roll(bp, -1, axis=a)
        bwd = ~centered & ~fwd & ~bm & ~np.roll(bm, 1, axis=a)
        h2 = float(plan_h[a]) ** 2
        # slots (m1, c, p1) centered, (c, p1, p2) forward, (c, m1, m2) backward
        cols[a, a, 0] = np.where(centered, m1, flat)
        cols[a, a, 1] = np.where(centered, flat, np.where(fwd, p1, m1))
        cols[a, a, 2] = np.where(centered, p1, np.where(fwd, p2, m2))
        on = centered | fwd | bwd
        for slot, w in enumerate((1.0, -2.0, 1.0)):
            vals[a, a, slot] = on * (w / h2)
        for b in range(a + 1, nd):
            # mixed second differences on cells centered in both axes
            bmb, bpb = _face_blocked(plan_shape, b, crack_cols[b])
            mixed = centered & ~bmb & ~bpb
            hab = float(plan_h[a]) * float(plan_h[b])
            for slot, (i, j) in enumerate(((1, 1), (-1, -1), (1, -1), (-1, 1))):
                corner = np.where(mixed, np.roll(np.roll(flat, -i, axis=a), -j, axis=b), flat)
                cols[a, b, slot] = cols[b, a, slot] = corner
                vals[a, b, slot] = vals[b, a, slot] = mixed * (0.25 * i * j / hab)
    return _cell_blocks(cols, vals)


# crack patterns whose stencils the builders keep: a search's current
# state's and one per through-cut kind of a 1D round
_STENCIL_PATTERNS = 4
_patterns = {}  # pattern key -> {(kind, ncomp): blocks}, read longest ago first


def _memo(kind, build, shape: tuple, spacings, broken: list, *args):
    """The stencil blocks build(shape, spacings, broken, *args), built once
    per crack pattern and read-only.

    A pattern is keyed by the shape, the bytes of the spacings and each
    broken array's shape and bytes; its blocks of each kind (and ncomp)
    are built on its first read.  The _STENCIL_PATTERNS patterns read last
    are kept; a new one evicts the one read longest ago.
    """
    key = (tuple(shape), np.asarray(spacings, dtype=float).tobytes(),
           *((b.shape, b.tobytes()) for b in broken))
    blocks = _patterns.pop(key, {})
    _patterns[key] = blocks
    while len(_patterns) > _STENCIL_PATTERNS:
        del _patterns[next(iter(_patterns))]
    entry = (kind, *args)
    if entry not in blocks:
        blocks[entry] = build(shape, spacings, broken, *args)
        for x in blocks[entry]:
            x.flags.writeable = False
    return blocks[entry]


def _derivative_operator(shape: tuple, spacings, broken: list, ncomp: int):
    """The read-only `_build_derivative` blocks of this grid and crack
    pattern, built once while the pattern is among the last
    _STENCIL_PATTERNS read (`_memo`)."""
    return _memo("derivative", _build_derivative, shape, spacings, broken, ncomp)


def _hessian_operator(plan_shape: tuple, plan_h, crack_cols: list):
    """The read-only `_build_hessian` blocks of this plan and crack pattern,
    built once while the pattern is among the last _STENCIL_PATTERNS read
    (`_memo`)."""
    return _memo("hessian", _build_hessian, plan_shape, plan_h, crack_cols)


def _apply_stencil(stencil, x: np.ndarray) -> np.ndarray:
    """Rows d = S x, shape (ncell, k), of the stencil blocks S = (cols, vals):
    d[c, r] = sum_s vals[c, r, s] x[cols[c, r, s]], added in slot order."""
    cols, vals = stencil
    return sum(np.moveaxis(vals * np.ravel(x)[cols], -1, 0))


def cell_strains(u: PlateField) -> np.ndarray:
    """Per-cell symmetric strain tensors, shape (*shape, n, n): the
    symmetrized derivative matrices D of `_derivative_operator`."""
    g = u.grid
    n = g.n
    D = _apply_stencil(_derivative_operator(g.shape, g.spacings, u.broken, n), u.values)
    D = D.reshape(g.shape + (n, n))  # D[..., m, a] = d u_m / d x_a
    return 0.5 * (D + np.swapaxes(D, -1, -2))


# ---------------------------------------------------------------------------
# lift / average / slice operations


def _lift(s: KLState, z) -> np.ndarray:
    """(ubar - z grad_un, un) at the heights z, shape (*plan_shape, len(z), n)."""
    z = np.asarray(z, dtype=float)[:, None]
    membrane = s.ubar[..., None, :] - z * s.grad_un[..., None, :]
    un = np.broadcast_to(s.un[..., None, None], membrane.shape[:-1] + (1,))
    return np.concatenate([membrane, un], axis=-1)


def kl_lift(s: KLState, layers: int) -> PlateField:
    """3D displacement u_alpha = ubar_alpha - x_n d_alpha u_n, u_n = un, on
    the unit thickness (-1/2, 1/2), broken on crack_cols x (all layers)."""
    grid = PlateGrid(s.n, tuple(s.plan_shape), layers, s.omega_lo, s.omega_hi)
    broken = _empty_breaks(grid.shape)
    for a in range(s.n - 1):
        broken[a][:] = s.crack_cols[a][..., None]
    return PlateField(grid, _lift(s, grid.z_centers()), broken)


def kl_average(u: PlateField) -> np.ndarray:
    """Thickness averages of the in-plane components (midpoint quadrature)."""
    n = u.grid.n
    return u.values[..., : n - 1].mean(axis=n - 1)


def extract_psi(u: PlateField, t1: float, t2: float):
    """Two-slice quotient psi_alpha = (u_alpha(., t1) - u_alpha(., t2)) / (t2 - t1).

    Slices snap to the nearest cell layers.  Returns (psi, excluded) where
    excluded marks plan columns with a horizontal break between the slices.
    """
    g = u.grid
    z = g.z_centers()
    k1 = int(np.argmin(np.abs(z - t1)))
    k2 = int(np.argmin(np.abs(z - t2)))
    if k1 == k2:
        raise ValueError("slice levels snap to the same layer")
    z1, z2 = z[k1], z[k2]
    n = g.n
    psi = (u.values[..., k1, : n - 1] - u.values[..., k2, : n - 1]) / (z2 - z1)
    lo, hi = min(k1, k2), max(k1, k2)
    hbreaks = u.broken[n - 1]
    sl = [slice(None)] * (n - 1) + [slice(lo, hi)]
    excluded = np.any(hbreaks[tuple(sl)], axis=n - 1)
    return psi, excluded


def _near_break_mask(u: PlateField) -> np.ndarray:
    """Cells having a broken face on their own boundary (any axis)."""
    near = np.zeros(u.grid.shape, dtype=bool)
    for a in range(u.grid.n):
        bm, bp = _face_blocked(u.grid.shape, a, u.broken[a])
        # only actual breaks, not the domain boundary
        onlym, onlyp = _face_blocked(u.grid.shape, a, None)
        near |= (bm & ~onlym) | (bp & ~onlyp)
    return near


# kl_verify's tolerance on the transverse strains and the thickness variation
# of u_n, in units of h^2 max(1, max |u|)
_FD_TOL = 10.0


def kl_verify(u: PlateField) -> dict:
    """Structure diagnostics for membership in the reduced (plate) class.

    Reports the maximal transverse strain entries |e_{i,n}| on uncut cells,
    the number of non-vertical broken faces, the maximal thickness variation
    of u_n along uncut columns, and (on square cells) the residual of the
    diagonal-difference identity
    d_alpha u_n = 2 d_xi (u . xi) - d_alpha u_alpha - d_n u_alpha,
    xi = (e_alpha + e_n)/sqrt(2).  Its right side is d_alpha u_n + d_n u_n,
    so it holds only where d_n u_n = 0, which un_thickness_variation checks.
    """
    g = u.grid
    n = g.n
    scale = max(1.0, float(np.max(np.abs(u.values))))
    sp = g.spacings

    def d(m, a):  # central d u_m / d x_a
        return cell_derivative(u.values[..., m], a, sp[a], u.broken[a])

    near = _near_break_mask(u)
    ok = ~near
    max_ein = 0.0
    for i in range(n):
        if np.any(ok):
            e_in = 0.5 * (d(i, n - 1) + d(n - 1, i))
            max_ein = max(max_ein, float(np.max(np.abs(e_in[ok]))))

    nonvert = u.nonvertical_broken_count()

    # thickness variation of u_n on columns with no horizontal break
    hb = u.broken[n - 1]
    col_cut = np.any(hb, axis=n - 1)
    unvals = u.values[..., n - 1]
    var = unvals.max(axis=n - 1) - unvals.min(axis=n - 1)
    un_var = float(np.max(var[~col_cut])) if np.any(~col_cut) else 0.0

    # diagonal identity (square cells only)
    appgra = None
    if np.all(np.abs(sp - sp[-1]) < 1e-12 * sp[-1]):
        h = sp[-1]
        appgra = 0.0
        un_arr = u.values[..., n - 1]
        interior = np.zeros(g.shape, dtype=bool)
        core = tuple(slice(2, s - 2) for s in g.shape)
        interior[core] = True
        # stay two cells away from any broken face: the one-sided gradient
        # stencils next to breaks and boundaries are only first-order accurate
        grow = near.copy()
        for _ in range(2):
            spread = grow.copy()
            for a in range(n):
                spread |= np.roll(grow, 1, axis=a) | np.roll(grow, -1, axis=a)
            grow = spread
        mask = interior & ~grow
        if np.any(mask):
            for a in range(n - 1):
                f = (u.values[..., a] + un_arr) / np.sqrt(2.0)
                fp = np.roll(np.roll(f, -1, axis=a), -1, axis=n - 1)
                fm = np.roll(np.roll(f, 1, axis=a), 1, axis=n - 1)
                dxi = (fp - fm) / (2.0 * np.sqrt(2.0) * h)
                res = d(n - 1, a) - (2.0 * dxi - d(a, a) - d(a, n - 1))
                appgra = max(appgra, float(np.max(np.abs(res[mask]))))

    h_ref = float(np.max(sp))
    tol_fd = _FD_TOL * h_ref ** 2 * scale
    return {
        "max_e_in": max_ein,
        "nonvertical_broken": nonvert,
        "un_thickness_variation": un_var,
        "appgra_residual": appgra,
        "tol_fd": tol_fd,
        "passes": (max_ein <= tol_fd and nonvert == 0 and un_var <= tol_fd),
    }


def jump_decomposition_check(s: KLState, u: PlateField) -> bool:
    """Broken faces of u must be exactly crack_cols x (all layers), vertical only."""
    return all(np.array_equal(b, e)
               for b, e in zip(u.broken, kl_lift(s, u.grid.layers).broken))


def reduced_gradient(un: np.ndarray, plan_h, crack_cols: list) -> np.ndarray:
    """Break-aware central-difference gradient of un over the plan grid."""
    plan_h = np.atleast_1d(np.asarray(plan_h, dtype=float))
    nd = un.ndim
    out = np.zeros(un.shape + (nd,))
    for a in range(nd):
        out[..., a] = cell_derivative(un, a, float(plan_h[a]),
                                      crack_cols[a] if crack_cols else None)
    return out
