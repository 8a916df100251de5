"""Reduced plate states, their 3D lifts, and structure verification.

Displacements live at cell centers of a tensor grid over omega x (z_lo, z_hi);
cracks are unions of cell faces, encoded by per-axis break-indicator arrays.
The break-aware stencil triplets `_derivative_operator` and
`_hessian_operator` are the one discretization that the solver of
:mod:`.minimize` and the energies of :mod:`.energy` share.
The thickness layers use a midpoint layout symmetric about z = 0, so the
x_n-odd part of a lifted field integrates to zero exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PlateGrid:
    """Cell-centered grid on omega x z_extent with uniform spacing per axis."""

    n: int
    plan_shape: tuple
    layers: int
    omega_lo: tuple
    omega_hi: tuple
    z_extent: tuple = (-0.5, 0.5)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if len(self.plan_shape) != self.n - 1:
            raise ValueError("plan_shape must have n-1 entries")
        if self.layers < 1 or any(s < 1 for s in self.plan_shape):
            raise ValueError("grid sizes must be positive")

    @property
    def plan_h(self) -> np.ndarray:
        return _plan_h(self.plan_shape, self.omega_lo, self.omega_hi)

    def plan_points(self) -> np.ndarray:
        return _plan_points(self.plan_shape, self.omega_lo, self.omega_hi)

    @property
    def hz(self) -> float:
        return (self.z_extent[1] - self.z_extent[0]) / self.layers

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
        return self.z_extent[0] + self.hz * (np.arange(self.layers) + 0.5)


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


def _empty_breaks(shape: tuple) -> list:
    out = []
    for a in range(len(shape)):
        s = list(shape)
        s[a] -= 1
        out.append(np.zeros(tuple(s), dtype=bool))
    return out


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
        if self.broken is None:
            self.broken = _empty_breaks(self.grid.shape)

    def copy(self) -> "PlateField":
        return PlateField(self.grid, self.values.copy(),
                          [b.copy() for b in self.broken])

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
        ps = tuple(self.plan_shape)
        if self.ubar.shape != ps + (self.n - 1,):
            raise ValueError("ubar shape mismatch")
        if self.un.shape != ps:
            raise ValueError("un shape mismatch")
        if self.grad_un.shape != ps + (self.n - 1,):
            raise ValueError("grad_un shape mismatch")
        if self.crack_cols is None:
            self.crack_cols = _empty_breaks(ps)

    @property
    def plan_h(self) -> np.ndarray:
        return _plan_h(self.plan_shape, self.omega_lo, self.omega_hi)

    def plan_points(self) -> np.ndarray:
        return _plan_points(self.plan_shape, self.omega_lo, self.omega_hi)

    def crack_measure(self) -> float:
        """(n-2)-measure of the crack lines (count for n=2, length for n=3)."""
        return float(sum(np.count_nonzero(c) * np.prod(np.delete(self.plan_h, a))
                         for a, c in enumerate(self.crack_cols)))

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(f"n {self.n}\n")
            f.write("plan " + " ".join(str(s) for s in self.plan_shape) + "\n")
            f.write("omega_lo " + " ".join(repr(float(v)) for v in self.omega_lo) + "\n")
            f.write("omega_hi " + " ".join(repr(float(v)) for v in self.omega_hi) + "\n")
            for name, arr in (("ubar", self.ubar), ("un", self.un),
                              ("grad_un", self.grad_un)):
                f.write(f"[{name}]\n")
                for row in np.atleast_2d(arr.reshape(-1, arr.shape[-1] if arr.ndim > len(self.plan_shape) else 1)):
                    f.write(" ".join(repr(float(v)) for v in row) + "\n")
            for a, c in enumerate(self.crack_cols):
                idx = np.argwhere(c)
                f.write(f"[crack_axis{a}]\n")
                for row in idx:
                    f.write(" ".join(str(int(v)) for v in row) + "\n")

    @classmethod
    def load(cls, path) -> "KLState":
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f]
        it = iter(lines)
        n = int(next(it).split()[1])
        plan_shape = tuple(int(t) for t in next(it).split()[1:])
        omega_lo = tuple(float(t) for t in next(it).split()[1:])
        omega_hi = tuple(float(t) for t in next(it).split()[1:])
        sections = {}
        current = None
        for ln in it:
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("["):
                current = ln.strip("[]")
                sections[current] = []
            else:
                sections[current].append([float(t) for t in ln.split()])
        ps = plan_shape
        ubar = np.array(sections["ubar"]).reshape(ps + (n - 1,))
        un = np.array(sections["un"]).reshape(ps)
        grad_un = np.array(sections["grad_un"]).reshape(ps + (n - 1,))
        cracks = _empty_breaks(ps)
        for a in range(n - 1):
            for row in sections.get(f"crack_axis{a}", []):
                cracks[a][tuple(int(v) for v in row)] = True
        return cls(n, ps, omega_lo, omega_hi, ubar, un, grad_un, cracks)


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


def _derivative_operator(shape: tuple, spacings, broken: list, ncomp: int):
    """Stencil triplets (rows, cols, vals) of the map from cell dofs to
    per-cell derivative matrices D[m, a].

    Row ordering: cell * (ncomp*nd) + m*nd + a; forward quotients with
    backward fallback at blocked plus-faces, zero when isolated.
    """
    nd = len(shape)
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    cell = flat.ravel()
    rows, cols, data = [], [], []
    for a in range(nd):
        bm, bp = _face_blocked(shape, a, broken[a])
        h = float(spacings[a])
        plus = np.roll(flat, -1, axis=a).ravel()
        minus = np.roll(flat, 1, axis=a).ravel()
        fwd = np.flatnonzero(~bp)  # (v[c+e_a] - v[c]) / h
        bwd = np.flatnonzero(bp & ~bm)  # (v[c] - v[c-e_a]) / h
        for m in range(ncomp):
            r = cell * (ncomp * nd) + m * nd + a
            for idx, hi, lo in ((fwd, plus, cell), (bwd, cell, minus)):
                rows += [r[idx], r[idx]]
                cols += [hi[idx] * ncomp + m, lo[idx] * ncomp + m]
                data += [np.full(idx.size, 1.0 / h), np.full(idx.size, -1.0 / h)]
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def _hessian_operator(plan_shape: tuple, plan_h, crack_cols: list):
    """Stencil triplets (rows, cols, vals) of the map from un dofs to
    per-cell Hessian entries H[a, b], row cell * nd*nd + a*nd + b.

    Centered second differences where both faces are open, one-sided shifted
    stencils otherwise, zero rows where no admissible stencil exists.
    """
    nd = len(plan_shape)
    flat = np.arange(int(np.prod(plan_shape))).reshape(plan_shape)
    cell = flat.ravel()
    rows, cols, data = [], [], []

    def add(r, mask, points, scale):
        idx = np.flatnonzero(mask)
        for at, w in points:
            rows.append(r[idx])
            cols.append(at.ravel()[idx])
            data.append(np.full(idx.size, w / scale))

    for a in range(nd):
        bm, bp = _face_blocked(plan_shape, a, crack_cols[a])
        m2, m1, p1, p2 = (np.roll(flat, k, axis=a) for k in (2, 1, -1, -2))
        centered = ~bm & ~bp
        # shifted forward: the plus-face of the plus neighbor is open too
        fwd = ~centered & ~bp & ~np.roll(bp, -1, axis=a)
        bwd = ~centered & ~fwd & ~bm & ~np.roll(bm, 1, axis=a)
        r = cell * (nd * nd) + a * nd + a
        h2 = float(plan_h[a]) ** 2
        add(r, centered, ((m1, 1.0), (flat, -2.0), (p1, 1.0)), h2)
        add(r, fwd, ((flat, 1.0), (p1, -2.0), (p2, 1.0)), h2)
        add(r, bwd, ((flat, 1.0), (m1, -2.0), (m2, 1.0)), h2)
        for b in range(a + 1, nd):
            # mixed second differences on cells centered in both axes
            bmb, bpb = _face_blocked(plan_shape, b, crack_cols[b])
            corners = [(np.roll(np.roll(flat, -i, axis=a), -j, axis=b), 0.25 * i * j)
                       for i, j in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
            hab = float(plan_h[a]) * float(plan_h[b])
            for r_ab in (cell * (nd * nd) + a * nd + b, cell * (nd * nd) + b * nd + a):
                add(r_ab, centered & ~bmb & ~bpb, corners, hab)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(data)


def _apply_stencil(stencil, x: np.ndarray, nrows: int) -> np.ndarray:
    """S x for the stencil triplets S = (rows, cols, vals) with nrows rows."""
    rows, cols, vals = stencil
    return np.bincount(rows, weights=vals * x[cols], minlength=nrows)


def cell_strains(u: PlateField) -> np.ndarray:
    """Per-cell symmetric strain tensors, shape (*shape, n, n): the
    symmetrized derivative matrices D of `_derivative_operator`."""
    g = u.grid
    n = g.n
    D = _apply_stencil(_derivative_operator(g.shape, g.spacings, u.broken, n),
                       u.values.ravel(), int(np.prod(g.shape)) * n * n)
    D = D.reshape(g.shape + (n, n))  # D[..., m, a] = d u_m / d x_a
    return 0.5 * (D + np.swapaxes(D, -1, -2))


# ---------------------------------------------------------------------------
# lift / average / slice operations


def kl_lift(s: KLState, layers: int) -> PlateField:
    """3D displacement u_alpha = ubar_alpha - x_n d_alpha u_n, u_n = un, on
    the unit thickness (-1/2, 1/2)."""
    grid = PlateGrid(s.n, tuple(s.plan_shape), layers, s.omega_lo, s.omega_hi)
    z = grid.z_centers()
    shape = grid.shape
    vals = np.zeros(shape + (s.n,))
    zb = z.reshape((1,) * (s.n - 1) + (layers,))
    for a in range(s.n - 1):
        vals[..., a] = s.ubar[..., a][..., None] - zb * s.grad_un[..., a][..., None]
    vals[..., s.n - 1] = s.un[..., None]
    broken = _empty_breaks(shape)
    for a in range(s.n - 1):
        broken[a][:] = s.crack_cols[a][..., None]
    return PlateField(grid, vals, broken)


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
    xi = (e_alpha + e_n)/sqrt(2).
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
    n = s.n
    if np.any(u.broken[n - 1]):
        return False
    for a in range(n - 1):
        expect = np.broadcast_to(s.crack_cols[a][..., None], u.broken[a].shape)
        if not np.array_equal(u.broken[a], expect):
            return False
    return True


def reduced_gradient(un: np.ndarray, plan_h, crack_cols: list) -> np.ndarray:
    """Break-aware central-difference gradient of un over the plan grid."""
    plan_h = np.atleast_1d(np.asarray(plan_h, dtype=float))
    nd = un.ndim
    out = np.zeros(un.shape + (nd,))
    for a in range(nd):
        out[..., a] = cell_derivative(un, a, float(plan_h[a]),
                                      crack_cols[a] if crack_cols else None)
    return out
