"""Grid sampling, hat-kernel interpolation and crack-aware directional strains.

A field is sampled at the shifted lattice points xi + h y, interpolated
multilinearly with the hat kernel Delta(x) = prod_i (1 - |x_i|)^+, and
differentiated through directional difference quotients that are cut off
on the crack's directional half-neighborhoods.  The approximant of a
discontinuous field vanishes on bad cubes and is the interpolant elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CrackSurface, CubeClassification, ShiftedGrid, _near_mask,
                       _shadow_pieces, classify_cubes, segments_hit_crack)


# lattice points `sample` covers beyond the cube window on each side
_SAMPLE_MARGIN = 2
# grid points `ApproximantField.blocks` evaluates at once
_BLOCK_POINTS = 2 ** 15


@dataclass
class SampledField:
    """Lattice samples v(xi + h y) on an integer index window."""

    grid: ShiftedGrid
    zmin: np.ndarray  # (n,) first stored lattice index per axis
    values: np.ndarray  # (*window_shape, ncomp)

    @property
    def ncomp(self) -> int:
        return self.values.shape[-1]

    def value(self, z: np.ndarray) -> np.ndarray:
        """Sampled values at integer lattice indices z, shape (k, ncomp)."""
        idx = np.asarray(z) - self.zmin
        if np.any(idx < 0) or np.any(idx >= np.array(self.values.shape[:-1])):
            raise ValueError("lattice index outside sampled window")
        return self.values[tuple(idx.T)]


def sample(v, grid: ShiftedGrid) -> SampledField:
    """Sample v at all lattice points xi + h y covering the grid box plus
    _SAMPLE_MARGIN lattice points on each side."""
    zmin, zmax = grid.cube_window()
    zmin = zmin - _SAMPLE_MARGIN
    zmax = zmax + 1 + _SAMPLE_MARGIN  # cube corners go one past the last cube index
    # the corners h (z + y) of each axis, as grid.corner computes them
    axes = [grid.h * (np.arange(zmin[i], zmax[i] + 1) + grid.offset[i])
            for i in range(grid.n)]
    P = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1)
    vals = np.asarray(v(P.reshape(-1, grid.n)), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return SampledField(grid, zmin, vals.reshape(P.shape[:-1] + (vals.shape[-1],)))


def _locate_axis(s: SampledField, a: int, x):
    """Base cell index and fractional part of coordinates x along axis a."""
    t = np.asarray(x, dtype=float) / s.grid.h - s.grid.offset[a]
    base = np.floor(t).astype(int)
    idx = base - s.zmin[a]
    if np.any(idx < 0) or np.any(idx + 1 > s.values.shape[a] - 1):
        raise ValueError("evaluation point outside covered region")
    return base, t - base


def _locate(s: SampledField, X):
    """Base cell index and fractional part of each point, shape (k, n) both."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    base, frac = zip(*(_locate_axis(s, a, X[:, a]) for a in range(s.grid.n)))
    return np.stack(base, axis=1), np.stack(frac, axis=1)


def _hat(table: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of each component table[..., c] at fractional
    table indices coords (k, n); shape (k, ncomp).

    The 2^n corners of each point's cell are gathered once and blended
    linearly along one axis after the other, as `ApproximantField.on_grid`
    blends.  The cell index is clamped to shape - 2, so a coordinate on the
    last index blends its lower corner with weight 0.
    """
    n = coords.shape[1]
    shape = table.shape[:-1]
    base = np.minimum(np.floor(coords).astype(int), np.array(shape) - 2)
    frac = coords - base
    step = np.cumprod((1,) + shape[:0:-1])[::-1]
    corner = np.indices((2,) * n).reshape(n, -1).T @ step
    # (2^n, k, ncomp), corners in C order: axis 0's bit splits the halves
    v = np.take(table.reshape(-1, table.shape[-1]), base @ step + corner[:, None], axis=0)
    for f in frac.T:
        f = f[:, None]
        v = v.reshape((2, -1) + v.shape[1:])
        # (1 - f) v_lower + f v_upper, in place
        lower = v[0] * (1.0 - f)
        lower += v[1] * f
        v = lower
    return v[0]


def _hat_gradient(s: SampledField, base: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Exact gradient of the interpolant in each located cell, shape (k, ncomp, n).

    Its axis-i part interpolates the forward differences along i, with
    coordinate i held at the cell index.
    """
    idx = base - s.zmin
    parts = []
    for i in range(s.grid.n):
        coords = idx + frac
        coords[:, i] = idx[:, i]
        parts.append(_hat(np.diff(s.values, axis=i) / s.grid.h, coords))
    return np.stack(parts, axis=-1)


def _window_lookup(table: np.ndarray, zmin: np.ndarray, cells: tuple, fill):
    """table[cells - zmin] for scattered cells inside the table's index window,
    else fill.

    `cells` holds one integer index array per axis, all of one length, as
    tuple(base.T) gives them.
    """
    idx = [c - z for c, z in zip(cells, zmin)]
    out = table[tuple(np.clip(i, 0, k - 1) for i, k in zip(idx, table.shape))]
    for i, k in zip(idx, table.shape):
        # one axis at a time, so the gather is the only array of the full shape
        np.copyto(out, fill, where=(i < 0) | (i >= k))
    return out


def interpolate(s: SampledField, X) -> np.ndarray:
    """Multilinear (hat kernel) interpolation of the sampled field at points X."""
    base, frac = _locate(s, X)
    return _hat(s.values, base - s.zmin + frac)


@dataclass
class DirectionalStrainField:
    """Per-cube difference-quotient strains in one lattice direction."""

    grid: ShiftedGrid
    e: np.ndarray
    zmin: np.ndarray  # first cube index per axis
    values: np.ndarray  # per-cube constants, cutoff already applied
    cutoff: np.ndarray  # bool; False where the lattice point lies in J^{he}


def directional_strain(s: SampledField, e, crack: CrackSurface | None) -> DirectionalStrainField:
    """Difference quotients (v(xi+he) - v(xi)) . e / h with crack cutoff.

    Only the lattice points of the `_near_mask` of step e over the cube
    window are queried; every other one lies outside J^{he}.
    """
    grid = s.grid
    e = np.asarray(e, dtype=float)
    zmin, zmax = grid.cube_window()
    shape = tuple(int(zmax[i] - zmin[i] + 1) for i in range(grid.n))
    Z = grid.cube_indices()
    v0 = s.value(Z)
    v1 = s.value(Z + e.astype(int))
    quot = ((v1 - v0) @ e) / (grid.h * 1.0)
    cut = np.ones(shape, dtype=bool)
    if crack is not None and crack.m > 0:
        tol = 1e-9 * grid.h
        near = _near_mask(grid, crack, tol, e, zmin, zmax)
        P = grid.corner(np.argwhere(near) + zmin)
        cut[near] = ~segments_hit_crack(P, P + grid.h * e, crack, tol=tol)
    vals = np.where(cut, quot.reshape(shape), 0.0)
    return DirectionalStrainField(grid, e, zmin, vals, cut)


@dataclass
class ApproximantField:
    """Interpolant of the sampled field, forced to zero on bad cubes."""

    source: SampledField
    classification: CubeClassification
    region: tuple  # (lo, hi) of the evaluation sub-box V

    def __call__(self, X) -> np.ndarray:
        s = self.source
        base, frac = _locate(s, X)
        vals = _hat(s.values, base - s.zmin + frac)
        c = self.classification
        vals[_window_lookup(c.bad_mask, c.zmin, tuple(base.T), False)] = 0.0
        return vals

    def blocks(self, axes):
        """The approximant on the tensor product of the 1D coordinate arrays
        `axes`, in blocks of consecutive indices of axes[0].

        Yields (rows, values): a slice of axes[0], and the approximant on
        axes[0][rows] x axes[1] x ..., shape (len(axes[0][rows]),
        *[len(a) for a in axes[1:]], ncomp).  A block holds at most
        _BLOCK_POINTS grid points, and at least one index of axes[0].  Each
        axis is located once per call; in a block the interpolant is n linear
        blends, one per axis, of the sampled values, and the bad mask is read
        with one take per axis.
        """
        s = self.source
        c = self.classification
        n = s.grid.n
        # per axis: window index of each base cell, its fraction shaped to
        # broadcast along the later axes, and its cell in the padded bad mask
        located = [_locate_axis(s, a, x) for a, x in enumerate(axes)]
        per_axis = [(b - s.zmin[a], f.reshape((-1,) + (1,) * (n - 1 - a)),
                     np.clip(b - c.zmin[a] + 1, 0, c.bad_mask.shape[a] + 1))
                    for a, (b, f) in enumerate(located)]
        # components first, so each blend's inner loop runs along a grid axis
        table = np.ascontiguousarray(np.moveaxis(s.values, -1, 0))
        # a layer of False around the mask stands for every cell outside it
        bad = np.pad(c.bad_mask, 1)
        step = max(1, _BLOCK_POINTS // max(1, int(np.prod([len(x) for x in axes[1:]]))))
        for start in range(0, len(axes[0]), step):
            rows = slice(start, start + step)
            vals, mask = table, bad
            block = [tuple(p[rows] for p in per_axis[0])] + per_axis[1:]
            for a, (i, f, cell) in enumerate(block):
                # (1 - f) v_i + f v_{i+1}, in place: two block-sized arrays, not four
                lower = np.take(vals, i, axis=a + 1)
                lower *= 1.0 - f
                upper = np.take(vals, i + 1, axis=a + 1)
                upper *= f
                lower += upper
                vals = lower
                mask = np.take(mask, cell, axis=a)
            np.copyto(vals, 0.0, where=mask)
            yield rows, np.moveaxis(vals, 0, -1)

    def on_grid(self, axes) -> np.ndarray:
        """The approximant on the tensor product of the 1D coordinate arrays
        `axes`, shape (*[len(a) for a in axes], ncomp): the blocks of
        `blocks(axes)` joined along axis 0."""
        return np.concatenate([vals for _, vals in self.blocks(axes)])


def build_approximant(v, grid: ShiftedGrid, crack: CrackSurface | None,
                      V: tuple) -> ApproximantField:
    """Sample v, classify cubes against the crack, and assemble the approximant.

    V = (lo, hi) must have lo < hi on every axis and sit inside the grid box
    with margin at least 2 n h.
    """
    lo = np.asarray(V[0], dtype=float)
    hi = np.asarray(V[1], dtype=float)
    if not np.all(lo < hi):
        raise ValueError(f"evaluation region V is empty or inverted: lo {lo.tolist()}, "
                         f"hi {hi.tolist()}")
    blo = np.asarray(grid.lo, dtype=float)
    bhi = np.asarray(grid.hi, dtype=float)
    margin = 2 * grid.n * grid.h
    if np.any(lo - blo < margin - 1e-12) or np.any(bhi - hi < margin - 1e-12):
        raise ValueError("evaluation region V must leave a margin of 2 n h")
    s = sample(v, grid)
    c = classify_cubes(grid, crack)
    return ApproximantField(s, c, (tuple(lo), tuple(hi)))


def strain_bound_check(approx: ApproximantField, ds: DirectionalStrainField,
                       e, X) -> float:
    """Empirical max of |e(w) e . e| / |E_e| over sample points in good cubes.

    The 0/0 case counts as ratio 0.  Points in bad or cut-off cubes are
    skipped.
    """
    e = np.asarray(e, dtype=float)
    s = approx.source
    c = approx.classification
    base, frac = _locate(s, X)
    # a cell outside the strain window counts as cut off
    cells = tuple(base.T)
    good = (~_window_lookup(c.bad_mask, c.zmin, cells, True)
            & _window_lookup(ds.cutoff, ds.zmin, cells, False))
    if not np.any(good):
        return 0.0
    denom = np.abs(_window_lookup(ds.values, ds.zmin, tuple(base[good].T), 0.0))
    G = _hat_gradient(s, base[good], frac[good])
    num = np.abs(np.einsum("kmi,m,i->k", G, e / np.linalg.norm(e),
                           e / np.linalg.norm(e)))
    tiny = 1e-13 * max(1.0, float(np.max(np.abs(s.values))))
    ratio = np.where(denom > tiny, num / np.where(denom == 0.0, 1.0, denom),
                     np.where(num <= tiny, 0.0, np.inf))
    return float(np.max(ratio))


# random fibers `structure_preservation_check` draws, and points per fiber
_FIBERS = 20
_FIBER_SAMPLES = 30


def structure_preservation_check(v, approx: ApproximantField, i: int, j: int,
                                 rng=None):
    """Check that fibers along axis i of component j stay constant.

    Applies when v . e_j is independent of x_i.  Draws _FIBERS random fibers,
    each sampled at _FIBER_SAMPLES points; fibers whose foot lies in the
    projection of the bad-cube closure along axis i are skipped, and the
    rest are evaluated in one approximant call.  Returns True/False (False
    also when every fiber is skipped), or None when the precondition on v
    fails.
    """
    rng = np.random.default_rng(rng)
    lo = np.asarray(approx.region[0])
    hi = np.asarray(approx.region[1])
    n = approx.source.grid.n
    # Precondition probe: v.e_j must not vary along axis i.
    base_pts = lo + (hi - lo) * rng.random((50, n))
    ts = (hi[i] - lo[i]) * rng.random(50)
    moved = base_pts.copy()
    moved[:, i] = lo[i] + ts
    vb = np.atleast_2d(np.asarray(v(base_pts), dtype=float))
    vm = np.atleast_2d(np.asarray(v(moved), dtype=float))
    scale = max(1.0, float(np.max(np.abs(vb))))
    if np.max(np.abs(vb[:, j] - vm[:, j])) > 1e-10 * scale:
        return None

    # Feet of the fibers; a fiber is skipped when its foot lies in the
    # shadow of the bad-cube closure along axis i (closed boxes, 1e-12 slack).
    feet = lo + (hi - lo) * rng.random((_FIBERS, n))
    boxes, _ = _shadow_pieces(approx.classification, i)
    q = np.delete(feet, i, axis=1)[:, None]
    shadowed = np.any(np.all((boxes[:, 0] - 1e-12 <= q) & (q <= boxes[:, 1] + 1e-12),
                             axis=2), axis=1)
    if np.all(shadowed):
        return False
    pts = np.repeat(feet[~shadowed, None], _FIBER_SAMPLES, axis=1)
    pts[..., i] = np.linspace(lo[i], hi[i], _FIBER_SAMPLES)
    vals = approx(pts.reshape(-1, n))[:, j].reshape(pts.shape[:2])
    spread = np.max(np.abs(vals - vals[:, :1]), axis=1)
    return not np.any(spread > 1e-12 * np.maximum(1.0, np.max(np.abs(vals), axis=1)))
