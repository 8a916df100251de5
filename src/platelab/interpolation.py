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

from .geometry import (CrackSurface, CubeClassification, ShiftedGrid,
                       classify_cubes, segments_hit_crack)


# lattice points `sample` covers beyond the cube window on each side
_SAMPLE_MARGIN = 2


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
    axes = [np.arange(zmin[i], zmax[i] + 1) for i in range(grid.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=-1)
    P = grid.corner(Z)
    vals = np.asarray(v(P), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    shape = tuple(len(a) for a in axes)
    return SampledField(grid, zmin, vals.reshape(shape + (vals.shape[-1],)))


def _locate(s: SampledField, X: np.ndarray):
    """Continuous lattice coordinates, base cell index and fractional part."""
    t = np.asarray(X, dtype=float) / s.grid.h - s.grid.offset
    base = np.floor(t).astype(int)
    frac = t - base
    idx = base - s.zmin
    hi = np.array(s.values.shape[:-1]) - 1
    if np.any(idx < 0) or np.any(idx + 1 > hi):
        raise ValueError("evaluation point outside covered region")
    return base, frac


def interpolate(s: SampledField, X) -> np.ndarray:
    """Multilinear (hat kernel) interpolation of the sampled field at points X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    base, frac = _locate(s, X)
    n = s.grid.n
    out = np.zeros((X.shape[0], s.ncomp))
    for bits in np.ndindex(*(2,) * n):
        w = np.ones(X.shape[0])
        for i, b in enumerate(bits):
            w *= frac[:, i] if b else 1.0 - frac[:, i]
        idx = base + np.array(bits) - s.zmin
        out += w[:, None] * s.values[tuple(idx.T)]
    return out


def interpolant_gradient(s: SampledField, X) -> np.ndarray:
    """Exact gradient of the multilinear interpolant, shape (k, ncomp, n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    base, frac = _locate(s, X)
    n = s.grid.n
    out = np.zeros((X.shape[0], s.ncomp, n))
    for bits in np.ndindex(*(2,) * n):
        idx = base + np.array(bits) - s.zmin
        vals = s.values[tuple(idx.T)]
        for m in range(n):
            w = np.ones(X.shape[0])
            for i, b in enumerate(bits):
                if i == m:
                    continue
                w *= frac[:, i] if b else 1.0 - frac[:, i]
            sign = 1.0 if bits[m] else -1.0
            out[:, :, m] += (sign / s.grid.h) * w[:, None] * vals
    return out


@dataclass
class DirectionalStrainField:
    """Per-cube difference-quotient strains in one lattice direction."""

    grid: ShiftedGrid
    e: np.ndarray
    zmin: np.ndarray  # first cube index per axis
    values: np.ndarray  # per-cube constants, cutoff already applied
    cutoff: np.ndarray  # bool; False where the lattice point lies in J^{he}


def directional_strain(s: SampledField, e, crack: CrackSurface | None) -> DirectionalStrainField:
    """Difference quotients (v(xi+he) - v(xi)) . e / h with crack cutoff."""
    grid = s.grid
    e = np.asarray(e, dtype=float)
    zmin, zmax = grid.cube_window()
    shape = tuple(int(zmax[i] - zmin[i] + 1) for i in range(grid.n))
    Z = grid.cube_indices()
    v0 = s.value(Z)
    v1 = s.value(Z + e.astype(int))
    quot = ((v1 - v0) @ e) / (grid.h * 1.0)
    if crack is not None and crack.m > 0:
        P = grid.corner(Z)
        inJ = segments_hit_crack(P, P + grid.h * e, crack, tol=1e-9 * grid.h)
        cut = ~inJ
    else:
        cut = np.ones(Z.shape[0], dtype=bool)
    vals = np.where(cut, quot, 0.0)
    return DirectionalStrainField(grid, e, zmin, vals.reshape(shape),
                                  cut.reshape(shape))


@dataclass
class ApproximantField:
    """Interpolant of the sampled field, forced to zero on bad cubes."""

    source: SampledField
    classification: CubeClassification
    region: tuple  # (lo, hi) of the evaluation sub-box V

    def __call__(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        vals = interpolate(self.source, X)
        base, _ = _locate(self.source, X)
        c = self.classification
        idx = base - c.zmin
        inside = np.all(idx >= 0, axis=1) & np.all(
            idx < np.array(c.bad_mask.shape), axis=1)
        bad = np.zeros(X.shape[0], dtype=bool)
        bad[inside] = c.bad_mask[tuple(idx[inside].T)]
        vals[bad] = 0.0
        return vals


def build_approximant(v, grid: ShiftedGrid, crack: CrackSurface | None,
                      V: tuple) -> ApproximantField:
    """Sample v, classify cubes against the crack, and assemble the approximant.

    V = (lo, hi) must sit inside the grid box with margin at least 2 n h.
    """
    lo = np.asarray(V[0], dtype=float)
    hi = np.asarray(V[1], dtype=float)
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
    X = np.atleast_2d(np.asarray(X, dtype=float))
    s = approx.source
    base, _ = _locate(s, X)
    c = approx.classification
    idx = base - c.zmin
    ok = np.all(idx >= 0, axis=1) & np.all(idx < np.array(c.bad_mask.shape), axis=1)
    good = np.zeros(X.shape[0], dtype=bool)
    good[ok] = ~c.bad_mask[tuple(idx[ok].T)]
    sidx = base - ds.zmin
    ok2 = np.all(sidx >= 0, axis=1) & np.all(
        sidx < np.array(ds.cutoff.shape), axis=1)
    good &= ok2
    if not np.any(good):
        return 0.0
    good_idx = sidx[good]
    cut = ds.cutoff[tuple(good_idx.T)]
    denom = np.abs(ds.values[tuple(good_idx.T)])
    G = interpolant_gradient(s, X[good])
    num = np.abs(np.einsum("kmi,m,i->k", G, e / np.linalg.norm(e),
                           e / np.linalg.norm(e)))
    num = np.where(cut, num, 0.0)
    tiny = 1e-13 * max(1.0, float(np.max(np.abs(s.values))))
    ratio = np.where(denom > tiny, num / np.where(denom == 0.0, 1.0, denom),
                     np.where(num <= tiny, 0.0, np.inf))
    return float(np.max(ratio)) if ratio.size else 0.0


# random fibers `structure_preservation_check` draws, and points per fiber
_FIBERS = 20
_FIBER_SAMPLES = 30


def structure_preservation_check(v, approx: ApproximantField, i: int, j: int,
                                 rng=None):
    """Check that fibers along axis i of component j stay constant.

    Applies when v . e_j is independent of x_i.  Draws _FIBERS random fibers,
    each sampled at _FIBER_SAMPLES points; fibers whose shadow meets the
    projection of the bad-cube closure along axis i are skipped.
    Returns True/False, or None when the precondition on v fails.
    """
    rng = np.random.default_rng(rng)
    lo = np.asarray(approx.region[0])
    hi = np.asarray(approx.region[1])
    n = approx.source.grid.n
    # Precondition probe: v.e_j must not vary along axis i.
    base_pts = lo + (hi - lo) * rng.random((50, n))
    shift = np.zeros(n)
    shift[i] = 1.0
    ts = (hi[i] - lo[i]) * rng.random(50)
    moved = base_pts.copy()
    moved[:, i] = lo[i] + ts
    vb = np.atleast_2d(np.asarray(v(base_pts), dtype=float))
    vm = np.atleast_2d(np.asarray(v(moved), dtype=float))
    scale = max(1.0, float(np.max(np.abs(vb))))
    if np.max(np.abs(vb[:, j] - vm[:, j])) > 1e-10 * scale:
        return None

    # Shadow of the bad-cube closure along axis i (bounding intervals per
    # remaining coordinate).
    boxes = approx.classification.bad_boxes()
    others = [a for a in range(n) if a != i]
    ok_count = 0
    for _ in range(_FIBERS):
        p = lo + (hi - lo) * rng.random(n)
        shadowed = False
        for b in boxes:
            if all(b[0, a] - 1e-12 <= p[a] <= b[1, a] + 1e-12 for a in others):
                shadowed = True
                break
        if shadowed:
            continue
        ts = np.linspace(lo[i], hi[i], _FIBER_SAMPLES)
        pts = np.tile(p, (_FIBER_SAMPLES, 1))
        pts[:, i] = ts
        vals = approx(pts)[:, j]
        if np.max(np.abs(vals - vals[0])) > 1e-12 * max(1.0, np.max(np.abs(vals))):
            return False
        ok_count += 1
    return ok_count > 0
