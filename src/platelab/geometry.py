"""Shifted cubic grids, simplicial crack surfaces and lattice crack geometry.

Cracks are finite unions of (n-1)-simplices (segments for n=2, triangles
for n=3).  All intersection predicates are distance based: a segment hits
the crack when its distance to some simplex is below a tolerance, so
points lying exactly on a crack count as hits (closed-set convention).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class ShiftedGrid:
    """Cubic lattice of spacing h shifted by h*y over an axis-aligned box."""

    n: int
    h: float
    y: tuple
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("grid spacing must be positive")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.n,) or np.any(y < 0.0) or np.any(y >= 1.0):
            raise ValueError("offset y must lie in [0,1)^n")
        if len(self.lo) != self.n or len(self.hi) != self.n:
            raise ValueError("box bounds must have length n")

    @property
    def offset(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)

    def cube_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer index range (zmin, zmax inclusive) of cubes meeting the box."""
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        eps = 1e-9 * self.h
        zmin = np.ceil((lo - eps) / self.h - self.offset - 1.0).astype(int)
        zmax = np.floor((hi + eps) / self.h - self.offset).astype(int)
        # corner h(z+y) must satisfy corner < hi and corner + h > lo
        zmin = np.where(self.h * (zmin + self.offset + 1) <= lo - eps, zmin + 1, zmin)
        zmax = np.where(self.h * (zmax + self.offset) >= hi + eps, zmax - 1, zmax)
        return zmin, zmax

    def cube_indices(self) -> np.ndarray:
        """All integer cube indices meeting the box, shape (k, n)."""
        zmin, zmax = self.cube_window()
        axes = [np.arange(zmin[i], zmax[i] + 1) for i in range(self.n)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def corner(self, z: np.ndarray) -> np.ndarray:
        """Lower corner h*(z + y) of cube z (vectorized over rows of z)."""
        return self.h * (np.asarray(z, dtype=float) + self.offset)


def direction_set(n: int) -> np.ndarray:
    """The lattice directions {e_i} union {e_i - e_j, e_i + e_j, i != j}, deduplicated."""
    vecs = set()
    for i in range(n):
        e = [0] * n
        e[i] = 1
        vecs.add(tuple(e))
        for j in range(n):
            if i == j:
                continue
            for s in (1, -1):
                v = [0] * n
                v[i] = 1
                v[j] += s
                vecs.add(tuple(v))
    return np.array(sorted(vecs), dtype=int)


# ---------------------------------------------------------------------------
# crack surfaces


@dataclass
class CrackSurface:
    """Finite union of (n-1)-simplices with unit normals."""

    simplices: np.ndarray  # (m, n, n): m simplices, n vertices, n coordinates
    normals: np.ndarray = field(init=False)  # (m, n), from the simplices

    def __post_init__(self):
        self.simplices = np.asarray(self.simplices, dtype=float)
        if self.simplices.ndim != 3 or self.simplices.shape[1] != self.simplices.shape[2]:
            raise ValueError("simplices must have shape (m, n, n)")
        if np.any(self._volumes() <= 1e-12):
            raise ValueError("degenerate simplex in crack surface")
        nu = self._normal_vectors()
        self.normals = nu / np.linalg.norm(nu, axis=1)[:, None]

    @property
    def n(self) -> int:
        return self.simplices.shape[2]

    @property
    def m(self) -> int:
        return self.simplices.shape[0]

    def _normal_vectors(self) -> np.ndarray:
        """Unnormalized normals: the edge turned a quarter (n=2), the edges' cross product (n=3)."""
        d = self.simplices[:, 1:] - self.simplices[:, :1]
        if self.n == 2:
            return np.stack([-d[:, 0, 1], d[:, 0, 0]], axis=1)
        return np.cross(d[:, 0], d[:, 1])

    def _volumes(self) -> np.ndarray:
        # |normal vector| is (n-1)! times the simplex's measure, and (n-1)! = n-1 here
        return np.linalg.norm(self._normal_vectors(), axis=1) / (self.n - 1)

    def measure(self) -> float:
        """Total (n-1)-dimensional measure of the surface."""
        return float(np.sum(self._volumes()))

    def union(self, other: "CrackSurface") -> "CrackSurface":
        return CrackSurface(np.concatenate([self.simplices, other.simplices]))

    def save(self, path) -> None:
        with open(path, "w") as f:
            for s in self.simplices:
                f.write(" ".join(repr(float(v)) for v in s.ravel()) + "\n")

    @classmethod
    def load(cls, path, n: int) -> "CrackSurface":
        rows = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                vals = [float(t) for t in line.split()]
                if len(vals) != n * n:
                    raise ValueError(
                        f"expected {n * n} coordinates per line, got {len(vals)}")
                rows.append(np.array(vals).reshape(n, n))
        if not rows:
            raise ValueError(f"no simplices in {path}")
        return cls(np.array(rows))


def axis_plane_crack(n: int, axis: int, value: float,
                     extent: tuple = ((0.0, 1.0),)) -> CrackSurface:
    """A flat crack {x_axis = value} spanning the given extents in the other axes."""
    if n == 2:
        (a, b), = extent
        p = np.zeros(2)
        q = np.zeros(2)
        p[axis] = q[axis] = value
        other = 1 - axis
        p[other], q[other] = a, b
        return CrackSurface(np.array([[p, q]]))
    (a0, b0), (a1, b1) = extent
    others = [i for i in range(3) if i != axis]
    corners = []
    for u, v in [(a0, a1), (b0, a1), (b0, b1), (a0, b1)]:
        c = np.zeros(3)
        c[axis] = value
        c[others[0]], c[others[1]] = u, v
        corners.append(c)
    tri1 = [corners[0], corners[1], corners[2]]
    tri2 = [corners[0], corners[2], corners[3]]
    return CrackSurface(np.array([tri1, tri2]))


# ---------------------------------------------------------------------------
# distance kernels (vectorized over rows: query segment i against simplex i)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=1)


def _seg_seg_dist(P: np.ndarray, Q: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between segments [P_i, Q_i] and [a_i, b_i], row by row."""
    d1 = Q - P
    d2 = b - a
    r = P - a
    A = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(r, d2)
    c = _dot(d1, r)
    bb = _dot(d1, d2)
    denom = A * e - bb * bb
    s = np.where(denom > 1e-14 * np.maximum(A * e, 1e-300),
                 np.clip((bb * f - c * e) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0),
                 0.0)
    t = np.clip((bb * s + f) / e, 0.0, 1.0)
    s = np.clip(np.where(A > 0.0, (bb * t - c) / np.where(A == 0.0, 1.0, A), 0.0), 0.0, 1.0)
    closest1 = P + s[:, None] * d1
    closest2 = a + t[:, None] * d2
    return np.linalg.norm(closest1 - closest2, axis=1)


def _seg_tri_dist(P: np.ndarray, Q: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance between segments [P_i, Q_i] and triangles tri_i (shape (k, 3, 3)), row by row."""
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    # Proper intersections via Moller-Trumbore.
    d = Q - P
    e1 = v1 - v0
    e2 = v2 - v0
    h = np.cross(d, e2)
    det = _dot(h, e1)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, det, 1.0)
    s = P - v0
    u = _dot(s, h) / inv
    qv = np.cross(s, e1)
    v = _dot(qv, d) / inv
    t = _dot(qv, e2) / inv
    hit = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t >= 0.0) & (t <= 1.0)

    dist = np.where(hit, 0.0, np.inf)
    # Edge/edge candidates.
    for ea, eb in ((v0, v1), (v1, v2), (v2, v0)):
        dist = np.minimum(dist, _seg_seg_dist(P, Q, ea, eb))
    # Endpoint/interior candidates: project endpoints onto the plane and
    # test barycentric coordinates against the Gram matrix of (e1, e2).
    nvec = np.cross(e1, e2)
    nn = _dot(nvec, nvec)
    d00 = _dot(e1, e1)
    d01 = _dot(e1, e2)
    d11 = _dot(e2, e2)
    den = d00 * d11 - d01 * d01
    for X in (P, Q):
        wn = _dot(X - v0, nvec)
        pw = X - (wn / nn)[:, None] * nvec - v0
        d20 = _dot(pw, e1)
        d21 = _dot(pw, e2)
        bu = (d11 * d20 - d01 * d21) / den
        bv = (d00 * d21 - d01 * d20) / den
        inside = (bu >= 0.0) & (bv >= 0.0) & (bu + bv <= 1.0)
        dist = np.where(inside, np.minimum(dist, np.abs(wn / np.sqrt(nn))), dist)
    return dist


def segments_hit_crack(P: np.ndarray, Q: np.ndarray, crack: CrackSurface,
                       tol: float = 1e-12) -> np.ndarray:
    """Boolean array: does segment [P_i, Q_i] come within tol of the crack.

    Sort-and-sweep broad phase (Ericson, Real-Time Collision Detection,
    ch. 7): the candidate (query, simplex) pairs of all simplices are the
    pairs whose boxes, the query's inflated by tol, overlap, and one
    distance-kernel call tests them all.  A pair within tol always passes,
    so the answer equals the all-pairs one while the cost follows the
    queries near each simplex rather than queries x simplices.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    lo = np.minimum(P, Q) - tol
    hi = np.maximum(P, Q) + tol
    # Lattice batches arrive sorted in x; the stable sort takes them in linear time.
    order = np.argsort(lo[:, 0], kind="stable")
    # Running max of the high x in sorted order: every query before the
    # first index where it reaches a simplex's low x ends left of it.
    reach_x = np.maximum.accumulate(hi[order, 0])
    S = crack.simplices
    s_lo = S.min(axis=1)
    s_hi = S.max(axis=1)
    i0 = np.searchsorted(reach_x, s_lo[:, 0], side="left")
    i1 = np.searchsorted(lo[order, 0], s_hi[:, 0], side="right")
    # Simplex k's window is order[i0[k]:i1[k]]; list all windows' pairs at
    # once, pos being each pair's place within its window.
    count = np.maximum(i1 - i0, 0)
    k = np.repeat(np.arange(crack.m), count)
    pos = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    q = order[np.repeat(i0, count) + pos]
    near = np.all(lo[q] <= s_hi[k], axis=1) & np.all(hi[q] >= s_lo[k], axis=1)
    q, k = q[near], k[near]
    hit = np.zeros(P.shape[0], dtype=bool)
    if q.size:
        if crack.n == 2:
            d = _seg_seg_dist(P[q], Q[q], S[k, 0], S[k, 1])
        else:
            d = _seg_tri_dist(P[q], Q[q], S[k])
        hit[q[d <= tol]] = True
    return hit


def segment_hits_crack(p, q, crack: CrackSurface, tol: float = 1e-12) -> bool:
    """True iff the closed segment [p, q] intersects the crack (within tol)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.array_equal(p, q):
        raise ValueError("degenerate query segment")
    return bool(segments_hit_crack(p[None, :], q[None, :], crack, tol)[0])


def in_half_neighborhood(p, e, h: float, crack: CrackSurface,
                         tol: float = 1e-12) -> bool:
    """True iff p lies in the directional half-neighborhood J^{he} of the crack.

    Equivalent formulation: the segment [p, p + h e] meets the crack.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    return segment_hits_crack(p, p + h * e, crack, tol)


# ---------------------------------------------------------------------------
# cube classification and discrete jump energy


@dataclass
class CubeClassification:
    """Bad/good labels for the cubes of a shifted grid relative to a crack."""

    grid: ShiftedGrid
    crack: CrackSurface
    bad_mask: np.ndarray  # boolean, shape of the cube window
    zmin: np.ndarray

    @property
    def num_bad(self) -> int:
        return int(np.count_nonzero(self.bad_mask))

    def bad_indices(self) -> np.ndarray:
        """Integer cube indices of bad cubes, shape (k, n)."""
        idx = np.argwhere(self.bad_mask)
        return idx + self.zmin

    def bad_boxes(self) -> np.ndarray:
        """Closed bounding boxes of bad cubes, shape (k, 2, n)."""
        z = self.bad_indices()
        lo = self.grid.corner(z)
        return np.stack([lo, lo + self.grid.h], axis=1)


def _cube_segments(n: int) -> list:
    """(start corner, step) of each edge and face diagonal of the unit cube, once.

    These are the corner pairs of {0,1}^n that differ in one or two
    coordinates: 6 for n=2, 24 for n=3.
    """
    corners = np.array(list(itertools.product((0, 1), repeat=n)))
    return [(a, b - a) for a, b in itertools.combinations(corners, 2)
            if np.count_nonzero(a != b) <= 2]


def classify_cubes(grid: ShiftedGrid, crack: CrackSurface | None) -> CubeClassification:
    """Mark bad hyper-cubes: the crack meets one of the cube's edges or face diagonals."""
    zmin, zmax = grid.cube_window()
    shape = tuple(int(zmax[i] - zmin[i] + 1) for i in range(grid.n))
    bad = np.zeros(shape, dtype=bool)
    if crack is None or crack.m == 0:
        return CubeClassification(grid, crack, bad, zmin)
    tol = 1e-9 * grid.h
    corners = grid.corner(grid.cube_indices())
    flat_bad = np.zeros(corners.shape[0], dtype=bool)
    for a, e in _cube_segments(grid.n):
        todo = ~flat_bad
        C = corners[todo] + grid.h * a
        flat_bad[todo] = segments_hit_crack(C, C + grid.h * e, crack, tol)
    bad[:] = flat_bad.reshape(shape)
    return CubeClassification(grid, crack, bad, zmin)


def discrete_jump_energy(grid: ShiftedGrid, crack: CrackSurface | None) -> float:
    """h^n * sum_e sum_z 1_{J^{he}}(z + hy) / (h |e|) over enumerated lattice points."""
    if crack is None or crack.m == 0:
        return 0.0
    tol = 1e-9 * grid.h
    Z = grid.cube_indices()
    P = grid.corner(Z)
    total = 0.0
    for e in direction_set(grid.n).astype(float):
        hits = segments_hit_crack(P, P + grid.h * e, crack, tol)
        total += np.count_nonzero(hits) / (grid.h * np.linalg.norm(e))
    return float(grid.h ** grid.n * total)


def bad_cube_boundary_measure(c: CubeClassification) -> float:
    """(n-1)-measure of the boundary of the union of bad cubes (exposed faces)."""
    bad = c.bad_mask
    n = bad.ndim
    faces = 0
    for axis in range(n):
        pad = [(0, 0)] * n
        pad[axis] = (1, 1)
        padded = np.pad(bad, pad, constant_values=False)
        lo = np.take(padded, range(0, bad.shape[axis]), axis=axis)
        hi = np.take(padded, range(2, bad.shape[axis] + 2), axis=axis)
        faces += np.count_nonzero(bad & ~lo) + np.count_nonzero(bad & ~hi)
    return float(faces) * c.grid.h ** (n - 1)


# ---------------------------------------------------------------------------
# projection measures


def _axis_of(xi) -> int:
    xi = np.asarray(xi, dtype=float)
    nz = np.nonzero(xi)[0]
    if len(nz) != 1 or abs(abs(xi[nz[0]]) - 1.0) > 1e-12:
        raise ValueError("projection direction must be +/- a coordinate axis")
    return int(nz[0])


def _shadow_intervals(obj, axis: int) -> list:
    """1D shadows (for n=2) of boxes/crack simplices after dropping `axis`."""
    out = []
    if isinstance(obj, CrackSurface):
        other = 1 - axis
        for s in obj.simplices:
            vals = s[:, other]
            out.append((float(vals.min()), float(vals.max())))
    elif isinstance(obj, CubeClassification):
        out.extend(_shadow_intervals(obj.bad_boxes(), axis))
    else:
        boxes = np.asarray(obj, dtype=float)
        other = 1 - axis
        for b in boxes:
            out.append((float(b[0, other]), float(b[1, other])))
    return out


def _union_intervals(intervals: list) -> list:
    ivs = sorted((a, b) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _diff_measure_1d(u1: list, u2: list) -> float:
    total = sum(b - a for a, b in u1)
    for a, b in u1:
        for c, d in u2:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                total -= hi - lo
    return total


def _shadow_mask(obj, axis: int, grid_lo, raster: float, shape) -> np.ndarray:
    """2D raster shadows (for n=3) of boxes/crack simplices after dropping `axis`."""
    others = [i for i in range(3) if i != axis]
    mask = np.zeros(shape, dtype=bool)
    xs = grid_lo[0] + raster * (np.arange(shape[0]) + 0.5)
    ys = grid_lo[1] + raster * (np.arange(shape[1]) + 0.5)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    if isinstance(obj, CrackSurface):
        for s in obj.simplices:
            tri = s[:, others]
            v0, v1, v2 = tri
            d = np.stack([XX - v0[0], YY - v0[1]], axis=-1)
            e1 = v1 - v0
            e2 = v2 - v0
            den = e1[0] * e2[1] - e1[1] * e2[0]
            if abs(den) < 1e-16:
                continue
            bu = (d[..., 0] * e2[1] - d[..., 1] * e2[0]) / den
            bv = (e1[0] * d[..., 1] - e1[1] * d[..., 0]) / den
            mask |= (bu >= 0.0) & (bv >= 0.0) & (bu + bv <= 1.0)
    else:
        if isinstance(obj, CubeClassification):
            boxes = obj.bad_boxes()
        else:
            boxes = np.asarray(obj, dtype=float)
        for b in boxes:
            inx = (XX >= b[0, others[0]]) & (XX <= b[1, others[0]])
            iny = (YY >= b[0, others[1]]) & (YY <= b[1, others[1]])
            mask |= inx & iny
    return mask


def _bounds_2d(objs, axis: int):
    los, his = [], []
    for obj in objs:
        if obj is None:
            continue
        others = [i for i in range(3) if i != axis]
        if isinstance(obj, CrackSurface):
            pts = obj.simplices.reshape(-1, 3)[:, others]
        elif isinstance(obj, CubeClassification):
            boxes = obj.bad_boxes()
            pts = boxes.reshape(-1, 3)[:, others]
        else:
            pts = np.asarray(obj, dtype=float).reshape(-1, 3)[:, others]
        if len(pts):
            los.append(pts.min(axis=0))
            his.append(pts.max(axis=0))
    if not los:
        return np.zeros(2), np.zeros(2)
    return np.min(los, axis=0), np.max(his, axis=0)


def projection_measure(obj, xi, minus=None, raster: float = 0.01,
                       return_error: bool = False):
    """Measure of the orthogonal shadow of obj onto the hyperplane xi-perp.

    obj (and the optional subtrahend `minus`) may be a CrackSurface, a
    CubeClassification (its bad cubes are projected), or an array of boxes
    of shape (k, 2, n).  For n=2 the shadow is a union of intervals and the
    computation is exact; for n=3 the shadow is rasterized at resolution
    `raster` and an O(raster * perimeter) error estimate is available.
    """
    axis = _axis_of(xi)
    if isinstance(obj, CrackSurface):
        n = obj.n
    elif isinstance(obj, CubeClassification):
        n = obj.grid.n
    else:
        n = np.asarray(obj).shape[-1]

    if n == 2:
        u1 = _union_intervals(_shadow_intervals(obj, axis))
        u2 = _union_intervals(_shadow_intervals(minus, axis)) if minus is not None else []
        val = _diff_measure_1d(u1, u2)
        return (val, 0.0) if return_error else val

    lo, hi = _bounds_2d([obj, minus], axis)
    lo = lo - raster
    shape = tuple(int(np.ceil((hi[i] - lo[i]) / raster)) + 2 for i in range(2))
    m1 = _shadow_mask(obj, axis, lo, raster, shape)
    if minus is not None:
        m1 &= ~_shadow_mask(minus, axis, lo, raster, shape)
    val = float(np.count_nonzero(m1)) * raster ** 2
    if return_error:
        edges = 0
        for ax in range(2):
            shifted = np.roll(m1, 1, axis=ax)
            edges += np.count_nonzero(m1 != shifted)
        return val, float(edges) * raster ** 2
    return val
