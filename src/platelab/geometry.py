"""Shifted cubic grids, simplicial crack surfaces and lattice crack geometry.

Cracks are finite unions of (n-1)-simplices (segments for n=2, triangles
for n=3).  All intersection predicates are distance based: a segment hits
the crack when its distance to some simplex is below a tolerance, so
points lying exactly on a crack count as hits (closed-set convention).
"""

from __future__ import annotations

import itertools
import math
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
        if not 0.0 < self.h < np.inf:
            raise ValueError("grid spacing must be positive and finite")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.n,) or not np.all((y >= 0.0) & (y < 1.0)):
            raise ValueError("offset y must lie in [0,1)^n")
        if len(self.lo) != self.n or len(self.hi) != self.n:
            raise ValueError("box bounds must have length n")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise ValueError("box bounds must be finite with lo < hi on every axis")
        # the cube window, widened by a few indices, must hold int64 indices
        with np.errstate(over="ignore"):
            reach = np.maximum(np.abs(lo), np.abs(hi)) / self.h
        if not np.all(reach < 2.0 ** 62):
            raise ValueError(f"grid spacing {self.h!r} gives cube indices beyond int64")

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
        if self.n not in (2, 3):
            raise ValueError(f"crack dimension n = {self.n} is not 2 or 3")
        if not np.all(np.isfinite(self.simplices)):
            raise ValueError("crack coordinates must be finite")
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
        return _cross(d[:, 0], d[:, 1])

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
#
# The row arithmetic works on coordinate columns: a numpy reduction over a
# last axis of length 2 or 3 costs several times the products it sums.


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot product, summed left to right as `np.sum(u * v, axis=1)`."""
    out = u[:, 0] * v[:, 0]
    for j in range(1, u.shape[1]):
        out += u[:, j] * v[:, j]
    return out


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (k, 3) rows, by `np.cross`'s component formulas."""
    out = np.empty(u.shape)
    out[:, 0] = u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1]
    out[:, 1] = u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2]
    out[:, 2] = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    return out


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
    d = closest1 - closest2
    return np.sqrt(_dot(d, d))


def _planar_seg_dist(P: np.ndarray, Q: np.ndarray,
                     a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between planar segments [P_i, Q_i] and [a_i, b_i], row by row.

    A proper crossing, the ends of each segment strictly on opposite sides
    of the other's line, is at distance 0; only the other rows need
    `_seg_seg_dist`, whose closest points round a crossing nearly parallel
    to [a, b] off it.
    """
    def side(o, d, X):  # sign of X against the line o + t d
        return np.sign(d[:, 0] * (X[:, 1] - o[:, 1]) - d[:, 1] * (X[:, 0] - o[:, 0]))

    d1, d2 = Q - P, b - a
    cross = (side(P, d1, a) * side(P, d1, b) < 0.0) & (side(a, d2, P) * side(a, d2, Q) < 0.0)
    out = np.zeros(P.shape[0])
    miss = np.flatnonzero(~cross)
    out[miss] = _seg_seg_dist(P[miss], Q[miss], a[miss], b[miss])
    return out


def _seg_tri_dist(P: np.ndarray, Q: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance between segments [P_i, Q_i] and triangles tri_i (shape (k, 3, 3)), row by row."""
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    # Proper intersections via Moller-Trumbore.
    d = Q - P
    e1 = v1 - v0
    e2 = v2 - v0
    h = _cross(d, e2)
    det = _dot(h, e1)
    ok = np.abs(det) > 1e-14
    inv = np.where(ok, det, 1.0)
    s = P - v0
    u = _dot(s, h) / inv
    qv = _cross(s, e1)
    v = _dot(qv, d) / inv
    t = _dot(qv, e2) / inv
    hit = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t >= 0.0) & (t <= 1.0)

    # A crossing row is at distance 0; only the other rows need the
    # candidates below.
    out = np.zeros(P.shape[0])
    miss = np.flatnonzero(~hit)
    P, Q, v0, v1, v2, e1, e2 = (x[miss] for x in (P, Q, v0, v1, v2, e1, e2))
    dist = np.full(miss.size, np.inf)
    # Edge/edge candidates.
    for ea, eb in ((v0, v1), (v1, v2), (v2, v0)):
        dist = np.minimum(dist, _seg_seg_dist(P, Q, ea, eb))
    # Endpoint/interior candidates: project endpoints onto the plane and
    # test barycentric coordinates against the Gram matrix of (e1, e2).
    nvec = _cross(e1, e2)
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
    out[miss] = dist
    return out


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")


# The distance kernels round a crossing query's distance by about
# eps |q - p| / sin(angle to the crack); a query of at most
# tol / (_LENGTH_ROUNDING eps) in each coordinate is resolved at tol for
# crossing angles down to about 1 / _LENGTH_ROUNDING.
_LENGTH_ROUNDING = 16.0


def _check_query_length(span: float, tol: float) -> None:
    """ValueError unless a query whose ends differ by at most `span` in every
    coordinate is short enough for the distance kernels to resolve at tol.
    At tol = 0 they resolve no length."""
    longest = tol / (_LENGTH_ROUNDING * float(np.finfo(float).eps))
    if not span <= longest:
        raise ValueError(f"query segment spans {span!r} in a coordinate, longer than "
                         f"{longest!r}, the length the distance kernels resolve at "
                         f"tol = {tol!r}")


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
    _check_tol(tol)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if P.ndim != 2 or Q.ndim != 2 or P.shape[1] != crack.n or Q.shape[1] != crack.n:
        raise ValueError(f"query ends must be rows of {crack.n} coordinates, the crack's "
                         f"dimension; got shapes {P.shape} and {Q.shape}")
    if P.shape[0] != Q.shape[0]:
        raise ValueError(f"P has {P.shape[0]} rows but Q has {Q.shape[0]}")
    lo = np.minimum(P, Q) - tol
    hi = np.maximum(P, Q) + tol
    # a nan end makes its row's lo and hi nan, an infinite one its lo or hi
    # infinite: one check of the two extremes sees every non-finite end
    if not (math.isfinite(lo.min(initial=0.0)) and math.isfinite(hi.max(initial=0.0))):
        raise ValueError("query segment ends must be finite")
    # Lattice batches arrive sorted in x: their rows run z_0-major, and a
    # row's low x is its start's plus one shift per batch, or, in a hit
    # table block, whose steps have x part 0 or 1, its start's.  On one
    # sorted run the stable sort (timsort) takes linear time.
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
    near = (lo[q, 0] <= s_hi[k, 0]) & (hi[q, 0] >= s_lo[k, 0])
    for j in range(1, crack.n):
        near &= (lo[q, j] <= s_hi[k, j]) & (hi[q, j] >= s_lo[k, j])
    q, k = q[near], k[near]
    hit = np.zeros(P.shape[0], dtype=bool)
    if q.size:
        if crack.n == 2:
            d = _planar_seg_dist(P[q], Q[q], S[k, 0], S[k, 1])
        else:
            d = _seg_tri_dist(P[q], Q[q], S[k])
        hit[q[d <= tol]] = True
    return hit


def segment_hits_crack(p, q, crack: CrackSurface, tol: float = 1e-12) -> bool:
    """True iff the closed segment [p, q] intersects the crack (within tol).

    A segment longer than the kernels resolve at tol (`_check_query_length`)
    is an input error, not a miss.
    """
    _check_tol(tol)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("query segment ends must be finite")
    if p.shape != q.shape:
        raise ValueError(f"query ends of shapes {p.shape} and {q.shape}")
    if np.array_equal(p, q):
        raise ValueError("degenerate query segment")
    with np.errstate(over="ignore"):  # an overflowing span is too long
        _check_query_length(float(np.max(np.abs(q - p))), tol)
    return bool(segments_hit_crack(p[None, :], q[None, :], crack, tol)[0])


def in_half_neighborhood(p, e, h: float, crack: CrackSurface,
                         tol: float = 1e-12) -> bool:
    """True iff p lies in the directional half-neighborhood J^{he} of the crack.

    Equivalent formulation: the segment [p, p + h e] meets the crack.  A
    step h e longer than `segment_hits_crack` resolves is an input error.
    """
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    _check_tol(tol)
    p = np.asarray(p, dtype=float)
    e = np.asarray(e, dtype=float)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(e))):
        raise ValueError("p and e must be finite")
    with np.errstate(over="ignore"):
        _check_query_length(float(h * np.max(np.abs(e), initial=0.0)), tol)
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


def _near_mask(grid: ShiftedGrid, crack: CrackSurface, tol: float, step,
               zmin: np.ndarray, zmax: np.ndarray) -> np.ndarray:
    """The lattice points z of the index window [zmin, zmax] whose query may
    come within tol of the crack, as a mask over the window.

    The query of z lies in the box of the lattice points h (z + y) and
    h (z + y + step): the step h e's own segment, or with step (1, .., 1)
    every edge and face diagonal of cube z.  Each simplex's box, inflated
    by tol and by that reach, becomes an integer index window, clipped to
    [zmin, zmax], that keeps every z whose query passes
    `segments_hit_crack`'s float box test: the real bounds are widened by
    1e-6 of their magnitude plus 1e-6, far above the rounding of either
    side of that test.  The mask is the union of these windows; a query
    outside it fails the box test, so it cannot hit.
    """
    near = np.zeros(tuple(zmax - zmin + 1), dtype=bool)
    step = np.asarray(step, dtype=float)
    S = crack.simplices
    lo = (S.min(axis=1) - tol) / grid.h - grid.offset - np.maximum(step, 0.0)
    hi = (S.max(axis=1) + tol) / grid.h - grid.offset - np.minimum(step, 0.0)
    # held just past the window first, so the slack stays finite
    lo, hi = (np.clip(v, zmin - 2, zmax + 2) for v in (lo, hi))
    lo = np.ceil(lo - 1e-6 * (1.0 + np.abs(lo)))
    hi = np.floor(hi + 1e-6 * (1.0 + np.abs(hi)))
    # clipped before the cast, so a window off the box stays empty: hi < lo
    lo = np.clip(lo, zmin, zmax + 1).astype(int) - zmin
    hi = np.clip(hi, zmin - 1, zmax).astype(int) - zmin + 1
    for a, b in zip(lo, hi):
        near[tuple(map(slice, a, b))] = True
    return near


# rows per `segments_hit_crack` call when a hit table is filled: the fill's
# memory stays bounded on any grid (11 MB traced on the 3D flat crack at
# h = 1/64), and the benchmark's lattice grids take one call
_HIT_BLOCK = 6144


@dataclass
class _SegmentHits:
    """Which undirected lattice segments [z, z + d] of a grid meet the crack.

    d runs over the segment classes, the members of `direction_set` whose
    first nonzero coordinate is positive (4 for n=2, 9 for n=3), and z over
    the cube window widened by one index on each side.  Every edge and face
    diagonal of a cube, and every step e of `direction_set` from a cube's
    lower corner, is one class's segment there: a step -d from z is class d
    at z - d.
    """

    classes: dict  # segment class d (tuple) -> its index in the last axis of hit
    hit: np.ndarray  # bool, widened window shape + (number of classes,)

    def view(self, start, step) -> np.ndarray:
        """Hits of the segments [z + start, z + start + step] over the cube
        window, step being a class or minus one."""
        step = tuple(int(v) for v in step)
        start = np.asarray(start, dtype=int)
        if step not in self.classes:
            step = tuple(-v for v in step)
            start = start - step
        shape = np.array(self.hit.shape[:-1]) - 2
        window = tuple(slice(1 + s, 1 + s + k) for s, k in zip(start, shape))
        return self.hit[window + (self.classes[step],)]


def _segment_hits(grid: ShiftedGrid, crack: CrackSurface | None) -> _SegmentHits:
    """The hit table of `grid`: each class's rows of its `_near_mask` over
    the widened window are queried, in blocks of `_HIT_BLOCK` rows, and
    every other segment misses."""
    D = np.array([d for d in direction_set(grid.n) if d[np.flatnonzero(d)[0]] > 0])
    zmin, zmax = grid.cube_window()
    wmin, wmax = zmin - 1, zmax + 1
    hit = np.zeros(tuple(wmax - wmin + 1) + (len(D),), dtype=bool)
    if crack is not None and crack.m > 0:
        tol = 1e-9 * grid.h
        for c, d in enumerate(D):  # the near rows first, then their hits
            hit[..., c] = _near_mask(grid, crack, tol, d, wmin, wmax)
        # flat order runs z_0-major, so every block is sorted in x
        rows = np.flatnonzero(hit)
        for i in range(0, rows.size, _HIT_BLOCK):
            r = rows[i:i + _HIT_BLOCK]
            *z, c = np.unravel_index(r, hit.shape)
            P = grid.corner(np.stack(z, axis=-1) + wmin)
            hit.flat[r] = segments_hit_crack(P, P + grid.h * D[c], crack, tol)
    return _SegmentHits({tuple(int(v) for v in d): c for c, d in enumerate(D)}, hit)


def classify_cubes(grid: ShiftedGrid, crack: CrackSurface | None,
                   hits: _SegmentHits | None = None) -> CubeClassification:
    """Mark bad hyper-cubes: the crack meets one of the cube's edges or face diagonals.

    Given the grid's hit table `hits`, the mask is the OR of its views of
    the cube segments.  Without it, only the cubes of the `_near_mask` of
    step (1, .., 1) over the cube window are queried, segment by segment,
    and a bad cube leaves the later queries; every other cube is good.
    """
    zmin, zmax = grid.cube_window()
    shape = tuple(int(zmax[i] - zmin[i] + 1) for i in range(grid.n))
    bad = np.zeros(shape, dtype=bool)
    if hits is not None:
        for a, e in _cube_segments(grid.n):
            bad |= hits.view(a, e)
        return CubeClassification(grid, crack, bad, zmin)
    if crack is None or crack.m == 0:
        return CubeClassification(grid, crack, bad, zmin)
    tol = 1e-9 * grid.h
    near = _near_mask(grid, crack, tol, np.ones(grid.n), zmin, zmax)
    corners = grid.corner(np.argwhere(near) + zmin)
    flat_bad = np.zeros(corners.shape[0], dtype=bool)
    for a, e in _cube_segments(grid.n):
        todo = ~flat_bad
        if not np.any(todo):
            break
        C = corners[todo] + grid.h * a
        flat_bad[todo] = segments_hit_crack(C, C + grid.h * e, crack, tol)
    bad[near] = flat_bad
    return CubeClassification(grid, crack, bad, zmin)


def discrete_jump_energy(grid: ShiftedGrid, crack: CrackSurface | None,
                         hits: _SegmentHits | None = None) -> float:
    """h^n * sum_e sum_z 1_{J^{he}}(z + hy) / (h |e|) over enumerated lattice points.

    Each direction e reads its segments from the grid's hit table, built
    here unless given as `hits`.
    """
    if crack is None or crack.m == 0:
        return 0.0
    if hits is None:
        hits = _segment_hits(grid, crack)
    total = 0.0
    for e in direction_set(grid.n).astype(float):
        total += np.count_nonzero(hits.view((0,) * grid.n, e)) / (grid.h * np.linalg.norm(e))
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


def _shadow_pieces(obj, axis: int) -> tuple[np.ndarray, bool]:
    """The pieces of obj projected along `axis`, and whether they are boxes.

    A CrackSurface gives its simplices, a CubeClassification the closed
    boxes of its bad cubes, and an array of shape (k, 2, n) its own boxes.
    The vertices come back with coordinate `axis` dropped: shape (k, v, n-1).
    """
    if isinstance(obj, CrackSurface):
        verts, boxes = obj.simplices, False
    elif isinstance(obj, CubeClassification):
        verts, boxes = obj.bad_boxes(), True
    else:
        verts, boxes = np.asarray(obj, dtype=float), True
    return np.delete(verts, axis, axis=2), boxes


def _union_intervals(intervals) -> list:
    ivs = sorted((a, b) for a, b in intervals if b > a)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _shadow_union(verts: np.ndarray) -> list:
    """Union of the 1D shadows [min, max] of pieces with vertices (k, v, 1)."""
    return _union_intervals(zip(verts.min(axis=1)[:, 0].tolist(),
                                verts.max(axis=1)[:, 0].tolist()))


def _diff_measure_1d(u1: list, u2: list) -> float:
    total = sum(b - a for a, b in u1)
    for a, b in u1:
        for c, d in u2:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                total -= hi - lo
    return total


def _shadow_mask(verts: np.ndarray, boxes: bool, grid_lo, raster: float,
                 shape) -> np.ndarray:
    """Pixels of a 2D raster whose centres lie in one of the projected pieces.

    A box marks the block of centres c with lo <= c <= hi on both axes,
    found by `searchsorted` on the sorted centres; a triangle marks the
    centres whose barycentric coordinates are all nonnegative.
    """
    mask = np.zeros(shape, dtype=bool)
    centres = [grid_lo[a] + raster * (np.arange(shape[a]) + 0.5) for a in range(2)]
    if boxes:
        i0, j0 = (np.searchsorted(c, verts[:, 0, a], side="left")
                  for a, c in enumerate(centres))
        i1, j1 = (np.searchsorted(c, verts[:, 1, a], side="right")
                  for a, c in enumerate(centres))
        for a0, a1, b0, b1 in zip(i0, i1, j0, j1):
            mask[a0:a1, b0:b1] = True
        return mask
    XX, YY = np.meshgrid(*centres, indexing="ij")
    for v0, v1, v2 in verts:
        d = np.stack([XX - v0[0], YY - v0[1]], axis=-1)
        e1 = v1 - v0
        e2 = v2 - v0
        den = e1[0] * e2[1] - e1[1] * e2[0]
        if abs(den) < 1e-16:
            continue
        bu = (d[..., 0] * e2[1] - d[..., 1] * e2[0]) / den
        bv = (e1[0] * d[..., 1] - e1[1] * d[..., 0]) / den
        mask |= (bu >= 0.0) & (bv >= 0.0) & (bu + bv <= 1.0)
    return mask


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
    shadows = [_shadow_pieces(o, axis) for o in (obj, minus) if o is not None]
    verts = shadows[0][0]
    if verts.shape[-1] == 1:
        u2 = _shadow_union(shadows[1][0]) if minus is not None else []
        val = float(_diff_measure_1d(_shadow_union(verts), u2))
        return (val, 0.0) if return_error else val

    pts = np.concatenate([v.reshape(-1, 2) for v, _ in shadows])
    lo, hi = (pts.min(axis=0), pts.max(axis=0)) if len(pts) else (np.zeros(2),) * 2
    lo = lo - raster
    shape = tuple(int(np.ceil((hi[i] - lo[i]) / raster)) + 2 for i in range(2))
    m1 = _shadow_mask(*shadows[0], lo, raster, shape)
    if minus is not None:
        m1 &= ~_shadow_mask(*shadows[1], lo, raster, shape)
    val = float(np.count_nonzero(m1)) * raster ** 2
    if return_error:
        edges = sum(np.count_nonzero(m1 != np.roll(m1, 1, axis=ax)) for ax in range(2))
        return val, float(edges) * raster ** 2
    return val
