import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from platelab import geometry, lab
from platelab.geometry import (CrackSurface, CubeClassification, ShiftedGrid,
                               _cross, _crosses, _dot, _miss_dist, _seg_seg_dist,
                               axis_plane_crack, bad_cube_boundary_measure,
                               classify_cubes, direction_set,
                               discrete_jump_energy, in_half_neighborhood,
                               projection_measure, segment_hits_crack,
                               segments_hit_crack)
from platelab.interpolation import directional_strain, sample

VERT = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))


# ---------------------------------------------------------------------------
# independent exact segment intersection (orientation tests), used as oracle


def _ccw(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, p):
    if _ccw(a, b, p) != 0.0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _sub(u, v):
    return [x - y for x, y in zip(u, v)]


def _fdot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _point_segment_sq_dist(p, a, b):
    """Squared distance from the point p to the closed segment [a, b]."""
    d, w = _sub(b, a), _sub(p, a)
    dd = _fdot(d, d)
    t = min(max(_fdot(w, d) / dd, 0), 1) if dd else 0
    return sum((x - t * y) ** 2 for x, y in zip(w, d))


def _box_sq_gap(p, q, a, b):
    """Squared distance between the boxes of [p, q] and [a, b]: at most the
    segments' squared distance."""
    return sum(max(0, min(x, y) - max(s, t), min(s, t) - max(x, y)) ** 2
               for x, y, s, t in zip(p, q, a, b))


def _segment_segment_sq_dist(p, q, a, b):
    """Squared distance between the closed segments [p, q] and [a, b]: at the
    lines' nearest pair when it lies on both, else at an end of one of them."""
    d1, d2, r = _sub(q, p), _sub(b, a), _sub(p, a)
    A, B, C, D, E = _fdot(d1, d1), _fdot(d1, d2), _fdot(d2, d2), _fdot(d1, r), _fdot(d2, r)
    den = A * C - B * B
    if den:
        s, t = (B * E - C * D) / den, (A * E - B * D) / den
        if 0 <= s <= 1 and 0 <= t <= 1:
            return sum((x + s * y - t * z) ** 2 for x, y, z in zip(r, d1, d2))
    return min(_point_segment_sq_dist(p, a, b), _point_segment_sq_dist(q, a, b),
               _point_segment_sq_dist(a, p, q), _point_segment_sq_dist(b, p, q))


def _segments_intersect_exact(p, q, a, b, tol=0.0):
    """Does the closed segment [p, q] come within tol of the closed segment [a, b]?

    The coordinates and tol become Fractions, so each orientation sign and
    each squared distance is exact on any float input, not only on dyadic
    ones.  tol = 0 asks whether the segments meet; two disjoint segments
    are nearest at an endpoint of one of them.
    """
    p, q, a, b = ([Fraction(x) for x in v] for v in (p, q, a, b))
    d1 = _ccw(a, b, p)
    d2 = _ccw(a, b, q)
    d3 = _ccw(p, q, a)
    d4 = _ccw(p, q, b)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
            and d3 != 0 and d4 != 0:
        return True
    if (_on_segment(a, b, p) or _on_segment(a, b, q)
            or _on_segment(p, q, a) or _on_segment(p, q, b)):
        return True
    tol = Fraction(tol)
    return tol > 0 and min(_point_segment_sq_dist(x, s, t) for x, s, t in
                           ((p, a, b), (q, a, b), (a, p, q), (b, p, q))) <= tol * tol


def _sign(x):
    return (x > 0) - (x < 0)


def _orient3(a, b, c, d):
    """Sign of det[b - a, c - a, d - a]: d above, on or below the plane abc."""
    u, v, w = ([x - y for x, y in zip(p, a)] for p in (b, c, d))
    return _sign(u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                 + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _in_triangle_2d(p, a, b, c):
    """p in the closed, nondegenerate triangle abc."""
    s = [_sign(_ccw(a, b, p)), _sign(_ccw(b, c, p)), _sign(_ccw(c, a, p))]
    return min(s) >= 0 or max(s) <= 0


def _seg_tri_intersect_exact(p, q, a, b, c, tol=0.0):
    """Does the closed segment [p, q] come within tol of the closed triangle abc?

    The float coordinates and tol become Fractions, so every decision is
    exact: whether they meet is the sign of orientation determinants
    (Shewchuk, DCG 18, 1997), and for tol > 0 the squared distance of two
    disjoint sets is rational.  It is taken at an end of the segment over
    the triangle's interior, or between the segment and an edge.
    """
    p, q, a, b, c = ([Fraction(float(x)) for x in v] for v in (p, q, a, b, c))
    tt = Fraction(tol) ** 2
    u, v = _sub(b, a), _sub(c, a)
    normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    # dropping an axis the normal has a component on maps the plane onto 2D
    # one to one, so a point of the plane lies in abc iff its shadow does
    k = next(i for i in range(3) if normal[i] != 0)

    def in_abc(x):
        return _in_triangle_2d(*([y for i, y in enumerate(w) if i != k] for w in (x, a, b, c)))

    # the ends' heights over the plane, times |normal|
    nn = _fdot(normal, normal)
    hp, hq = _fdot(_sub(p, a), normal), _fdot(_sub(q, a), normal)
    if hp == hq == 0:
        # coplanar: an end inside the triangle or an edge crossing
        flat = [[x for i, x in enumerate(w) if i != k] for w in (p, q, a, b, c)]
        if in_abc(p) or in_abc(q) or any(_segments_intersect_exact(*flat[:2], *e)
                                         for e in itertools.combinations(flat[2:], 2)):
            return True
    elif hp * hq <= 0:
        # the segment meets the plane in one point; it lies in the closed
        # triangle iff the line pq passes each edge on one side or on it
        s = [_orient3(p, q, a, b), _orient3(p, q, b, c), _orient3(p, q, c, a)]
        if min(s) >= 0 or max(s) <= 0:
            return True
    elif min(hp * hp, hq * hq) > tt * nn:
        return False  # both ends on one side, farther than tol from the plane
    # apart: an edge counts only if its box comes within tol of the segment's
    if any(h * h <= tt * nn and in_abc([y - h / nn * z for y, z in zip(x, normal)])
           for x, h in ((p, hp), (q, hq))):
        return True
    return any(_box_sq_gap(p, q, s, t) <= tt and _segment_segment_sq_dist(p, q, s, t) <= tt
               for s, t in ((a, b), (b, c), (c, a)))


def _exact_hits(P, Q, simplex, tol=0.0):
    """Does each closed segment [P_i, Q_i] meet the closed simplex, exactly.

    A segment counts when it comes within tol, the closed-set convention
    of `segments_hit_crack`.  Boxes more than tol apart keep the closed sets
    more than tol apart, so only the other rows go to the exact predicates.
    """
    exact = _segments_intersect_exact if simplex.shape[1] == 2 else _seg_tri_intersect_exact
    meet = (np.all(np.minimum(P, Q) <= simplex.max(axis=0) + tol, axis=1)
            & np.all(np.maximum(P, Q) >= simplex.min(axis=0) - tol, axis=1))
    return np.array([bool(m) and exact(p, q, *simplex, tol) for m, p, q in zip(meet, P, Q)],
                    dtype=bool)


def brute_force_classify(grid, crack):
    """Literal re-implementation of the bad-cube definition.

    Every direction from every designated corner, for all cubes at once;
    hits from `_exact_hits`, within the classifier's tol.  (The
    segment (0.1, 0.8)-(0.9, 0.2) misses the lattice point (0.5, 0.5) by
    3e-17 in binary; the classifier, at tol 1e-9 h, counts it.)
    """
    n = grid.n
    Z = grid.cube_indices()
    bad = np.zeros(len(Z), dtype=bool)
    dirs = [np.array(e) for e in
            sorted({tuple(v) for v in
                    {tuple(np.eye(n, dtype=int)[i]) for i in range(n)}
                    | {tuple(np.eye(n, dtype=int)[i] + s * np.eye(n, dtype=int)[j])
                       for i in range(n) for j in range(n) if i != j
                       for s in (1, -1)}})]
    for e in dirs:
        pos = np.where(e == 1)[0]
        neg = np.where(e == -1)[0]
        if len(pos) == 1 and len(neg) == 0 and np.sum(np.abs(e)) == 1:
            fixed, shift = [pos[0]], np.zeros(n, dtype=int)
        elif len(neg) == 0:
            fixed, shift = list(pos), np.zeros(n, dtype=int)
        else:
            fixed = [pos[0], neg[0]]
            shift = np.zeros(n, dtype=int)
            shift[neg[0]] = 1
        free = [i for i in range(n) if i not in fixed]
        for bits in itertools.product((0, 1), repeat=len(free)):
            eta = shift.copy()
            for i, b in zip(free, bits):
                eta[i] = b
            corner = grid.h * (Z + grid.offset + eta)
            tip = corner + grid.h * e
            for s in crack.simplices:
                todo = ~bad
                bad[todo] = _exact_hits(corner[todo], tip[todo], s, 1e-9 * grid.h)
    return {tuple(z) for z in Z[bad]}


# ---------------------------------------------------------------------------
# grids and direction sets


def test_grid_validation():
    with pytest.raises(ValueError):
        ShiftedGrid(2, -0.1, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        ShiftedGrid(2, 0.1, (1.5, 0.0), (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("h,y,lo,hi", [
    (np.nan, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)),
    (np.inf, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)),
    (0.1, (np.nan, 0.0), (0.0, 0.0), (1.0, 1.0)),
    (0.1, (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),  # inverted on axis 0
    (0.1, (0.0, 0.0), (0.0, 0.5), (1.0, 0.5)),  # empty on axis 1
    (0.1, (0.0, 0.0), (0.0, -np.inf), (1.0, 1.0)),
    (0.1, (0.0, 0.0), (0.0, 0.0), (np.nan, 1.0)),
    (1e-300, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)),  # cube indices beyond int64
    (1.0, (0.0, 0.0), (0.0, 0.0), (1e300, 1.0)),
])
def test_grid_rejects_non_finite_inverted_or_overflowing_windows(h, y, lo, hi):
    with pytest.raises(ValueError):
        ShiftedGrid(2, h, y, lo, hi)


def test_grid_dimension_must_be_an_integer():
    # n = 2.0 matched the offset's shape (2,) and failed later with a TypeError
    with pytest.raises(ValueError, match="dimension n must be a positive integer, got 2.0"):
        ShiftedGrid(2.0, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))


def test_grid_window_holds_large_indices():
    zmin, zmax = ShiftedGrid(1, 2.0 ** -60, (0.0,), (0.0,), (1.0,)).cube_window()
    assert zmin[0] == -1 and zmax[0] == 2 ** 60 - 1


def test_grid_enumerates_cubes_covering_box():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    Z = g.cube_indices()
    # cubes with corners 0..0.75 plus the touching ones at -0.25 and 1.0
    assert {tuple(z) for z in Z} >= {(i, j) for i in range(4) for j in range(4)}
    corners = g.corner(Z)
    assert np.all(corners <= 1.0 + 1e-12)
    assert np.all(corners + g.h >= -1e-12)


def test_direction_set_counts():
    D2 = direction_set(2)
    assert len(D2) == 5
    assert {tuple(v) for v in D2} == {(1, 0), (0, 1), (1, 1), (1, -1), (-1, 1)}
    D3 = direction_set(3)
    # distinct vectors: 3 axes + 3 sums + 6 differences
    assert len(D3) == 12
    assert len({tuple(v) for v in D3}) == len(D3)


# ---------------------------------------------------------------------------
# crack surfaces


def test_crack_surface_normals_and_measure():
    c = VERT
    assert c.measure() == pytest.approx(1.0)
    assert np.allclose(np.abs(c.normals[0]), [1.0, 0.0])
    tri = CrackSurface(np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float))
    assert tri.measure() == pytest.approx(0.5)
    assert np.allclose(np.abs(tri.normals[0]), [0.0, 0.0, 1.0])


def test_crack_surface_normals_are_not_an_argument():
    # normals always come from the simplices; a given array is not accepted
    with pytest.raises(TypeError):
        CrackSurface(VERT.simplices, normals=np.array([[0.0, 1.0]]))


def test_crack_surface_rejects_degenerate():
    with pytest.raises(ValueError):
        CrackSurface(np.array([[[0.0, 0.0], [0.0, 0.0]]]))


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 4)])
def test_crack_surface_rejects_dimensions_other_than_2_or_3(shape):
    simplices = np.eye(shape[1])[None] * np.ones(shape)
    with pytest.raises(ValueError, match=f"n = {shape[1]} "):
        CrackSurface(simplices)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_crack_surface_rejects_non_finite(value):
    simplices = np.array([[[0.5, 0.0], [0.5, 1.0]], [[0.1, 0.8], [0.9, 0.2]]])
    simplices[1, 0, 1] = value
    with pytest.raises(ValueError, match="finite"):
        CrackSurface(simplices)


def test_crack_surface_load_rejects_non_finite(tmp_path):
    path = tmp_path / "crack.txt"
    path.write_text("0.5 0.0 0.5 0.0 1.0 0.0 0.5 1.0 nan\n")
    with pytest.raises(ValueError, match="finite"):
        CrackSurface.load(path, 3)


def test_crack_surface_file_roundtrip(tmp_path):
    c = CrackSurface(np.array([[[0.1, 0.8], [0.9, 0.2]],
                               [[0.5, 0.0], [0.5, 1.0]]]))
    path = tmp_path / "crack.txt"
    c.save(path)
    c2 = CrackSurface.load(path, 2)
    assert np.array_equal(c.simplices, c2.simplices)
    assert np.allclose(c.normals, c2.normals)


def test_crack_surface_load_rejects_bad_line(tmp_path):
    path = tmp_path / "crack.txt"
    path.write_text("0.0 0.0 1.0\n")
    with pytest.raises(ValueError):
        CrackSurface.load(path, 2)


# ---------------------------------------------------------------------------
# intersection predicates


def test_segment_hits_crack_examples():
    assert segment_hits_crack((0.4, 0.3), (0.6, 0.3), VERT)
    assert not segment_hits_crack((0.1, 0.3), (0.2, 0.3), VERT)
    # coplanar: segment lying inside the crack line
    assert segment_hits_crack((0.5, 0.2), (0.5, 0.7), VERT)
    # short segments far from the origin are not degenerate
    assert not segment_hits_crack((999.9995, 0.5), (1000.0005, 0.5), VERT)
    with pytest.raises(ValueError):
        segment_hits_crack((0.5, 0.5), (0.5, 0.5), VERT)


def test_segment_hits_triangle():
    tri = CrackSurface(np.array([[[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5]]],
                                dtype=float))
    assert segment_hits_crack((0.2, 0.2, 0.4), (0.2, 0.2, 0.6), tri)
    assert not segment_hits_crack((0.8, 0.8, 0.4), (0.8, 0.8, 0.6), tri)
    # segment inside the triangle plane
    assert segment_hits_crack((0.1, 0.1, 0.5), (0.3, 0.3, 0.5), tri)
    # touching an edge counts
    assert segment_hits_crack((0.5, 0.0, 0.4), (0.5, 0.0, 0.6), tri)


def test_in_half_neighborhood():
    assert in_half_neighborhood((0.45, 0.3), (1, 0), 0.1, VERT)
    assert not in_half_neighborhood((0.6, 0.3), (1, 0), 0.1, VERT)
    assert not in_half_neighborhood((0.45, 0.3), (0, 1), 0.1, VERT)
    # a step of 1e-6 across the crack is a valid query
    assert in_half_neighborhood((0.5 - 5e-7, 0.3), (1, 0), 1e-6, VERT)


@pytest.mark.parametrize("p,q", [((np.nan, 0.2), (0.7, 0.2)), ((0.2, 0.2), (np.inf, 0.2)),
                                 ((0.2, -np.inf), (0.7, 0.2))])
def test_segment_hits_crack_rejects_non_finite_ends(p, q):
    with pytest.raises(ValueError, match="finite"):
        segment_hits_crack(p, q, VERT)


@pytest.mark.parametrize("p,e,h", [((0.45, 0.3), (1, 0), np.nan),
                                   ((0.45, 0.3), (1, 0), np.inf),
                                   ((np.nan, 0.3), (1, 0), 0.1),
                                   ((0.45, 0.3), (np.inf, 0), 0.1)])
def test_in_half_neighborhood_rejects_non_finite_input(p, e, h):
    with pytest.raises(ValueError, match="finite"):
        in_half_neighborhood(p, e, h, VERT)


TRI = CrackSurface(np.array([[[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5]]], dtype=float))


def _answers_true_or_raises_length(query):
    """True unless the query is rejected as too long for the kernels."""
    try:
        return query()
    except ValueError as exc:
        assert "resolve at tol" in str(exc)
        return True


# (crack, point on it, unit directions that cross it there)
_CROSSINGS = [(VERT, (0.5, 0.3), [(1.0, 0.0), (0.6, 0.8), (-0.6, 0.8)]),
              (TRI, (0.2, 0.3, 0.5), [(0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.48, 0.6, 0.64)])]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("crack, x, directions", _CROSSINGS, ids=["2d", "3d"])
def test_long_crossing_queries_are_hits_or_input_errors(crack, x, directions):
    # a query through a point of the crack crosses it at any length; beyond
    # the length the kernels resolve at tol, the answer is a ValueError,
    # never a miss, and no coordinate difference overflows
    x = np.array(x)
    hits = []
    for length in 10.0 ** np.arange(2, 301):
        for d in np.array(directions):
            hits.append(_answers_true_or_raises_length(
                lambda: segment_hits_crack(x + length * d, x - length * d, crack)))
            # a step from just before the crack, long by h or by e, covers it
            hits.append(_answers_true_or_raises_length(
                lambda: in_half_neighborhood(x - 0.25 * d, length * d, 1.0, crack)))
            hits.append(_answers_true_or_raises_length(
                lambda: in_half_neighborhood(x - 0.25 * d, d, length, crack)))
    assert all(hits)
    # the examples of one horizontal query on the vertical crack
    for length in (1e12, 1e20, 1e150, 1e300):
        with pytest.raises(ValueError, match="resolve at tol"):
            segment_hits_crack((length, 0.3), (-length, 0.3), VERT)
    with pytest.raises(ValueError, match="resolve at tol"):
        in_half_neighborhood((0.45, 0.3), (1e308, 0.0), 10.0, VERT)
    # a query within the resolved length still answers
    assert segment_hits_crack((100.0, 0.3), (-100.0, 0.3), VERT)
    assert not segment_hits_crack((100.0, 1.3), (-100.0, 1.3), VERT)


@pytest.mark.parametrize("P, Q, match", [
    ([[0.2, 0.3], [np.nan, 0.3]], [[0.7, 0.3], [0.7, 0.3]], "finite"),
    ([[0.2, 0.3], [0.2, 0.3]], [[0.7, 0.3], [0.7, -np.inf]], "finite"),
    ([[0.2, 0.3], [0.1, 0.1]], [[0.7, 0.3]], "rows"),
    ([[0.2, 0.3, 0.1]], [[0.7, 0.3, 0.1]], "dimension"),
    ([[0.2, 0.3]], [[0.7, 0.3, 0.1]], "dimension"),
])
def test_segments_hit_crack_rejects_bad_rows(P, Q, match):
    # a row with a non-finite end is no miss, and rows that do not pair up
    # or do not match the crack's dimension are input errors
    with pytest.raises(ValueError, match=match):
        segments_hit_crack(np.array(P), np.array(Q), VERT)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_segments_hit_crack_rejects_a_negative_or_non_finite_tol(tol):
    # the segment crosses the crack; no tol may turn that into a miss
    P, Q = np.array([[0.2, 0.2]]), np.array([[0.7, 0.2]])
    assert segments_hit_crack(P, Q, VERT)[0]
    with pytest.raises(ValueError, match="tol"):
        segments_hit_crack(P, Q, VERT, tol)


def _kernel_dist(P, Q, S):
    """Reference: the distance of segment [P_i, Q_i] to simplex S_i as
    `segments_hit_crack` takes it, 0 for a crossing and the miss distance
    for every other row."""
    out = np.zeros(len(P))
    V = np.asarray(S).transpose(1, 0, 2)  # the kernels' vertex-major layout
    miss = np.flatnonzero(~_crosses(P, Q, V))
    out[miss] = _miss_dist(P[miss], Q[miss], V[:, miss])
    return out


def _planar_seg_dist(P, Q, a, b):
    """`_kernel_dist` on planar segments [a_i, b_i]."""
    return _kernel_dist(P, Q, np.stack([a, b], axis=1))


def _seg_tri_dist(P, Q, tri):
    """`_kernel_dist` on triangles tri_i, shape (k, 3, 3)."""
    return _kernel_dist(P, Q, np.asarray(tri))


def _all_pairs_hits(P, Q, crack, tol):
    """Reference: the distance kernel on every (query, simplex) pair, one row
    per pair (query-major) in one kernel call."""
    m = crack.m
    A, B = np.repeat(P, m, axis=0), np.repeat(Q, m, axis=0)
    S = np.tile(crack.simplices, (len(P), 1, 1))  # the simplices on every query's rows
    d = _planar_seg_dist(A, B, S[:, 0], S[:, 1]) if crack.n == 2 else _seg_tri_dist(A, B, S)
    return (d <= tol).reshape(len(P), m).any(axis=1)


@st.composite
def _lattice_scene(draw, dims=(2, 3), shifts=(0.0, 0.5, -0.5, 3.0)):
    """A crack and query segments on the lattice h*Z^n, h dyadic.

    Small integer coordinates make touching endpoints, lattice points on
    the crack and collinear or coplanar pairs common; dyadic h keeps the
    kernels' arithmetic exact enough that no distance lands near tol
    except by the deliberate sub-tol shifts, drawn from `shifts` (in tol).
    An n = 3 crack may hold a lattice square split along its diagonal, as
    `axis_plane_crack` splits it, so lattice points fall on a shared edge.
    """
    n = draw(st.sampled_from(dims))
    h = 2.0 ** -draw(st.integers(0, 6))
    ints = st.integers(0, 4)
    simplices = []
    for _ in range(draw(st.integers(1, 4))):
        verts = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=float)
        if n == 3 and draw(st.booleans()):
            verts[:, draw(st.integers(0, 2))] = draw(ints)  # axis-aligned plane
        simplices.append(verts)
    if n == 3 and draw(st.booleans()):
        a0, a1 = sorted(draw(st.lists(ints, min_size=2, max_size=2, unique=True)))
        square = axis_plane_crack(3, draw(st.integers(0, 2)), draw(ints),
                                  ((a0, a1), (a0, a1))).simplices
        simplices = simplices[:draw(st.integers(0, 2))] + list(square)
    simplices = np.array(simplices)
    try:
        crack = CrackSurface(h * simplices)
    except ValueError:  # a degenerate simplex
        assume(False)
    tol = draw(st.sampled_from([1e-12, 1e-9 * h]))
    dirs = direction_set(n)
    # each query segment's fields, drawn as one tuple: direction, sign,
    # length in h (up to twice the crack's extent), anchor, a free start,
    # a crack vertex (simplex, corner), and the axis and size in tol of a
    # near-miss shift
    segment = st.tuples(st.integers(0, len(dirs) - 1), st.sampled_from([-1, 1]),
                        st.integers(1, 8), st.sampled_from(["free", "start", "end"]),
                        st.lists(st.integers(-2, 6), min_size=n, max_size=n),
                        st.integers(0, len(simplices) - 1), st.integers(0, n - 1),
                        st.integers(0, n - 1), st.sampled_from(shifts))
    P, Q = [], []
    for k, sign, L, anchor, free, s, corner, axis, off in draw(
            st.lists(segment, min_size=1, max_size=30)):
        e = dirs[k] * sign
        if anchor == "free":
            p = np.array(free)
        else:
            v = simplices[s, corner]
            p = v if anchor == "start" else v - L * e
        # near misses: shift the whole segment off the lattice by a few tol
        shift = np.zeros(n)
        shift[axis] = off
        P.append(h * p + tol * shift)
        Q.append(h * (p + L * e) + tol * shift)
    return np.array(P), np.array(Q), crack, tol


FLAT3 = axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0)))
TILTED3 = CrackSurface(np.array([[[0.2, 0.1, 0.3], [0.8, 0.2, 0.7], [0.3, 0.9, 0.6]],
                                 [[0.8, 0.2, 0.7], [0.9, 0.8, 0.2], [0.3, 0.9, 0.6]]]))
# three segments through (0.5, 0.5)
STAR = CrackSurface(np.array([[[0.5, 0.0], [0.5, 1.0]], [[0.0, 0.0], [1.0, 1.0]],
                              [[0.0, 1.0], [1.0, 0.0]]]))
_LINE = np.linspace(0.0, 1.0, 9)[:, None]


@settings(max_examples=300, deadline=None)
@given(_lattice_scene())
# no query's box reaches the crack: zero candidate pairs
@example((_LINE * [1.0, 0.0], _LINE * [1.0, 0.0] + [0.0, 0.125],
          axis_plane_crack(2, 0, 5.0, ((0.0, 1.0),)), 1e-12))
# a single query row
@example((np.array([[0.25, 0.5]]), np.array([[0.75, 0.5]]), VERT, 1e-12))
# one query hit by all three simplices, next to queries hit by one or none
@example((np.array([[0.0, 0.5], [0.5, 0.1], [0.25, 0.9]]),
          np.array([[1.0, 0.5], [0.5, 0.4], [0.3, 0.95]]), STAR, 1e-12))
# an n = 3 crack of several triangles, lattice segments on and off its planes
@example((np.vstack([_LINE * [1.0, 0.0, 0.0] + [0.0, 0.5, 0.5],
                     _LINE * [0.0, 1.0, 1.0] + [0.5, 0.0, 0.0],
                     _LINE * [0.0, 0.0, 1.0] + [0.45, 0.4, 0.0]]),
          np.vstack([_LINE * [1.0, 0.0, 0.0] + [0.125, 0.5, 0.5],
                     _LINE * [0.0, 1.0, 1.0] + [0.5, 0.125, 0.125],
                     _LINE * [0.0, 0.0, 1.0] + [0.45, 0.4, 0.125]]),
          FLAT3.union(TILTED3), 1e-9 / 8))
def test_segments_hit_crack_matches_all_pairs(scene):
    P, Q, crack, tol = scene
    assert np.array_equal(segments_hit_crack(P, Q, crack, tol),
                          _all_pairs_hits(P, Q, crack, tol))
    one = segments_hit_crack(P[:1], Q[:1], crack, tol)
    assert one.shape == (1,) and one[0] == _all_pairs_hits(P[:1], Q[:1], crack, tol)[0]
    none = segments_hit_crack(np.empty((0, crack.n)), np.empty((0, crack.n)),
                              crack, tol)
    assert none.shape == (0,) and none.dtype == bool


_DIAG = np.array([[0.0, 0.0, 0.0], [0.25, 0.25, 0.0], [0.5, 0.5, 0.0]])


@settings(max_examples=300, deadline=None)
@given(_lattice_scene(dims=(3,), shifts=(0.0, 0.5, -0.5, 2.5)))
# lattice points on the shared diagonal of a split square: segments across
# it, along it, and ending on it from above
@example((np.vstack([_DIAG + [0.0, 0.0, -0.25], _DIAG, _DIAG + [0.0, 0.0, 0.25],
                     _DIAG[:2] + [0.25, -0.25, 0.0]]),
          np.vstack([_DIAG + [0.0, 0.0, 0.25], _DIAG + 0.25 * np.array([1.0, 1.0, 0.0]),
                     _DIAG, _DIAG[:2] + [-0.25, 0.25, 0.0]]),
          axis_plane_crack(3, 2, 0.0, ((0.0, 0.5), (0.0, 0.5))), 1e-12))
# segments normal to a triangle that end over its interior, 0.5 tol above,
# 0.5 tol below and 2.5 tol above it: the end is the nearest point
@example((np.array([[0.125, 0.375, 0.5e-12], [0.125, 0.375, -0.5e-12],
                    [0.125, 0.375, 2.5e-12]]),
          np.array([[0.125, 0.375, 0.25], [0.125, 0.375, -0.25], [0.125, 0.375, 0.25]]),
          axis_plane_crack(3, 2, 0.0, ((0.0, 0.5), (0.0, 0.5))), 1e-12))
def test_seg_tri_dist_matches_exact_oracle(scene):
    # a crossing row returns 0 before the edge and endpoint candidates; every
    # row agrees with the exact oracle within tol on the lattice, near
    # misses shifted a fraction of tol or 2.5 tol off it included
    P, Q, crack, tol = scene
    for tri in crack.simplices:
        got = _seg_tri_dist(P, Q, np.broadcast_to(tri, (len(P),) + tri.shape)) <= tol
        assert np.array_equal(got, _exact_hits(P, Q, tri, tol))


@settings(max_examples=300, deadline=None)
@given(_lattice_scene(dims=(2,), shifts=(0.0, 0.5, -0.5, 2.5)))
# a crossing, a touching end, a collinear overlap and a parallel near miss
@example((np.array([[0.25, 0.5], [0.5, 1.0], [0.5, 0.25], [0.5 + 0.5e-12, 0.0]]),
          np.array([[0.75, 0.5], [0.5, 1.5], [0.5, 0.75], [0.5 + 0.5e-12, 1.0]]),
          VERT, 1e-12))
def test_planar_seg_dist_matches_exact_oracle(scene):
    # a proper crossing is 0 before the closest-point formula; every row
    # agrees with the exact oracle within tol on the lattice, near misses
    # shifted a fraction of tol or 2.5 tol off it included
    P, Q, crack, tol = scene
    for s in crack.simplices:
        a, b = (np.broadcast_to(v, P.shape) for v in s)
        assert np.array_equal(_planar_seg_dist(P, Q, a, b) <= tol, _exact_hits(P, Q, s, tol))


# row entries: signed zeros, subnormals and magnitudes up to 1e150, whose
# products and their sums of three stay finite, and entries of one scale,
# whose sums round
_ENTRY = st.one_of(st.floats(-1e150, 1e150), st.floats(-4.0, 4.0),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310,
                                    1e150, -1e150]))


@st.composite
def _row_pair(draw):
    shape = (draw(st.integers(0, 12)), draw(st.integers(2, 3)))
    return tuple(draw(hnp.arrays(float, shape, elements=_ENTRY)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(_row_pair())
# sums whose value depends on the order of their terms
@example((np.array([[1.0, 1e-16, 1e-16], [1e-16, 1e-16, 1.0]]), np.ones((2, 3))))
@example((np.array([[1.0, 1e-16], [1e-16, 1.0]]), np.array([[0.1, 3.0], [7.0, 0.3]])))
def test_column_kernels_equal_numpy_reductions(rows):
    # the column-wise forms sum in numpy's order; only the sign of a zero may
    # differ (np.sum starts from +0.0), which == does not see
    u, v = rows
    assert np.array_equal(_dot(u, v), np.sum(u * v, axis=1))
    assert np.array_equal(np.sqrt(_dot(u, u)), np.linalg.norm(u, axis=1))
    if u.shape[1] == 3:
        assert np.array_equal(_cross(u, v), np.cross(u, v))


# ---------------------------------------------------------------------------
# classification


def test_classify_empty_and_far_crack():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    assert classify_cubes(g, None).num_bad == 0
    far = axis_plane_crack(2, 0, 5.0, ((0.0, 1.0),))
    assert classify_cubes(g, far).num_bad == 0


@pytest.mark.parametrize("crack,h,y", [
    (VERT, 0.25, (0.0, 0.0)),
    (VERT, 0.25, (0.37, 0.11)),
    (CrackSurface(np.array([[[0.1, 0.8], [0.9, 0.2]]])), 0.25, (0.0, 0.0)),
    (CrackSurface(np.array([[[0.1, 0.8], [0.9, 0.2]]])), 0.125, (0.61, 0.29)),
    (FLAT3, 0.125, (0.0, 0.0, 0.0)),  # lattice points on the crack plane
    (FLAT3, 0.125, (0.53, 0.17, 0.81)),
    (TILTED3, 0.125, (0.29, 0.64, 0.08)),
])
def test_classify_matches_brute_force(crack, h, y):
    n = crack.n
    g = ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n)
    c = classify_cubes(g, crack)
    got = {tuple(z) for z in c.bad_indices()}
    assert got and got == brute_force_classify(g, crack)


def _arc(m):
    """m-segment circular arc, centre (0.5, 0.5), radius 0.3, upper half."""
    th = np.linspace(0.0, np.pi, m + 1)
    pts = np.stack([0.5 + 0.3 * np.cos(th), 0.5 + 0.3 * np.sin(th)], axis=-1)
    return CrackSurface(np.stack([pts[:-1], pts[1:]], axis=1))


def _recorded_queries(monkeypatch):
    """Record the (P, Q) of every `geometry.segments_hit_crack` call."""
    calls = []
    query = geometry.segments_hit_crack

    def recording(P, Q, crack, tol=1e-12):
        calls.append((P, Q))
        return query(P, Q, crack, tol)

    monkeypatch.setattr(geometry, "segments_hit_crack", recording)
    return calls


# oblique cracks whose first culled cube, in `cube_indices` order, is good
_OBLIQUE = {2: CrackSurface(np.array([[[0.1, 0.8], [0.9, 0.2]]])),
            3: CrackSurface(np.array([[[0.1, 0.8, 0.7], [0.9, 0.2, 0.3], [0.5, 0.5, 0.9]]]))}


@pytest.mark.parametrize("n", [2, 3])
def test_classify_queries_each_edge_and_face_diagonal_once(n, monkeypatch):
    # the cubes of the crack's index windows are queried along each of their
    # segments: the corner pairs of {0,1}^n one or two coordinates apart,
    # each once and in one batch call; no other cube is queried
    calls = _recorded_queries(monkeypatch)
    g = ShiftedGrid(n, 0.125, (0.3,) * n, (0.0,) * n, (1.0,) * n)
    crack = _OBLIQUE[n]
    c = classify_cubes(g, crack)
    assert c.num_bad > 0
    corners = list(itertools.product((0, 1), repeat=n))
    expect = {frozenset((a, b)) for a, b in itertools.combinations(corners, 2)
              if sum(x != y for x, y in zip(a, b)) <= 2}
    assert len(calls) == len(expect) == {2: 6, 3: 24}[n]
    # the first batch queries the culled cubes from their lower corners,
    # strictly fewer than the cubes of the box
    zmin, zmax = g.cube_window()
    Z = np.argwhere(geometry._near_mask(g, crack, 1e-9 * g.h, np.ones(n), zmin, zmax)) + zmin
    assert np.array_equal(calls[0][0], g.corner(Z))
    assert len(Z) < len(g.cube_indices())
    assert {tuple(z) for z in c.bad_indices()} <= {tuple(z) for z in Z}
    # a bad cube leaves the later batches; the first culled cube stays good,
    # so it heads every batch and names each batch's segment
    assert not c.bad_mask[tuple(Z[0] - c.zmin)]
    sizes = [len(P) for P, _ in calls]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1] >= len(Z) - c.num_bad
    first = g.corner(Z[:1])[0]
    segments = [frozenset(tuple(int(v) for v in np.rint((X - first) / g.h))
                          for X in (P[0], Q[0])) for P, Q in calls]
    assert set(segments) == expect
    # a crack along a lattice plane, off the grid's lattice planes, culls to
    # exactly its bad cubes
    calls.clear()
    flat = axis_plane_crack(n, 0, 0.5, ((0.25, 0.75),) * (n - 1))
    c = classify_cubes(g, flat)
    assert np.array_equal(calls[0][0], g.corner(c.bad_indices()))


@pytest.mark.parametrize("n", [2, 3])
def test_classify_cost_follows_the_crack(n, monkeypatch):
    calls = _recorded_queries(monkeypatch)
    h, y = 0.125, (0.3,) * n
    # a crack outside the box: no query at all
    far = axis_plane_crack(n, 0, 5.0, ((0.0, 1.0),) * (n - 1))
    assert classify_cubes(ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n), far).num_bad == 0
    assert calls == []
    # doubling the box at fixed h queries the same rows for the vertical crack
    vert = axis_plane_crack(n, 0, 0.5, ((0.0, 1.0),) * (n - 1))
    rows = []
    for lo, hi in ((-0.5, 1.5), (-1.5, 2.5)):
        calls.clear()
        c = classify_cubes(ShiftedGrid(n, h, y, (lo,) * n, (hi,) * n), vert)
        rows.append((sum(len(P) for P, _ in calls), c.num_bad))
    assert rows[0] == rows[1] and rows[0][0] > 0


def _all_cubes_reference(grid, crack):
    """The bad mask, the jump energy and the directional cutoffs from
    `segments_hit_crack` on every cube of the box."""
    tol = 1e-9 * grid.h
    zmin, zmax = grid.cube_window()
    shape = tuple(zmax - zmin + 1)
    corners = grid.corner(grid.cube_indices())
    bad = np.zeros(len(corners), dtype=bool)
    for a, e in geometry._cube_segments(grid.n):
        C = corners + grid.h * a
        bad |= segments_hit_crack(C, C + grid.h * e, crack, tol)
    total, cutoffs = 0.0, []
    for e in direction_set(grid.n).astype(float):
        hits = segments_hit_crack(corners, corners + grid.h * e, crack, tol)
        total += np.count_nonzero(hits) / (grid.h * np.linalg.norm(e))
        cutoffs.append(~hits.reshape(shape))
    return bad.reshape(shape), float(grid.h ** grid.n * total), cutoffs


@st.composite
def _cull_case(draw):
    """A crack on the 1/8 lattice of [-1, 2]^n, so often partly or wholly
    outside the unit box, and a dyadic grid over the box at offset 0 (lattice
    points on the crack) or at a random offset."""
    n = draw(st.sampled_from([2, 3]))
    coords = st.lists(st.integers(-8, 16), min_size=n, max_size=n)
    verts = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=3))
    try:
        crack = CrackSurface(np.array(verts, dtype=float) / 8)
    except ValueError:  # a degenerate simplex
        assume(False)
    h = 2.0 ** -draw(st.integers(2, 4 if n == 2 else 3))
    y = draw(st.one_of(st.just((0.0,) * n),
                       st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * n)))
    return ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n), crack


@settings(max_examples=100, deadline=None)
@given(_cull_case())
@example((ShiftedGrid(2, 0.125, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0)), _arc(16)))
@example((ShiftedGrid(3, 0.125, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3), FLAT3))
@example((ShiftedGrid(2, 0.25, (0.5, 0.5), (0.0, 0.0), (1.0, 1.0)),
          axis_plane_crack(2, 0, 5.0, ((0.0, 1.0),))))
def test_culled_queries_equal_the_all_cubes_reference(case):
    grid, crack = case
    bad, energy, cutoffs = _all_cubes_reference(grid, crack)
    assert np.array_equal(classify_cubes(grid, crack).bad_mask, bad)
    assert discrete_jump_energy(grid, crack) == energy
    s = sample(lambda X: X, grid)
    for e, cut in zip(direction_set(grid.n).astype(float), cutoffs):
        assert np.array_equal(directional_strain(s, e, crack).cutoff, cut)


# a box far from the origin, where one ulp of a lattice coordinate is about
# 1e-7 of an index, with a crack through lattice points of its own grid
_FAR = ShiftedGrid(2, 2.0 ** -10, (0.3, 0.7), (1e6, 1e6), (1e6 + 0.05, 1e6 + 0.05))
_FAR_Z = _FAR.cube_window()[0] + np.array([[[20, 3], [20, 40]], [[3, 3], [40, 41]]])


@settings(max_examples=100, deadline=None)
@given(_cull_case())
@example((_FAR, CrackSurface(_FAR.corner(_FAR_Z[:1]))))
@example((_FAR, CrackSurface(_FAR.corner(_FAR_Z[1:]))))
def test_tight_near_mask_keeps_every_row_the_box_test_passes(case):
    # every lattice query is culled by `_near_mask`; each lattice point whose
    # query box meets a simplex box is kept, for the hit table's steps over
    # the widened window, and over the cube window for the directional
    # strains' steps and for every segment of a cube, at step (1, .., 1)
    grid, crack = case
    tol = 1e-9 * grid.h
    s_lo, s_hi = crack.simplices.min(axis=1), crack.simplices.max(axis=1)

    def box_meets(P, Q):
        lo, hi = (np.minimum(P, Q) - tol)[:, None], (np.maximum(P, Q) + tol)[:, None]
        return np.any(np.all(lo <= s_hi, axis=2) & np.all(hi >= s_lo, axis=2), axis=1)

    def corners(wmin, wmax):
        axes = np.meshgrid(*map(np.arange, wmin, wmax + 1), indexing="ij")
        return grid.corner(np.stack([a.ravel() for a in axes], axis=-1))

    zmin, zmax = grid.cube_window()
    for wmin, wmax in ((zmin - 1, zmax + 1), (zmin, zmax)):
        P = corners(wmin, wmax)
        for d in direction_set(grid.n):
            near = geometry._near_mask(grid, crack, tol, d, wmin, wmax)
            assert np.all(near.ravel()[box_meets(P, P + grid.h * d)])
    P = corners(zmin, zmax)
    near = geometry._near_mask(grid, crack, tol, np.ones(grid.n), zmin, zmax).ravel()
    for a, e in geometry._cube_segments(grid.n):
        C = P + grid.h * a  # the queries of standalone `classify_cubes`
        assert np.all(near[box_meets(C, C + grid.h * e)])


def _slice_union_near_mask(grid, crack, tol, step, zmin, zmax):
    """Reference: `_near_mask` of one step as the union of one slice
    assignment per simplex window."""
    near = np.zeros(tuple(zmax - zmin + 1), dtype=bool)
    step = np.asarray(step, dtype=float)
    S = crack.simplices
    lo = (S.min(axis=1) - tol) / grid.h - grid.offset - np.maximum(step, 0.0)
    hi = (S.max(axis=1) + tol) / grid.h - grid.offset - np.minimum(step, 0.0)
    lo, hi = (np.clip(v, zmin - 2, zmax + 2) for v in (lo, hi))
    lo = np.ceil(lo - 1e-6 * (1.0 + np.abs(lo)))
    hi = np.floor(hi + 1e-6 * (1.0 + np.abs(hi)))
    lo = np.clip(lo, zmin, zmax + 1).astype(int) - zmin
    hi = np.clip(hi, zmin - 1, zmax).astype(int) - zmin + 1
    for a, b in zip(lo, hi):
        near[tuple(map(slice, a, b))] = True
    return near


@st.composite
def _near_case(draw):
    """Up to 40 seeded random simplices of one size scale around [-0.2, 1.2]^n,
    so often clipped by the box, and a dyadic grid over the unit box at
    offset 0 or at a random offset."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([0.01, 0.2, 1.5]))
    S = rng.random((m, 1, n)) * 1.4 - 0.2 + (rng.random((m, n, n)) - 0.5) * scale
    h = 2.0 ** -draw(st.integers(2, 6 if n == 2 else 4))
    y = draw(st.one_of(st.just((0.0,) * n),
                       st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * n)))
    return ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n), CrackSurface(S)


@settings(max_examples=100, deadline=None)
@given(_near_case(), st.sampled_from([61, 32768]))
@example((_FAR, CrackSurface(_FAR.corner(_FAR_Z))), 32768)
@example((ShiftedGrid(3, 0.125, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3), FLAT3), 5)
def test_stacked_near_mask_equals_the_slice_union(case, block):
    # a stack of steps gives, step by step on its trailing axis, the union of
    # one slice per simplex window, and a single step gives that mask alone:
    # the hit table's classes over the widened window, every direction and
    # (1, .., 1) over the cube window; listed in blocks of 32768 points or of
    # 61, which split the windows
    grid, crack = case
    tol = 1e-9 * grid.h
    zmin, zmax = grid.cube_window()
    D = direction_set(grid.n)
    classes = D[[d[np.flatnonzero(d)[0]] > 0 for d in D]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_NEAR_BLOCK", block)
        for wmin, wmax, steps in ((zmin - 1, zmax + 1, classes),
                                  (zmin, zmax, np.vstack([D, np.ones(grid.n, int)]))):
            near = geometry._near_mask(grid, crack, tol, steps, wmin, wmax)
            assert near.shape == tuple(wmax - wmin + 1) + (len(steps),)
            for c, d in enumerate(steps):
                ref = _slice_union_near_mask(grid, crack, tol, d, wmin, wmax)
                assert np.array_equal(near[..., c], ref)
                assert np.array_equal(geometry._near_mask(grid, crack, tol, d, wmin, wmax), ref)


@settings(max_examples=60, deadline=None)
@given(_cull_case(), st.integers(0, 2 ** 32 - 1))
@example((ShiftedGrid(3, 0.125, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3), FLAT3), 0)
def test_classify_experiment_rows_equal_the_standalone_functions(case, seed):
    # the experiment reads its bad mask and jump energy from one shared hit
    # table; each row equals, bitwise, the standalone functions on its grid
    grid, crack = case
    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lab, "ShiftedGrid", lambda *args: grids.append(ShiftedGrid(*args)) or grids[-1])
        rows = lab.classify_experiment(crack, grid.h, grid.lo, grid.hi, seed=seed, samples=3)
    assert len(grids) == len(rows) == 3
    for g, row in zip(grids, rows):
        c = classify_cubes(g, crack)
        assert np.array_equal(classify_cubes(g, crack, geometry._segment_hits(g, crack)).bad_mask,
                              c.bad_mask)
        assert row["num_bad"] == c.num_bad
        assert row["boundary_measure"] == bad_cube_boundary_measure(c)
        assert row["jump_energy"] == discrete_jump_energy(g, crack)


@pytest.mark.parametrize("crack", [_arc(64), FLAT3], ids=["arc", "flat3"])
def test_each_query_batch_makes_one_kernel_call(crack, monkeypatch):
    # the candidate pairs of all simplices go to `_crosses` at once, and the
    # pairs of the rows left to `_miss_dist` at once: one crossing call and
    # at most one miss call per batch that has a candidate pair, none otherwise
    calls, batches = {"_crosses": [], "_miss_dist": []}, []
    query = geometry.segments_hit_crack

    def counting_query(P, Q, crack, tol=1e-12):
        before = {name: len(c) for name, c in calls.items()}
        hit = query(P, Q, crack, tol)
        lo, hi = np.minimum(P, Q)[:, None] - tol, np.maximum(P, Q)[:, None] + tol
        boxes_meet = (np.all(lo <= crack.simplices.max(axis=1), axis=2)
                      & np.all(hi >= crack.simplices.min(axis=1), axis=2))
        batches.append(tuple(len(c) - before[name] for name, c in calls.items())
                       + (bool(np.any(boxes_meet)),))
        return hit

    def counting(name):
        kernel = getattr(geometry, name)

        def counted(P, *args):
            calls[name].append(len(P))
            return kernel(P, *args)
        return counted

    monkeypatch.setattr(geometry, "segments_hit_crack", counting_query)
    for name in calls:
        monkeypatch.setattr(geometry, name, counting(name))
    n = crack.n
    g = ShiftedGrid(n, 2.0 ** -(8 - n), (0.37, 0.11, 0.62)[:n], (0.0,) * n, (1.0,) * n)
    assert classify_cubes(g, crack).num_bad > 0
    assert discrete_jump_energy(g, crack) > 0.0
    assert all(crossing == int(candidates) and miss <= int(candidates)
               for crossing, miss, candidates in batches)
    if n == 2:  # every arc batch has candidates: one crossing call each, and
        # the jump energy's whole hit table is one batch
        assert len(calls["_crosses"]) == len(batches) == 6 + 1
    else:  # batches parallel to the plane and off it have none
        assert {candidates for *_, candidates in batches} == {False, True}


def test_rows_that_cross_skip_the_miss_distance(monkeypatch):
    # off the lattice planes, each row through FLAT3 crosses one triangle
    # while its box meets both: none of its pairs reaches `_miss_dist`, which
    # receives fewer pairs than the broad phase's candidates
    received, candidates = [], []
    query, miss = geometry.segments_hit_crack, geometry._miss_dist

    def counting_query(P, Q, crack, tol=1e-12):
        lo, hi = np.minimum(P, Q)[:, None] - tol, np.maximum(P, Q)[:, None] + tol
        candidates.append(np.count_nonzero(np.all(lo <= crack.simplices.max(axis=1), axis=2)
                                           & np.all(hi >= crack.simplices.min(axis=1), axis=2)))
        return query(P, Q, crack, tol)

    def recording_miss(P, Q, S):
        received.append((P, Q))
        return miss(P, Q, S)

    monkeypatch.setattr(geometry, "segments_hit_crack", counting_query)
    monkeypatch.setattr(geometry, "_miss_dist", recording_miss)
    g = ShiftedGrid(3, 1.0 / 16, (0.3, 0.6, 0.2), (0.0,) * 3, (1.0,) * 3)
    assert discrete_jump_energy(g, FLAT3) > 0.0
    assert classify_cubes(g, FLAT3).num_bad > 0
    P, Q = (np.concatenate(X) for X in zip(*received))
    assert 0 < len(P) < sum(candidates)
    for tri in FLAT3.simplices:
        assert not np.any(_crosses(P, Q, np.broadcast_to(tri[:, None], (3,) + P.shape)))


@pytest.mark.parametrize("crack,h", [(_arc(64), 1.0 / 64), (FLAT3, 1.0 / 16)])
@pytest.mark.parametrize("y", [0.0, 0.37])
def test_jump_energy_queries_each_undirected_segment_once(crack, h, y, monkeypatch):
    # at the lab benchmark's sizes the hit table is one batch, and no lattice
    # segment is in it twice, in either orientation
    calls = _recorded_queries(monkeypatch)
    n = crack.n
    g = ShiftedGrid(n, h, (y,) * n, (0.0,) * n, (1.0,) * n)
    assert discrete_jump_energy(g, crack) > 0.0
    assert len(calls) == 1
    P, Q = calls[0]
    ends = [np.rint(X / h - g.offset).astype(int) for X in (P, Q)]
    segments = {frozenset((tuple(p), tuple(q))) for p, q in zip(*ends)}
    assert len(segments) == len(P)


@pytest.mark.parametrize("crack,h,y,energy,num_bad", [
    (_arc(64), 1.0 / 64, (0.0, 0.0), "0x1.875861810018bp+1", 80),
    (_arc(64), 1.0 / 64, (0.3, 0.6), "0x1.7fee579a9824fp+1", 77),
    (FLAT3, 1.0 / 16, (0.0, 0.0, 0.0), "0x1.0b53a6bc06f6fp+4", 648),
    (FLAT3, 1.0 / 16, (0.3, 0.6, 0.2), "0x1.49df453456feap+2", 289),
])
def test_lattice_outputs_are_pinned(crack, h, y, energy, num_bad):
    # values of the row-reduction kernels (np.sum, np.cross, np.linalg.norm),
    # which the column-wise kernels reproduce bit for bit
    n = crack.n
    g = ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n)
    assert discrete_jump_energy(g, crack) == float.fromhex(energy)
    assert classify_cubes(g, crack).num_bad == num_bad


@pytest.mark.parametrize("crack,h,num_bad,exceed", [
    (VERT, 1.0 / 32, 68, "0x1.6800000000000p-5"),
    (FLAT3, 1.0 / 16, 648, "0x1.0000000000000p-7"),
])
def test_standalone_classification_outputs_are_pinned(crack, h, num_bad, exceed):
    # `approximate_experiment` classifies without a hit table, by the
    # per-segment loop over the culled cubes
    n = crack.n
    row, = lab.approximate_experiment(crack, [h], (0.0,) * n, (1.0,) * n)
    assert row["num_bad_cubes"] == num_bad
    assert row["exceed_measure"] == float.fromhex(exceed)


def test_planar_kernel_hits_crossings_nearly_parallel_to_the_crack():
    # seeded queries of length 1.78 through VERT at y ~ U(0, 1), their
    # directions N(0, 1e-3) rad off the crack: every one crosses it, and
    # the closest-point formula alone calls about 1.7% of them misses
    rng = np.random.default_rng(0)
    k = 200_000
    y = rng.random(k)
    th = np.pi / 2 + rng.normal(0.0, 1e-3, k)
    d = 0.89 * np.stack([np.cos(th), np.sin(th)], axis=1)
    c = np.stack([np.full(k, 0.5), y], axis=1)
    assert np.all(segments_hit_crack(c - d, c + d, VERT))
    a, b = (np.broadcast_to(v, (k, 2)) for v in VERT.simplices[0])
    assert np.count_nonzero(_seg_seg_dist(c - d, c + d, a, b) > 1e-12) > 1000


def test_jump_energy_memory_stays_bounded():
    # the 3D flat crack at h = 1/64, offset 0, queries about 6e4 segments,
    # most of them against both triangles; filled in blocks, the traced peak
    # stays far below the 75 MB of one batch of them all
    g = ShiftedGrid(3, 1.0 / 64, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3)
    tracemalloc.start()
    try:
        discrete_jump_energy(g, FLAT3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_classify_monotone_in_crack():
    g = ShiftedGrid(2, 0.125, (0.21, 0.47), (0.0, 0.0), (1.0, 1.0))
    c1 = classify_cubes(g, VERT)
    bigger = VERT.union(CrackSurface(np.array([[[0.2, 0.2], [0.8, 0.3]]])))
    c2 = classify_cubes(g, bigger)
    s1 = {tuple(z) for z in c1.bad_indices()}
    s2 = {tuple(z) for z in c2.bad_indices()}
    assert s1 <= s2


# ---------------------------------------------------------------------------
# jump energy and boundary measure


def test_jump_energy_empty():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    assert discrete_jump_energy(g, None) == 0.0


def test_jump_energy_matches_enumeration():
    h = 0.25
    g = ShiftedGrid(2, h, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    # direct lattice enumeration with the production membership primitive
    total = 0.0
    for e in direction_set(2).astype(float):
        for z in g.cube_indices():
            p = g.corner(z)
            if in_half_neighborhood(p, e, h, VERT):
                total += 1.0 / (h * np.linalg.norm(e))
    assert discrete_jump_energy(g, VERT) == pytest.approx(h ** 2 * total)


def test_boundary_measure_examples():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    c = classify_cubes(g, None)
    assert bad_cube_boundary_measure(c) == 0.0
    c.bad_mask[1, 1] = True
    assert bad_cube_boundary_measure(c) == pytest.approx(1.0)
    c.bad_mask[2, 1] = True
    assert bad_cube_boundary_measure(c) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# projections


def test_projection_segment_shadows():
    seg = CrackSurface(np.array([[[0.5, -0.5], [0.5, 0.5]]]))
    assert projection_measure(seg, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert projection_measure(seg, (1.0, 0.0)) == pytest.approx(1.0)


def test_projection_interval_union_and_difference():
    boxes = np.array([[[0.0, 0.0], [1.0, 0.1]],
                      [[0.5, 0.0], [1.5, 0.1]]])
    assert projection_measure(boxes, (0.0, 1.0)) == pytest.approx(1.5)
    minus = np.array([[[0.25, 0.0], [0.75, 0.1]]])
    assert projection_measure(boxes, (0.0, 1.0), minus=minus) == pytest.approx(1.0)


def test_projection_rejects_oblique_direction():
    seg = CrackSurface(np.array([[[0.5, -0.5], [0.5, 0.5]]]))
    with pytest.raises(ValueError):
        projection_measure(seg, (0.6, 0.8))


def test_projection_raster_3d():
    tri = CrackSurface(np.array([[[0, 0, 0.5], [1, 0, 0.5], [0, 1, 0.5]]],
                                dtype=float))
    val, err = projection_measure(tri, (0.0, 0.0, 1.0), raster=0.01,
                                  return_error=True)
    assert val == pytest.approx(0.5, abs=5 * err + 0.01)
    boxes = np.array([[[0.0, 0.0, 0.0], [0.5, 0.5, 1.0]]])
    val = projection_measure(boxes, (0.0, 0.0, 1.0), raster=0.005)
    assert val == pytest.approx(0.25, abs=0.02)


def test_projection_of_a_3d_classification():
    # the flat crack {x_1 = 0.5} at offset 0 puts lattice points on the
    # crack, so two layers of cubes are bad: a shadow 2h x (1 + 2h) along e_3
    h = 0.125
    c = classify_cubes(ShiftedGrid(3, h, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3), FLAT3)
    e3 = (0.0, 0.0, 1.0)
    val, err = projection_measure(c, e3, raster=1 / 64, return_error=True)
    assert (val, err) == (2 * h * (1 + 2 * h), 0.046875)
    assert projection_measure(c, e3, minus=c, raster=1 / 64) == 0.0
    # the crack is parallel to e_3: its own shadow is flat
    assert projection_measure(FLAT3, e3, raster=1 / 64) == 0.0


def test_empty_shadow_is_float_zero():
    for n in (2, 3):
        grid = ShiftedGrid(n, 0.125, (0.0,) * n, (0.0,) * n, (1.0,) * n)
        c = classify_cubes(grid, None)
        for xi in np.eye(n):
            for val in (projection_measure(c, xi), projection_measure(c, xi, minus=c),
                        projection_measure(np.zeros((0, 2, n)), xi),
                        *projection_measure(c, xi, return_error=True)):
                assert val == 0.0 and type(val) is float


def _reference_projection(obj, xi, minus=None, raster=0.01, return_error=False):
    """The shadow measure piece by piece: interval lists for n = 2, and for
    n = 3 every pixel centre tested against each box or triangle."""
    axis = int(np.flatnonzero(xi)[0])

    def parts(o):
        if isinstance(o, CrackSurface):
            return o.simplices, False
        if isinstance(o, CubeClassification):
            return o.bad_boxes(), True
        return np.asarray(o, dtype=float), True

    objs = [o for o in (obj, minus) if o is not None]
    n = parts(obj)[0].shape[-1]
    if n == 2:
        other = 1 - axis

        def union(o):
            verts, boxes = parts(o)
            if boxes:
                ivs = [(float(b[0, other]), float(b[1, other])) for b in verts]
            else:
                ivs = [(float(s[:, other].min()), float(s[:, other].max())) for s in verts]
            merged = []
            for a, b in sorted(iv for iv in ivs if iv[1] > iv[0]):
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            return merged

        u1 = union(obj)
        total = sum(b - a for a, b in u1)
        for a, b in u1:
            for c, d in (union(minus) if minus is not None else []):
                if min(b, d) > max(a, c):
                    total -= min(b, d) - max(a, c)
        return (total, 0.0) if return_error else total

    others = [a for a in range(3) if a != axis]
    pts = [p for p in (parts(o)[0].reshape(-1, 3)[:, others] for o in objs) if len(p)]
    lo = np.min([p.min(axis=0) for p in pts], axis=0) if pts else np.zeros(2)
    hi = np.max([p.max(axis=0) for p in pts], axis=0) if pts else np.zeros(2)
    lo = lo - raster
    shape = tuple(int(np.ceil((hi[i] - lo[i]) / raster)) + 2 for i in range(2))
    XX, YY = np.meshgrid(lo[0] + raster * (np.arange(shape[0]) + 0.5),
                         lo[1] + raster * (np.arange(shape[1]) + 0.5), indexing="ij")

    def mask(o):
        verts, boxes = parts(o)
        m = np.zeros(shape, dtype=bool)
        for s in verts:
            s = s[:, others]
            if boxes:
                m |= ((XX >= s[0, 0]) & (XX <= s[1, 0])
                      & (YY >= s[0, 1]) & (YY <= s[1, 1]))
                continue
            e1, e2 = s[1] - s[0], s[2] - s[0]
            den = e1[0] * e2[1] - e1[1] * e2[0]
            if abs(den) < 1e-16:
                continue
            dx, dy = XX - s[0, 0], YY - s[0, 1]
            bu = (dx * e2[1] - dy * e2[0]) / den
            bv = (e1[0] * dy - e1[1] * dx) / den
            m |= (bu >= 0.0) & (bv >= 0.0) & (bu + bv <= 1.0)
        return m

    m1 = mask(obj)
    if minus is not None:
        m1 &= ~mask(minus)
    val = float(np.count_nonzero(m1)) * raster ** 2
    if return_error:
        edges = sum(np.count_nonzero(m1 != np.roll(m1, 1, axis=ax)) for ax in range(2))
        return val, float(edges) * raster ** 2
    return val


@st.composite
def _shadow_operand(draw, n, kind):
    """Boxes, a crack, or a crack's classification, on a 1/32 grid.

    Box edges and crack vertices on multiples of 1/32 often fall exactly on
    pixel centres of a 1/16 or 1/32 raster, the closed-test boundary case.
    """
    coords = st.lists(st.integers(-4, 36), min_size=n, max_size=n)
    if kind == "boxes":
        k = draw(st.integers(0, 5))
        lo = np.array(draw(st.lists(coords, min_size=k, max_size=k)), dtype=float)
        width = np.array(draw(st.lists(st.lists(st.integers(0, 12), min_size=n, max_size=n),
                                       min_size=k, max_size=k)), dtype=float)
        return np.stack([lo, lo + width], axis=1).reshape(k, 2, n) / 32
    verts = draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                          min_size=1, max_size=2))
    try:
        crack = CrackSurface(np.array(verts, dtype=float) / 32)
    except ValueError:  # a degenerate simplex
        assume(False)
    if kind == "crack":
        return crack
    h = draw(st.sampled_from([0.25, 0.125]))
    y = draw(st.sampled_from([(0.0,) * n, (0.5,) * n, (0.3, 0.7, 0.1)[:n]]))
    return classify_cubes(ShiftedGrid(n, h, y, (0.0,) * n, (1.0,) * n), crack)


@st.composite
def _shadow_case(draw):
    n = draw(st.sampled_from([2, 3]))
    kinds = ["boxes", "crack", "classification"]
    obj = draw(_shadow_operand(n, draw(st.sampled_from(kinds))))
    minus_kind = draw(st.sampled_from([None, *kinds]))
    minus = None if minus_kind is None else draw(_shadow_operand(n, minus_kind))
    xi = np.zeros(n)
    xi[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0]))
    return obj, xi, minus, draw(st.sampled_from([1 / 16, 1 / 32, 0.05]))


@settings(max_examples=250, deadline=None)
@given(_shadow_case(), st.booleans())
def test_projection_matches_piecewise_reference(case, return_error):
    obj, xi, minus, raster = case
    kw = {"minus": minus, "raster": raster, "return_error": return_error}
    assert projection_measure(obj, xi, **kw) == _reference_projection(obj, xi, **kw)
