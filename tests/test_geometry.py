import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platelab import geometry
from platelab.geometry import (CrackSurface, ShiftedGrid, _seg_seg_dist,
                               _seg_tri_dist, axis_plane_crack,
                               bad_cube_boundary_measure, classify_cubes,
                               direction_set, discrete_jump_energy,
                               in_half_neighborhood, projection_measure,
                               segment_hits_crack, segments_hit_crack)

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


def _segments_intersect_exact(p, q, a, b):
    d1 = _ccw(a, b, p)
    d2 = _ccw(a, b, q)
    d3 = _ccw(p, q, a)
    d4 = _ccw(p, q, b)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 \
            and d3 != 0 and d4 != 0:
        return True
    return (_on_segment(a, b, p) or _on_segment(a, b, q)
            or _on_segment(p, q, a) or _on_segment(p, q, b))


def brute_force_classify(grid, crack):
    """Literal re-implementation of the bad-cube definition.

    Every direction from every designated corner, for all cubes at once;
    hits from the exact orientation predicates for n=2 and from the
    all-pairs distance kernel (`_all_pairs_hits`) for n=3.
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
            if n == 2:
                bad |= [any(_segments_intersect_exact(p, q, s[0], s[1])
                            for s in crack.simplices) for p, q in zip(corner, tip)]
            else:
                bad |= _all_pairs_hits(corner, tip, crack, 1e-9 * grid.h)
    return {tuple(z) for z in Z[bad]}


# ---------------------------------------------------------------------------
# grids and direction sets


def test_grid_validation():
    with pytest.raises(ValueError):
        ShiftedGrid(2, -0.1, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        ShiftedGrid(2, 0.1, (1.5, 0.0), (0.0, 0.0), (1.0, 1.0))


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


def _all_pairs_hits(P, Q, crack, tol):
    """Reference: the distance kernel on every (query, simplex) pair."""
    hit = np.zeros(len(P), dtype=bool)
    for s in crack.simplices:
        S = np.broadcast_to(s, (len(P),) + s.shape)  # the simplex on every row
        d = _seg_seg_dist(P, Q, S[:, 0], S[:, 1]) if crack.n == 2 else _seg_tri_dist(P, Q, S)
        hit |= d <= tol
    return hit


@st.composite
def _lattice_scene(draw):
    """A crack and query segments on the lattice h*Z^n, h dyadic.

    Small integer coordinates make touching endpoints, lattice points on
    the crack and collinear or coplanar pairs common; dyadic h keeps the
    kernels' arithmetic exact enough that no distance lands near tol
    except by the deliberate sub-tol shifts.
    """
    n = draw(st.sampled_from([2, 3]))
    h = 2.0 ** -draw(st.integers(0, 6))
    ints = st.integers(0, 4)
    simplices = []
    for _ in range(draw(st.integers(1, 4))):
        verts = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                       min_size=n, max_size=n)), dtype=float)
        if n == 3 and draw(st.booleans()):
            verts[:, draw(st.integers(0, 2))] = draw(ints)  # axis-aligned plane
        simplices.append(verts)
    simplices = np.array(simplices)
    try:
        crack = CrackSurface(h * simplices)
    except ValueError:  # a degenerate simplex
        assume(False)
    tol = draw(st.sampled_from([1e-12, 1e-9 * h]))
    dirs = direction_set(n)
    P, Q = [], []
    for _ in range(draw(st.integers(1, 30))):
        e = dirs[draw(st.integers(0, len(dirs) - 1))] * draw(st.sampled_from([-1, 1]))
        L = draw(st.integers(1, 8))  # up to twice the crack's extent
        anchor = draw(st.sampled_from(["free", "start", "end"]))
        if anchor == "free":
            p = np.array(draw(st.lists(st.integers(-2, 6), min_size=n, max_size=n)))
        else:
            v = simplices[draw(st.integers(0, len(simplices) - 1)),
                          draw(st.integers(0, n - 1))]
            p = v if anchor == "start" else v - L * e
        # near misses: shift the whole segment off the lattice by a few tol
        shift = np.zeros(n)
        shift[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, 0.5, -0.5, 3.0]))
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


@pytest.mark.parametrize("n", [2, 3])
def test_classify_queries_each_edge_and_face_diagonal_once(n, monkeypatch):
    # a crack outside the box leaves every cube good, so every cube is
    # queried along each of its segments: the corner pairs of {0,1}^n one
    # or two coordinates apart, each once and in one batch call
    calls = []
    kernel = geometry.segments_hit_crack

    def recording(P, Q, crack, tol=1e-12):
        calls.append((P, Q))
        return kernel(P, Q, crack, tol)

    monkeypatch.setattr(geometry, "segments_hit_crack", recording)
    g = ShiftedGrid(n, 0.25, (0.3,) * n, (0.0,) * n, (1.0,) * n)
    far = axis_plane_crack(n, 0, 5.0, ((0.0, 1.0),) * (n - 1))
    assert classify_cubes(g, far).num_bad == 0
    corners = list(itertools.product((0, 1), repeat=n))
    expect = {frozenset((a, b)) for a, b in itertools.combinations(corners, 2)
              if sum(x != y for x, y in zip(a, b)) <= 2}
    assert len(calls) == len(expect) == {2: 6, 3: 24}[n]
    cubes = g.corner(g.cube_indices())
    segments = [frozenset(tuple(int(v) for v in np.rint((X - cubes[0]) / g.h))
                          for X in (P[0], Q[0])) for P, Q in calls]
    assert set(segments) == expect
    assert all(P.shape == cubes.shape for P, Q in calls)


def _arc(m):
    """m-segment circular arc, centre (0.5, 0.5), radius 0.3, upper half."""
    th = np.linspace(0.0, np.pi, m + 1)
    pts = np.stack([0.5 + 0.3 * np.cos(th), 0.5 + 0.3 * np.sin(th)], axis=-1)
    return CrackSurface(np.stack([pts[:-1], pts[1:]], axis=1))


@pytest.mark.parametrize("crack,kernel", [(_arc(64), "_seg_seg_dist"),
                                          (FLAT3, "_seg_tri_dist")])
def test_each_query_batch_makes_one_kernel_call(crack, kernel, monkeypatch):
    # the candidate pairs of all simplices go to the distance kernel at
    # once: one call per batch that has a candidate pair, none otherwise
    kernel_calls, batches = [], []
    query, dist = geometry.segments_hit_crack, getattr(geometry, kernel)

    def counting_query(P, Q, crack, tol=1e-12):
        before = len(kernel_calls)
        hit = query(P, Q, crack, tol)
        lo, hi = np.minimum(P, Q)[:, None] - tol, np.maximum(P, Q)[:, None] + tol
        boxes_meet = (np.all(lo <= crack.simplices.max(axis=1), axis=2)
                      & np.all(hi >= crack.simplices.min(axis=1), axis=2))
        batches.append((len(kernel_calls) - before, bool(np.any(boxes_meet))))
        return hit

    def counting_kernel(P, *args):
        kernel_calls.append(len(P))
        return dist(P, *args)

    monkeypatch.setattr(geometry, "segments_hit_crack", counting_query)
    monkeypatch.setattr(geometry, kernel, counting_kernel)
    n = crack.n
    g = ShiftedGrid(n, 2.0 ** -(8 - n), (0.37, 0.11, 0.62)[:n], (0.0,) * n, (1.0,) * n)
    assert classify_cubes(g, crack).num_bad > 0
    assert discrete_jump_energy(g, crack) > 0.0
    assert all(calls == int(candidates) for calls, candidates in batches)
    if n == 2:  # every arc batch has candidates: one call each
        assert len(kernel_calls) == len(batches) == 6 + 5
    else:  # batches parallel to the plane and off it have none
        assert {candidates for _, candidates in batches} == {False, True}


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
