import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from platelab import interpolation
from platelab.geometry import ShiftedGrid, axis_plane_crack
from platelab.interpolation import (SampledField, build_approximant,
                                    directional_strain, interpolate, sample,
                                    strain_bound_check,
                                    structure_preservation_check)

VERT = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))


def affine(A, b):
    def v(X):
        X = np.atleast_2d(X)
        return X @ A.T + b
    return v


def test_sample_reproduces_lattice_values():
    g = ShiftedGrid(2, 0.25, (0.3, 0.7), (0.0, 0.0), (1.0, 1.0))
    v = affine(np.array([[2.0, -1.0], [0.5, 3.0]]), np.array([1.0, -2.0]))
    s = sample(v, g)
    z = np.array([[0, 0], [1, 2], [-1, 3]])
    assert np.allclose(s.value(z), v(g.corner(z)))


def test_sample_evaluates_the_field_at_the_lattice_corners():
    # the points are the corners h (z + y) of the whole index window, in C
    # order, equal to grid.corner's (h and y are not dyadic, so a different
    # rounding would show)
    g = ShiftedGrid(3, 0.1, (0.3, 0.7, 0.55), (-0.2, 0.0, 0.1), (0.9, 1.3, 0.6))
    seen = []
    s = sample(lambda X: seen.append(X) or X, g)
    zmin, zmax = g.cube_window()
    axes = [np.arange(a - 2, b + 4) for a, b in zip(zmin, zmax)]
    Z = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert len(seen) == 1 and np.array_equal(seen[0], g.corner(Z))
    assert np.array_equal(s.zmin, zmin - 2)
    assert np.array_equal(s.value(Z), g.corner(Z))


def test_sample_window_raises_outside():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    s = sample(lambda X: np.atleast_2d(X)[:, :1], g)
    with pytest.raises(ValueError):
        s.value(np.array([100, 0]))


def test_interpolate_exact_on_affine():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        g = ShiftedGrid(n, 0.2, tuple(rng.random(n)), (0.0,) * n, (1.0,) * n)
        A = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        v = affine(A, b)
        s = sample(v, g)
        X = rng.random((40, n))
        assert np.allclose(interpolate(s, X), v(X), atol=1e-12)


def test_partition_of_unity():
    # interpolating the constant 1 returns 1 at 1000 random points
    rng = np.random.default_rng(1)
    g = ShiftedGrid(2, 1.0 / 7, (0.13, 0.57), (0.0, 0.0), (1.0, 1.0))
    s = sample(lambda X: np.ones(np.atleast_2d(X).shape[0]), g)
    X = rng.random((1000, 2))
    assert np.max(np.abs(interpolate(s, X) - 1.0)) <= 1e-12


def _gradient(s, X):
    """Exact gradient of the multilinear interpolant, shape (k, ncomp, n), as
    `strain_bound_check` evaluates it."""
    return interpolation._hat_gradient(s, *interpolation._locate(s, X))


def test_interpolant_gradient_exact_on_affine():
    rng = np.random.default_rng(2)
    for n, y in ((2, (0.0, 0.0)), (3, (0.41, 0.07, 0.76))):
        g = ShiftedGrid(n, 0.1, y, (0.0,) * n, (1.0,) * n)
        A = rng.standard_normal((n, n))
        v = affine(A, np.zeros(n))
        s = sample(v, g)
        X = rng.random((20, n))
        G = _gradient(s, X)
        assert np.allclose(G, np.broadcast_to(A, (20, n, n)), atol=1e-11)


def test_interpolant_gradient_matches_finite_difference():
    g = ShiftedGrid(2, 0.05, (0.0, 0.0), (-1.0, -1.0), (2.0, 2.0))
    v = lambda X: (np.atleast_2d(X)[:, 0] * np.atleast_2d(X)[:, 1])[:, None]
    s = sample(v, g)
    X = np.array([[0.31, 0.47]])
    G = _gradient(s, X)
    d = 1e-6
    for a in range(2):
        dX = np.zeros(2)
        dX[a] = d
        fd = (interpolate(s, X + dX) - interpolate(s, X - dX)) / (2 * d)
        assert G[0, 0, a] == pytest.approx(fd[0, 0], abs=1e-5)


def _reference_hat_sum(s, base, frac, grad=False):
    """Sum over the 2^n corners of each located cell of hat weight times value.

    Shape (k, ncomp); with grad, the weights' partial derivatives replace
    them and the shape is (k, ncomp, n).
    """
    n = s.grid.n
    shape = s.values.shape[:-1]
    flat = s.values.reshape(-1, s.ncomp)
    first = np.ravel_multi_index(tuple((base - s.zmin).T), shape)
    factors = (1.0 - frac, frac)
    axes = range(n) if grad else (None,)
    out = [np.zeros((base.shape[0], s.ncomp)) for _ in axes]
    for bits in np.ndindex(*(2,) * n):
        vals = flat[first + np.ravel_multi_index(bits, shape)]
        for k, m in enumerate(axes):
            w = np.ones(base.shape[0])
            for i, b in enumerate(bits):
                if i != m:
                    w *= factors[b][:, i]
            if m is not None:
                w *= (1.0 if bits[m] else -1.0) / s.grid.h
            out[k] += w[:, None] * vals
    return np.stack(out, axis=-1) if grad else out[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.sampled_from([0.25, 0.125, 0.1]),
       st.integers(0, 2 ** 32 - 1))
def test_interpolant_and_gradient_match_the_corner_sum(n, ncomp, h, seed):
    # random (non-affine) samples; points anywhere, on cell faces, and in the
    # first and the last cell that the sampled window covers
    rng = np.random.default_rng(seed)
    g = ShiftedGrid(n, h, tuple(rng.random(n)), (0.0,) * n, (1.0,) * n)
    s0 = sample(lambda X: np.zeros((np.atleast_2d(X).shape[0], ncomp)), g)
    s = SampledField(g, s0.zmin, rng.standard_normal(s0.values.shape))
    last = s.zmin + np.array(s.values.shape[:-1]) - 2
    t = np.concatenate([s.zmin + 1 + (last - s.zmin) * rng.random((40, n)),
                        last + rng.random((10, n)), s.zmin + rng.random((10, n))])
    t[:20, 0] = np.floor(t[:20, 0])
    t[10:30, n - 1] = np.floor(t[10:30, n - 1])
    X = (t + g.offset) * h
    base, frac = interpolation._locate(s, X)
    assert np.any(np.all(base == last, axis=1))
    scale = float(np.max(np.abs(s.values)))
    np.testing.assert_allclose(interpolate(s, X), _reference_hat_sum(s, base, frac),
                               rtol=1e-12, atol=1e-14 * scale)
    np.testing.assert_allclose(_gradient(s, X),
                               _reference_hat_sum(s, base, frac, grad=True),
                               rtol=1e-12, atol=1e-14 * scale / h)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_hat_matches_order1_map_coordinates(n, ncomp, seed):
    # a random table of random shape; points anywhere in its index box, at
    # integer coordinates, and on the last index of each axis, where the
    # gradient's difference tables are read
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(2, 7, n))
    table = rng.standard_normal(shape + (ncomp,))
    coords = rng.random((40, n)) * (np.array(shape) - 1)
    coords[:10] = rng.integers(0, shape, (10, n))
    coords[10:20] = np.floor(coords[10:20])
    for a in range(n):
        coords[20 + a, a] = shape[a] - 1
    want = np.stack([ndimage.map_coordinates(table[..., c], coords.T, order=1)
                     for c in range(ncomp)], axis=-1)
    np.testing.assert_allclose(interpolation._hat(table, coords), want, rtol=1e-12,
                               atol=1e-14 * float(np.max(np.abs(table))))


def test_directional_strain_linear_field():
    g = ShiftedGrid(2, 0.125, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    A = np.array([[1.0, 0.5], [0.0, 2.0]])
    s = sample(affine(A, np.zeros(2)), g)
    for e in [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, -1.0])]:
        ds = directional_strain(s, e, None)
        assert np.allclose(ds.values, e @ A @ e, atol=1e-12)
        assert np.all(ds.cutoff)


def test_directional_strain_crack_cutoff():
    g = ShiftedGrid(2, 0.25, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    s = sample(affine(np.eye(2), np.zeros(2)), g)
    e = np.array([1.0, 0.0])
    ds = directional_strain(s, e, VERT)
    # lattice segments [x, x + h e1] starting in the column left of x1 = 0.5
    # cross the crack: those quotients are cut off to zero
    assert not np.all(ds.cutoff)
    assert np.all(ds.values[~ds.cutoff] == 0.0)
    assert np.allclose(ds.values[ds.cutoff], 1.0)


def test_build_approximant_margin_validation():
    g = ShiftedGrid(2, 0.1, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        build_approximant(lambda X: np.atleast_2d(X)[:, :1], g, None,
                          ((0.1, 0.1), (0.9, 0.9)))


def test_approximant_zero_on_bad_cubes_and_exact_elsewhere():
    g = ShiftedGrid(2, 0.0625, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    x0 = np.array([0.5, 0.0])
    nu = np.array([1.0, 0.0])

    def v(X):
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = X[:, 0] + ((X - x0) @ nu > 0)
        return out

    vk = build_approximant(v, g, VERT, ((0.0, 0.0), (1.0, 1.0)))
    # far from the crack the approximant agrees with v exactly (piecewise affine)
    far = np.array([[0.2, 0.3], [0.8, 0.6], [0.1, 0.9]])
    assert np.allclose(vk(far), v(far), atol=1e-12)
    # on the crack column it is forced to zero
    on = np.array([[0.5, 0.3], [0.5, 0.8]])
    assert np.allclose(vk(on), 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_approximant_is_zero_in_bad_cubes_and_the_interpolant_elsewhere(n):
    rng = np.random.default_rng(5)
    h = 0.125
    g = ShiftedGrid(n, h, tuple(rng.random(n)), (-1.0,) * n, (2.0,) * n)
    crack = axis_plane_crack(n, 0, 0.5, ((0.0, 1.0),) * (n - 1))
    A = rng.standard_normal((n, n))

    def v(X):
        X = np.atleast_2d(X)
        out = X @ A.T
        out[:, 0] += X[:, 0] > 0.5
        return out

    vk = build_approximant(v, g, crack, ((0.0,) * n, (1.0,) * n))
    X = rng.random((400, n))
    bad_cubes = {tuple(z) for z in vk.classification.bad_indices()}
    cube = np.floor(X / h - g.offset).astype(int)
    bad = np.array([tuple(z) in bad_cubes for z in cube])
    assert 0 < np.count_nonzero(bad) < len(X)
    got = vk(X)
    assert np.all(got[bad] == 0.0)
    assert np.array_equal(got[~bad], interpolate(vk.source, X)[~bad])


def test_each_evaluation_locates_its_points_once(monkeypatch):
    calls, axis_calls, kernel_calls = [], [], []
    locate, locate_axis = interpolation._locate, interpolation._locate_axis
    kernel = interpolation._hat

    def counting(s, X):
        calls.append(len(X))
        return locate(s, X)

    def counting_axis(s, a, x):
        axis_calls.append((a, len(x)))
        return locate_axis(s, a, x)

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(interpolation, "_locate", counting)
    monkeypatch.setattr(interpolation, "_locate_axis", counting_axis)
    monkeypatch.setattr(interpolation, "_hat", counting_kernel)
    g = ShiftedGrid(2, 0.125, (0.3, 0.6), (-0.5, -0.5), (1.5, 1.5))
    vk = build_approximant(affine(np.eye(2), np.zeros(2)), g, VERT,
                           ((0.0, 0.0), (1.0, 1.0)))
    e = np.array([1.0, 1.0])
    ds = directional_strain(vk.source, e, VERT)
    X = np.random.default_rng(6).random((50, 2))
    for evaluate in (lambda: interpolate(vk.source, X),
                     lambda: _gradient(vk.source, X),
                     lambda: vk(X),
                     lambda: strain_bound_check(vk, ds, e, X)):
        calls.clear()
        axis_calls.clear()
        kernel_calls.clear()
        evaluate()
        assert calls == [50]
        assert axis_calls == [(0, 50), (1, 50)]
        assert kernel_calls
    # a tensor grid locates each of its axes once, and blends without the
    # scattered kernel
    calls.clear()
    axis_calls.clear()
    kernel_calls.clear()
    vk.on_grid([X[:7, 0], X[:5, 1]])
    assert calls == [] and axis_calls == [(0, 7), (1, 5)] and kernel_calls == []


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.sampled_from([0.25, 0.125]),
       st.integers(0, 2 ** 32 - 1))
def test_on_grid_matches_the_approximant_at_the_meshgrid_points(n, ncomp, h, seed):
    # random samples and offset, a crack across the box along a random axis;
    # each axis has a random length and holds lattice coordinates, a point in
    # the last covered cell and a point of the crack: its plane's coordinate
    # on the normal axis, 0.5 on the others
    rng = np.random.default_rng(seed)
    lo, hi = -2 * n * h, 1 + 2 * n * h
    g = ShiftedGrid(n, h, tuple(rng.random(n)), (lo,) * n, (hi,) * n)
    normal, pos = int(rng.integers(n)), float(rng.random())
    crack = axis_plane_crack(n, normal, pos, ((lo, hi),) * (n - 1))
    vk = build_approximant(lambda X: np.zeros((np.atleast_2d(X).shape[0], ncomp)),
                           g, crack, ((0.0,) * n, (1.0,) * n))
    s = SampledField(g, vk.source.zmin, rng.standard_normal(vk.source.values.shape))
    vk = interpolation.ApproximantField(s, vk.classification, vk.region)
    last = s.zmin + np.array(s.values.shape[:-1]) - 2
    axes = []
    for a in range(n):
        t = s.zmin[a] + 1 + (last[a] - s.zmin[a]) * rng.random(int(rng.integers(1, 9)))
        t[: len(t) // 2] = np.floor(t[: len(t) // 2])
        x = (np.append(t, last[a] + rng.random()) + g.offset[a]) * h
        axes.append(rng.permutation(np.append(x, pos if a == normal else 0.5)))
    got = vk.on_grid(axes)
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    want = vk(X).reshape(got.shape)
    assert got.shape == tuple(len(x) for x in axes) + (ncomp,)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-14 * float(np.max(np.abs(s.values))))
    assert np.any(got == 0.0)
    assert np.array_equal(got == 0.0, want == 0.0)
    # an axis reaching outside the covered region raises, as at scattered points
    a = int(rng.integers(n))
    outside = (s.zmin[a] - 0.5 + g.offset[a]) * h if rng.random() < 0.5 \
        else (last[a] + 1.5 + g.offset[a]) * h
    axes[a] = np.append(axes[a], outside)
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    with pytest.raises(ValueError, match="outside covered region"):
        vk.on_grid(axes)
    with pytest.raises(ValueError, match="outside covered region"):
        vk(X)


@pytest.mark.parametrize("n, ncomp, lengths", [
    (2, 1, (1, 300)), (2, 2, (13, 300)), (2, 3, (250, 300)), (2, 1, (3, 40000)),
    (3, 3, (1, 40, 40)), (3, 1, (7, 40, 40)), (3, 2, (45, 40, 40))])
def test_blocks_join_to_the_approximant_at_the_meshgrid_points(n, ncomp, lengths):
    # dyadic offset and points, so that both paths locate every point with
    # the same exact fraction; the blends then agree bit for bit
    rng = np.random.default_rng(sum(lengths) + ncomp)
    h = 0.125
    lo, hi = -2 * n * h, 1 + 2 * n * h
    g = ShiftedGrid(n, h, tuple(rng.integers(0, 4, n) / 4), (lo,) * n, (hi,) * n)
    # across the last axis, so that a single row of axis 0 meets bad cubes
    crack = axis_plane_crack(n, n - 1, 0.5, ((lo - 1, hi + 1),) * (n - 1))
    vk = build_approximant(lambda X: np.zeros((np.atleast_2d(X).shape[0], ncomp)),
                           g, crack, ((0.0,) * n, (1.0,) * n))
    s = SampledField(g, vk.source.zmin, rng.standard_normal(vk.source.values.shape))
    vk = interpolation.ApproximantField(s, vk.classification, vk.region)
    cells = np.array(s.values.shape[:-1]) - 1
    # each axis starts at the crack's point (0.5, .., 0.5), then points anywhere
    # in the covered cells
    axes = [np.append(0.5, h * (s.zmin[a] + rng.integers(0, cells[a], k - 1) + g.offset[a]
                                + rng.integers(0, 8, k - 1) / 8))
            for a, k in enumerate(lengths)]
    blocks = list(vk.blocks(axes))
    # the blocks tile axes[0] in order, each index once; a grid that fits in
    # one block is one block, and only a one-row block may exceed the bound
    assert np.array_equal(np.concatenate([np.arange(lengths[0])[r] for r, _ in blocks]),
                          np.arange(lengths[0]))
    assert (len(blocks) > 1) == (np.prod(lengths) > interpolation._BLOCK_POINTS)
    for _, vals in blocks:
        assert vals.shape[1:] == lengths[1:] + (ncomp,)
        assert vals.shape[0] == 1 or vals[..., 0].size <= interpolation._BLOCK_POINTS
    got = np.concatenate([vals for _, vals in blocks])
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert np.array_equal(got, vk(X).reshape(got.shape))
    assert np.array_equal(vk.on_grid(axes), got)
    assert np.any(got == 0.0) and np.any(got != 0.0)


def test_strain_bound_zero_over_zero_counts_as_zero():
    g = ShiftedGrid(2, 0.125, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    zero = lambda X: np.zeros((np.atleast_2d(X).shape[0], 2))
    vk = build_approximant(zero, g, None, ((0.0, 0.0), (1.0, 1.0)))
    s = vk.source
    e = np.array([1.0, 0.0])
    ds = directional_strain(s, e, None)
    X = np.random.default_rng(3).random((50, 2))
    assert strain_bound_check(vk, ds, e, X) == 0.0


def test_strain_bound_affine_field_ratio_one():
    g = ShiftedGrid(2, 0.125, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = affine(A, np.zeros(2))
    vk = build_approximant(v, g, None, ((0.0, 0.0), (1.0, 1.0)))
    e = np.array([1.0, 0.0])
    ds = directional_strain(vk.source, e, None)
    X = np.random.default_rng(4).random((50, 2))
    # gradient of the interpolant and the quotient agree for affine fields;
    # the check normalizes the direction, the quotient does not, so the
    # ratio is |e(w)e.e|/|e|^2 / |E_e| * |e|^2 = 1 here (|e| = 1)
    assert strain_bound_check(vk, ds, e, X) == pytest.approx(1.0, abs=1e-10)


def test_structure_preservation_detects_bad_precondition():
    g = ShiftedGrid(2, 0.0625, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    v = affine(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))  # v1 depends on x2
    vk = build_approximant(v, g, None, ((0.0, 0.0), (1.0, 1.0)))
    assert structure_preservation_check(v, vk, 1, 0, rng=0) is None


def test_structure_preservation_passes_on_fiber_constant_field():
    g = ShiftedGrid(2, 0.0625, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    x0 = np.array([0.5, 0.0])

    def v(X):
        X = np.atleast_2d(X)
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = X[:, 0] + (X[:, 0] > x0[0])
        return out

    vk = build_approximant(v, g, VERT, ((0.0, 0.0), (1.0, 1.0)))
    assert structure_preservation_check(v, vk, 1, 0, rng=0) is True


def _jump_field(X):
    X = np.atleast_2d(X)
    out = np.zeros((X.shape[0], 2))
    out[:, 0] = X[:, 0] + (X[:, 0] > 0.5)
    return out


@pytest.mark.parametrize("crack,fibers", [
    # the bad cubes around {x_1 = 0.5} shadow a strip: 5 of the 20 feet
    # drawn from rng=3 lie in it, and the other 15 fibers are evaluated
    (VERT, 15),
    # a crack across the whole region along x_1 shadows every foot
    (axis_plane_crack(2, 1, 0.5, ((-0.5, 1.5),)), 0)])
def test_structure_preservation_skips_the_shadowed_fibers(crack, fibers, monkeypatch):
    g = ShiftedGrid(2, 0.0625, (0.0, 0.0), (-0.5, -0.5), (1.5, 1.5))
    vk = build_approximant(_jump_field, g, crack, ((0.0, 0.0), (1.0, 1.0)))
    points = []
    call = interpolation.ApproximantField.__call__

    def counting_call(self, X):
        points.append(len(X))
        return call(self, X)

    monkeypatch.setattr(interpolation.ApproximantField, "__call__", counting_call)
    # fibers through bad cubes see the approximant's zeros, so the check
    # passes only because they are skipped; with every fiber skipped it fails
    assert structure_preservation_check(_jump_field, vk, 1, 0, rng=3) is (fibers > 0)
    assert points == ([fibers * interpolation._FIBER_SAMPLES] if fibers else [])
