import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platelab.elasticity import (LameParams, form_matrix, quadratic_form_C,
                                 quadratic_form_C0, rescale_strain)
from platelab import minimize
from platelab.energy import BoundaryDatum, stretch_datum
from platelab.kirchhoff_love import PlateGrid
from platelab.minimize import (CrackIndicator, SolverConfig, _connected_components,
                               _derivative_operator, _hessian_operator,
                               _lateral_cell_mask, _reduced_solve,
                               _reduced_system, _solve_constrained,
                               alternate_minimize, elastic_solve,
                               empty_cracks, minimize_limit)

P2 = LameParams(1.0, 1.0, 2)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(altmin_max_rounds=0)


def test_empty_cracks_shapes():
    c = empty_cracks((8, 4))
    assert c.broken[0].shape == (7, 4)
    assert c.broken[1].shape == (8, 3)
    assert not c.released
    c2 = c.copy()
    c2.broken[0][0, 0] = True
    c2.released.add((0, 1))
    assert not c.broken[0][0, 0] and not c.released


def test_elastic_solve_uncracked_stretch():
    t = 0.5
    grid = PlateGrid(2, (48,), 6, (0.0,), (1.0,))
    g = stretch_datum(t, 2)
    u = elastic_solve(grid, empty_cracks(grid.shape), g, P2, 0.05)
    # datum is clamped on both lateral cell columns
    xs = grid.plan_centers(0)
    assert np.allclose(u.values[0, :, 0], t * xs[0], atol=1e-9)
    assert np.allclose(u.values[-1, :, 0], t * xs[-1], atol=1e-9)
    # interior in-plane displacement stays close to the affine stretch
    assert np.max(np.abs(u.values[..., 0] - t * xs[:, None])) < 0.05 * t


def test_elastic_solve_reaches_reduced_energy_density():
    # with the transverse direction free, min E_rho approaches (1/2) C0 t^2
    from platelab.energy import rescaled_energy
    t = 0.5
    grid = PlateGrid(2, (48,), 6, (0.0,), (1.0,))
    g = stretch_datum(t, 2)
    u = elastic_solve(grid, empty_cracks(grid.shape), g, P2, 0.01)
    e = rescaled_energy(u, P2, 0.01)
    target = 0.5 * (8.0 / 3.0) * t ** 2
    assert e.bulk == pytest.approx(target, rel=0.03)


def test_minimize_limit_subcritical_bar():
    t = 0.5  # elastic branch: (4/3) t^2 = 1/3 < 1
    s, cracks, e, trace = minimize_limit((64,), (0.0,), (1.0,),
                                         stretch_datum(t, 2), P2,
                                         SolverConfig())
    assert not np.any(cracks.broken[0]) and not cracks.released
    assert e.total == pytest.approx((4.0 / 3.0) * t ** 2, rel=0.02)
    assert e.boundary_penalty == 0.0


def test_minimize_limit_supercritical_bar():
    t = 1.2  # cracked branch: surface cost 1 < (4/3) t^2 = 1.92
    s, cracks, e, trace = minimize_limit((64,), (0.0,), (1.0,),
                                         stretch_datum(t, 2), P2,
                                         SolverConfig())
    assert np.count_nonzero(cracks.broken[0]) == 1
    assert e.surface == pytest.approx(1.0)
    assert e.bulk == pytest.approx(0.0, abs=1e-8)
    assert e.total == pytest.approx(1.0, rel=0.02)
    # energy trace decreases strictly at each accepted activation
    assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))


def test_minimize_limit_plate_trace_and_round_cap():
    # n = 3 on a 4 x 4 plan: the second round breaks the face next to the
    # first one; with one round allowed the search stops at the cap
    g = stretch_datum(1.5, 3)
    p3 = LameParams(1.0, 1.0, 3)
    s, cracks, e, trace = minimize_limit((4, 4), (0.0, 0.0), (1.0, 1.0), g, p3,
                                         SolverConfig(altmin_max_rounds=1))
    assert trace == pytest.approx([2.876396056834725, 2.597733740491489],
                                  rel=1e-12)
    assert np.argwhere(cracks.broken[0]).tolist() == [[1, 1]]
    assert not np.any(cracks.broken[1]) and not cracks.released
    s, cracks, e, trace = minimize_limit((4, 4), (0.0, 0.0), (1.0, 1.0), g, p3,
                                         SolverConfig())
    assert trace == pytest.approx([2.876396056834725, 2.597733740491489,
                                   2.3151364171450415], rel=1e-12)
    assert e.total == trace[-1]
    assert np.argwhere(cracks.broken[0]).tolist() == [[1, 1], [1, 2]]
    assert not np.any(cracks.broken[1]) and not cracks.released


def test_alternate_minimize_subcritical():
    grid = PlateGrid(2, (32,), 4, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, stretch_datum(0.3, 2), P2,
                                             0.05, SolverConfig())
    assert not np.any(cracks.broken[0]) and not np.any(cracks.broken[1])
    assert e.surface == 0.0
    assert e.total == pytest.approx((4.0 / 3.0) * 0.09, rel=0.05)


def test_alternate_minimize_supercritical_cracks():
    grid = PlateGrid(2, (32,), 4, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, stretch_datum(1.2, 2), P2,
                                             0.05, SolverConfig())
    # one full vertical column breaks: surface = layers * (1/layers) = 1
    assert np.count_nonzero(np.all(cracks.broken[0], axis=1)) == 1
    assert e.surface == pytest.approx(1.0)
    assert e.total == pytest.approx(1.0, rel=0.05)
    assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))


def test_alternate_minimize_monotone_trace_and_determinism():
    grid = PlateGrid(2, (24,), 4, (0.0,), (1.0,))
    g = stretch_datum(0.9, 2)
    r1 = alternate_minimize(grid, g, P2, 0.05, SolverConfig())
    r2 = alternate_minimize(grid, g, P2, 0.05, SolverConfig())
    assert r1[3] == r2[3]
    assert np.array_equal(r1[0].values, r2[0].values)


def test_released_side_drops_datum():
    # releasing a clamped side hands the solver a traction-free boundary;
    # the resulting state no longer matches the datum there
    from platelab.energy import boundary_penalty, rescaled_energy
    grid = PlateGrid(2, (24,), 4, (0.0,), (1.0,))
    g = stretch_datum(0.8, 2)
    c = CrackIndicator([b.copy() for b in empty_cracks(grid.shape).broken],
                       {(0, 1)})
    u = elastic_solve(grid, c, g, P2, 0.05)
    e_rel = rescaled_energy(u, P2, 0.05)
    assert e_rel.bulk == pytest.approx(0.0, abs=1e-8)  # free end: no stretch
    assert boundary_penalty(u, g) > 0.0


@st.composite
def _stencil_case(draw):
    """A stencil, its form matrix Q and a clamp, for n = 2 or 3.

    "membrane" and "hessian" act on the plan (n - 1 axes), "film" on the
    full grid (n axes, n components); broken faces and released sides random.
    """
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["membrane", "hessian", "film"]))
    nd = n if kind == "film" else n - 1
    shape = tuple(draw(st.integers(2, 5 if nd < 3 else 3)) for _ in range(nd))
    h = [draw(st.sampled_from([0.25, 0.2, 1.0 / 3.0])) for _ in range(nd)]
    broken = []
    for a in range(nd):
        s = list(shape)
        s[a] -= 1
        flags = draw(st.lists(st.booleans(), min_size=int(np.prod(s)),
                              max_size=int(np.prod(s))))
        broken.append(np.array(flags, dtype=bool).reshape(s))
    released = draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, 1))))
    p = LameParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0)), n)
    if kind == "film":
        ncomp = n
        stencil = _derivative_operator(shape, h, broken, n)
        rho = draw(st.sampled_from([0.05, 0.5]))
        Q = form_matrix(n, lambda D: quadratic_form_C(
            p, rescale_strain(0.5 * (D + D.T), rho)))
    else:
        ncomp = 1 if kind == "hessian" else nd
        stencil = (_hessian_operator(shape, h, broken) if kind == "hessian"
                   else _derivative_operator(shape, h, broken, nd))
        Q = form_matrix(nd, lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))
    fixed_cells = np.zeros(shape, dtype=bool)
    for axis in range(n - 1):
        for side in (0, 1):
            if (axis, side) not in released:
                fixed_cells |= _lateral_cell_mask(shape, axis, side)
    fixed_mask = np.repeat(fixed_cells.ravel(), ncomp)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    fixed_vals = rng.standard_normal(fixed_mask.size)
    weight = float(np.prod(h)) / (12.0 if kind == "hessian" else 1.0)
    return stencil, Q, weight, fixed_mask, fixed_vals, int(np.prod(shape))


@settings(max_examples=150, deadline=None)
@given(_stencil_case())
def test_reduced_system_matches_dense_reference(case):
    # Kff and b = -K_free,fixed x_fixed against K = w S^T (I kron Q) S, dense
    stencil, Q, weight, fixed_mask, fixed_vals, ncell = case
    rows, cols, vals = stencil
    S = np.zeros((ncell * len(Q), fixed_mask.size))
    np.add.at(S, (rows, cols), vals)
    K = weight * S.T @ np.kron(np.eye(ncell), Q) @ S
    free = ~fixed_mask
    Kff, b = _reduced_system(stencil, Q, weight, fixed_mask, fixed_vals)
    scale = max(np.abs(K).max(), 1.0)
    assert Kff.shape == (free.sum(), free.sum())
    np.testing.assert_allclose(Kff.toarray(), K[np.ix_(free, free)],
                               rtol=1e-12, atol=1e-12 * scale)
    ref_b = -K[np.ix_(free, fixed_mask)] @ fixed_vals[fixed_mask]
    np.testing.assert_allclose(b, ref_b, rtol=1e-12,
                               atol=1e-12 * scale * max(np.abs(fixed_vals).max(), 1.0))


def test_exactly_singular_free_block_raises():
    # four cells on [0, 1], the face between cells 1 and 2 broken and only
    # cell 0 clamped: cells 2 and 3 float, so the free block is singular
    shape, h = (4,), [0.25]
    stencil = _derivative_operator(shape, h, [np.array([False, True, False])], 1)
    fixed_mask = np.array([True, False, False, False])
    fixed_vals = np.array([1.0, 0.0, 0.0, 0.0])
    Kff, b = _reduced_system(stencil, np.eye(1), 0.25, fixed_mask, fixed_vals)
    assert np.any(b)
    with pytest.raises(RuntimeError):
        _solve_constrained(Kff, b, np.zeros(3, dtype=bool))
    # gauged, the floating cells settle at zero and cell 1 follows cell 0
    y = _solve_constrained(Kff, b, np.array([False, True, True]))
    assert np.allclose(y, [1.0, 0.0, 0.0], atol=1e-12)


def _union_find_labels(shape, broken):
    """Root of each cell (C order) after joining the cells of every open face."""
    parent = list(range(int(np.prod(shape))))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(len(shape)):
        for face in zip(*np.nonzero(~broken[a])):
            lo = np.ravel_multi_index(face, shape)
            hi = np.ravel_multi_index(tuple(f + (b == a) for b, f in enumerate(face)), shape)
            parent[root(lo)] = root(hi)
    return np.array([root(i) for i in range(len(parent))])


@st.composite
def _face_pattern(draw):
    """A shape of rank 1 to 3 (axes of length 1 allowed) and broken faces:
    none, all, or a random pattern."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, {1: 12, 2: 6, 3: 4}[rank])) for _ in range(rank))
    fill = draw(st.sampled_from(["none", "all", "random"]))
    broken = []
    for a in range(rank):
        s = list(shape)
        s[a] -= 1
        size = int(np.prod(s))
        if fill == "random":
            flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        else:
            flags = [fill == "all"] * size
        broken.append(np.array(flags, dtype=bool).reshape(s))
    return shape, broken


@settings(max_examples=300, deadline=None)
@given(_face_pattern())
def test_connected_components_partition(case):
    # cells i and j share a label exactly when a union-find over the open
    # faces puts them in one set; the numbering itself is free
    shape, broken = case
    labels = _connected_components(shape, broken)
    ref = _union_find_labels(shape, broken)
    assert labels.shape == (int(np.prod(shape)),)
    assert labels.min() == 0
    assert np.array_equal(labels[:, None] == labels[None, :], ref[:, None] == ref[None, :])


def _c0_form(n):
    p = LameParams(1.0, 1.0, n)
    return form_matrix(n - 1, lambda D: quadratic_form_C0(p, 0.5 * (D + D.T)))


def test_reduced_solve_skips_zero_bending_data(monkeypatch):
    # a stretch datum clamps un = 0; cracks at faces 2 and 5 leave cells 3-5
    # floating, yet the bending solve must not even build its stencil
    def no_stencil(*args):
        raise AssertionError("_hessian_operator called for zero clamp data")

    monkeypatch.setattr(minimize, "_hessian_operator", no_stencil)
    broken = np.zeros(7, dtype=bool)
    broken[[2, 5]] = True
    s = _reduced_solve((8,), (0.0,), (1.0,), CrackIndicator([broken]),
                       stretch_datum(1.2, 2), _c0_form(2))
    assert np.array_equal(s.un, np.zeros(8))
    assert np.array_equal(s.grad_un, np.zeros((8, 1)))
    # the membrane solve still runs: the clamped cells carry the stretch
    assert s.ubar[0, 0] == pytest.approx(1.2 / 16.0)
    assert s.ubar[-1, 0] == pytest.approx(1.2 * 15.0 / 16.0)


@pytest.mark.parametrize("c", [0.0, 1.0 / 16.0])
def test_reduced_solve_runs_bending_for_nonzero_data(monkeypatch, c):
    # un = (x^2 - c^2) / 2 clamps nonzero values (with c = 1/16 the first
    # cell's value is zero, the last one's is not): the Hessian stencil is built
    calls = []
    hessian = minimize._hessian_operator

    def spy(*args):
        calls.append(args)
        return hessian(*args)

    monkeypatch.setattr(minimize, "_hessian_operator", spy)
    g = BoundaryDatum(lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)),
                      lambda X: 0.5 * (np.atleast_2d(X)[:, 0] ** 2 - c * c),
                      lambda X: np.atleast_2d(X)[:, :1].copy(), 2)
    s = _reduced_solve((8,), (0.0,), (1.0,), empty_cracks((8,)), g, _c0_form(2))
    assert len(calls) == 1
    x = (np.arange(8) + 0.5) / 8.0
    assert s.un[0] == 0.5 * (x[0] ** 2 - c * c)
    assert s.un[-1] == 0.5 * (x[-1] ** 2 - c * c)
    assert np.all(s.un[1:-1] > 0.0)
    assert np.array_equal(s.ubar, np.zeros((8, 1)))
