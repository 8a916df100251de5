import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platelab.elasticity import (LameParams, form_matrix, quadratic_form_C,
                                 quadratic_form_C0, rescale_strain)
from platelab import minimize
from platelab.energy import BoundaryDatum, EnergyBreakdown, stretch_datum
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
    xs = grid.plan_points()[:, 0]
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
@given(_stencil_case(), st.integers(0, 2 ** 16))
def test_reduced_system_matches_dense_reference(case, seed):
    # Kff and b = -K_free,fixed x_fixed against K = w S^T (I kron Q) S, dense;
    # random free dofs marked floating get the gauge shift on the diagonal
    stencil, Q, weight, fixed_mask, fixed_vals, ncell = case
    rows, cols, vals = stencil
    S = np.zeros((ncell * len(Q), fixed_mask.size))
    np.add.at(S, (rows, cols), vals)
    K = weight * S.T @ np.kron(np.eye(ncell), Q) @ S
    free = ~fixed_mask
    floating = np.random.default_rng(seed).random(free.sum()) < 0.5
    Kff, b = _reduced_system(stencil, Q, weight, fixed_mask, fixed_vals, floating)
    scale = max(np.abs(K).max(), 1.0)
    ref = K[np.ix_(free, free)]
    if floating.any():
        ref = ref + np.diag(np.where(floating, 1e-8 * max(np.diag(ref).max(), 1.0), 0.0))
    assert Kff.shape == (free.sum(), free.sum())
    np.testing.assert_allclose(Kff.toarray(), ref, rtol=1e-12, atol=1e-12 * scale)
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
    Kff, b = _reduced_system(stencil, np.eye(1), 0.25, fixed_mask, fixed_vals,
                             np.zeros(3, dtype=bool))
    assert np.any(b)
    with pytest.raises(RuntimeError):
        _solve_constrained(Kff, b)
    # gauged, the floating cells settle at zero and cell 1 follows cell 0
    Kff, b = _reduced_system(stencil, np.eye(1), 0.25, fixed_mask, fixed_vals,
                             np.array([False, True, True]))
    y = _solve_constrained(Kff, b)
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


# ---------------------------------------------------------------------------
# through-cut sweep


def _bent_datum(t, a):
    """ubar = t x, un = a x^2 / 2, grad_un = a x: every film clamp column is
    a stretch plus a rotation, not a translation."""
    return BoundaryDatum(lambda X: t * np.atleast_2d(X)[:, :1],
                         lambda X: 0.5 * a * np.atleast_2d(X)[:, 0] ** 2,
                         lambda X: a * np.atleast_2d(X)[:, :1], 2)


@st.composite
def _cut_search_case(draw):
    """A film or limit problem on a 1D plan with random broken columns and
    released sides, stretch, bending (film only) and Lame constants."""
    kind = draw(st.sampled_from(["film", "limit"]))
    N = draw(st.integers(3, 12 if kind == "film" else 40))
    broken = np.array(draw(st.lists(st.booleans(), min_size=N - 1, max_size=N - 1)))
    p = LameParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0)), 2)
    t = draw(st.floats(0.1, 2.0))
    if kind == "film":
        grid = PlateGrid(2, (N,), draw(st.integers(1, 6)), (0.0,), (1.0,))
        problem = minimize._FilmProblem(grid, _bent_datum(t, draw(st.sampled_from([0.0, 0.7]))),
                                        p, draw(st.sampled_from([0.5, 0.1, 0.05])))
        cracks = empty_cracks(grid.shape)
    else:
        problem = minimize._LimitProblem((N,), (0.0,), (1.0,), stretch_datum(t, 2), p)
        cracks = empty_cracks((N,))
    cracks.broken[0][broken] = True
    cracks.released |= draw(st.sets(st.sampled_from([(0, 0), (0, 1)])))
    return problem, cracks


@settings(max_examples=60, deadline=None)
@given(_cut_search_case())
def test_score_cuts_matches_per_candidate_solves(case):
    # every unbroken column's sweep total against its own solve + energy
    problem, cracks = case
    scores = problem.score_cuts(cracks)
    N = problem.plan_shape[0]
    for k in np.flatnonzero(~cracks.broken[0].reshape(N - 1, -1).all(axis=1)):
        cand = cracks.copy()
        cand.broken[0][k] = True
        total = problem.solve(cand)[1].total
        assert abs(scores[k] - total) <= max(1e-10 * abs(total), 1e-12 * max(1.0, abs(total)))


@pytest.mark.parametrize("released", [set(), {(0, 0)}, {(0, 1)}])
@pytest.mark.parametrize("prebroken", [[], [0], [3], [0, 3]])
def test_bent_film_scores_lone_clamp_columns(released, prebroken):
    # a clamp column left alone keeps its own bulk (0.049 on the left and
    # 3.969 on the right here); every other piece a cut leaves is zero
    grid = PlateGrid(2, (5,), 3, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.2, 0.7), P2, 0.1)
    cracks = empty_cracks(grid.shape)
    cracks.broken[0][prebroken] = True
    cracks.released |= released
    scores = problem.score_cuts(cracks)
    for k in sorted(set(range(4)) - set(prebroken)):
        cand = cracks.copy()
        cand.broken[0][k] = True
        assert scores[k] == pytest.approx(problem.solve(cand)[1].total, rel=1e-12, abs=1e-12)


def test_uniform_stretch_cuts_face_zero_in_both_problems():
    # every round-1 through-cut leaves two unstrained pieces: all tie at a
    # total of 1, and the tie goes to the first candidate, face 0
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, stretch_datum(1.2, 2), P2, 0.05,
                                             SolverConfig())
    assert np.argwhere(np.all(cracks.broken[0], axis=1)).tolist() == [[0]]
    assert np.count_nonzero(cracks.broken[0]) == 8 and not cracks.released
    assert trace[-1] == e.total == pytest.approx(1.0, abs=1e-12)
    s, cracks, e, trace = minimize_limit((64,), (0.0,), (1.0,), stretch_datum(1.2, 2),
                                         P2, SolverConfig())
    assert np.flatnonzero(cracks.broken[0]).tolist() == [0] and not cracks.released
    assert trace[-1] == e.total == pytest.approx(1.0, abs=1e-12)


def test_bent_film_cuts_face_one_as_per_candidate_solves_do():
    # the clamp columns of a bent datum are rigid motions: every cut but the
    # two next to the sides leaves two unstrained pieces at a total of 1,
    # and the first of them, face 1, wins
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, _bent_datum(1.2, 0.5), P2, 0.05,
                                             SolverConfig())
    assert np.argwhere(np.all(cracks.broken[0], axis=1)).tolist() == [[1]]
    assert trace[-1] == e.total == pytest.approx(1.0, abs=1e-12)


class _NearTieProblem:
    """Cuts of a 1D plan whose totals differ by less than the tie slack."""

    plan_shape = (5,)
    column_area = [0.0]
    scores = np.array([1.0 + 5e-13, 1.0, 1.0 + 1e-13, 2.0])
    solve_offset = 0.0  # added to the solved total of every cut

    def solve(self, cracks):
        faces = np.flatnonzero(cracks.broken[0])
        total = (3.0 if cracks.released else
                 self.scores[faces].sum() + self.solve_offset if faces.size else 2.0)
        return None, EnergyBreakdown(total, 0.0)

    def score_cuts(self, cracks):
        return self.scores


def test_greedy_search_breaks_near_ties_by_candidate_order():
    # face 1 is lowest by 5e-13 relative, a tie: the earlier face 0 wins,
    # and its solve agrees with its score
    state, cracks, e, trace = minimize._greedy_search(_NearTieProblem(),
                                                      empty_cracks((5,)), 1)
    assert np.flatnonzero(cracks.broken[0]).tolist() == [0]
    assert trace == [2.0, 1.0 + 5e-13]


def test_alternate_minimize_factors_at_most_six_times(monkeypatch):
    # one initial solve, the round-1 winner's check and two side releases in
    # each of two rounds; the through-cuts are scored by the sweep
    calls = []
    splu = minimize.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(minimize.spla, "splu", counting)
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, stretch_datum(1.2, 2), P2, 0.05,
                                             SolverConfig())
    assert len(trace) == 2
    assert len(calls) <= 6


def test_winner_check_rejects_a_score_above_the_solved_field():
    # a solved field below its score proves the score wrong; a solve above
    # it is kept with its own total
    problem = _NearTieProblem()
    problem.solve_offset = -1e-6
    with pytest.raises(RuntimeError, match="through-cut scored"):
        minimize._greedy_search(problem, empty_cracks((5,)), 1)
    problem.solve_offset = 1e-6
    state, cracks, e, trace = minimize._greedy_search(problem, empty_cracks((5,)), 1)
    assert np.flatnonzero(cracks.broken[0]).tolist() == [0]
    assert trace == [2.0, 1.0 + 5e-13 + 1e-6] and e.total == trace[-1]


def test_winner_keeps_its_solved_total_at_small_rho():
    # at rho = 1e-3 the solve of a bent film is off by about 1e-9: the
    # search returns the solved field with its own total, just above the
    # exact score of 1 shared by every cut from face 1 to face 29
    grid = PlateGrid(2, (32,), 8, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.2, 0.5), P2, 1e-3)
    scores = problem.score_cuts(empty_cracks(grid.shape))
    assert np.all(scores[1:30] == 1.0)
    u, cracks, e, trace = alternate_minimize(grid, _bent_datum(1.2, 0.5), P2, 1e-3,
                                             SolverConfig())
    assert np.argwhere(np.all(cracks.broken[0], axis=1)).tolist() == [[1]]
    assert not cracks.released
    assert trace[-1] == e.total == problem.solve(cracks)[1].total
    assert 1.0 < e.total < 1.0 + 1e-7


def test_limit_sweep_declines_bending_data():
    # a nonzero un clamp has no sweep blocks: its columns are solved one by one
    problem = minimize._LimitProblem((8,), (0.0,), (1.0,), _bent_datum(0.5, 1.0), P2)
    assert problem.score_cuts(empty_cracks((8,))) is None
    problem = minimize._LimitProblem((8,), (0.0,), (1.0,), stretch_datum(0.5, 2), P2)
    assert problem.score_cuts(empty_cracks((8,))).shape == (7,)
