import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elastic_oracle import exact_form
from platelab.elasticity import LameParams
from platelab import energy, kirchhoff_love, lab, minimize
from platelab.energy import (BoundaryDatum, EnergyBreakdown, penalized_energies,
                             stretch_datum)
from platelab.kirchhoff_love import (KLState, PlateGrid, _apply_stencil,
                                     _derivative_operator, _empty_breaks, _hessian_operator,
                                     _plan_h, reduced_gradient)
from platelab.minimize import (CrackIndicator, SolverConfig, _clamped_cells, _reduced_solve,
                               _reduced_system, _solve_constrained,
                               alternate_minimize, elastic_solve,
                               empty_cracks, minimize_limit)

P2 = LameParams(1.0, 1.0, 2)


def _clamp_dofs(shape, plan_axes, released, ncomp):
    """A reference clamp mask in the solver's dof order: the cells of `shape`
    on the unreleased sides of its first plan_axes axes, each repeated over
    its ncomp components."""
    fixed = np.zeros(shape, dtype=bool)
    for axis in range(plan_axes):
        for side in (0, 1):
            if (axis, side) not in released:
                fixed[(slice(None),) * axis + (-side,)] = True
    return np.repeat(fixed.ravel(), ncomp)


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


@pytest.mark.parametrize("plan", [(2, 1), (3, 1)])
def test_plate_searches_on_a_plan_one_cell_wide(plan):
    # one cell along axis 1 leaves its broken array empty; its columns were
    # once read through a reshape that fails on an empty array
    g, p3, cfg = stretch_datum(1.2, 3), LameParams(1.0, 1.0, 3), SolverConfig()
    *_, e, _ = minimize_limit(plan, (0.0, 0.0), (1.0, 1.0), g, p3, cfg)
    assert np.isfinite(e.total)
    *_, e, _ = alternate_minimize(PlateGrid(3, plan, 2, (0.0, 0.0), (1.0, 1.0)), g, p3,
                                  0.1, cfg)
    assert np.isfinite(e.total)


def test_alternate_minimize_subcritical():
    grid = PlateGrid(2, (32,), 4, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, stretch_datum(0.3, 2), P2,
                                             0.05, SolverConfig())
    assert not np.any(cracks.broken[0]) and not np.any(cracks.broken[1])
    assert e.surface == 0.0
    assert e.total == pytest.approx((4.0 / 3.0) * 0.09, rel=0.05)


@pytest.mark.parametrize("rho", [np.inf, np.nan])
def test_film_search_rejects_a_non_finite_rho(rho):
    # at rho = inf the search returned a total (0.35337 on this grid)
    grid = PlateGrid(2, (8,), 4, (0.0,), (1.0,))
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        alternate_minimize(grid, stretch_datum(0.5, 2), P2, rho, SolverConfig())
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        elastic_solve(grid, empty_cracks(grid.shape), stretch_datum(0.5, 2), P2, rho)


@pytest.mark.parametrize("p", [LameParams(1.0, np.inf, 2), LameParams(np.inf, 1.0, 2)])
def test_searches_reject_infinite_lame_parameters(p):
    # an infinite mu was reported as a boundary datum too large
    with pytest.raises(ValueError, match="invalid Lame parameters"):
        minimize_limit((8,), (0.0,), (1.0,), stretch_datum(0.5, 2), p, SolverConfig())
    with pytest.raises(ValueError, match="invalid Lame parameters"):
        alternate_minimize(PlateGrid(2, (8,), 4, (0.0,), (1.0,)), stretch_datum(0.5, 2),
                           p, 0.1, SolverConfig())


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


@pytest.mark.parametrize("p", [LameParams(-5.0, 1.0, 2), LameParams(0.0, -1.0, 2),
                               LameParams(1.0, np.inf, 2)])
def test_fixed_crack_solves_reject_invalid_lame_parameters(p):
    # elastic_solve returned a field for the indefinite forms (max |u| 0.46875)
    # and warned "invalid value encountered" for an infinite mu
    grid = PlateGrid(2, (8,), 4, (0.0,), (1.0,))
    g = stretch_datum(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="invalid Lame parameters"):
            elastic_solve(grid, empty_cracks(grid.shape), g, p, 0.1)
        with pytest.raises(ValueError, match="invalid Lame parameters"):
            _reduced_solve(g.state((8,), (0.0,), (1.0,)), empty_cracks((8,)), p)


_MISMATCHED_SOLVES = {
    "minimize_limit": lambda p: minimize_limit((4,), (0.0,), (1.0,), stretch_datum(0.5, 2), p,
                                               SolverConfig()),
    "elastic_solve": lambda p: elastic_solve(PlateGrid(2, (4,), 2, (0.0,), (1.0,)),
                                             empty_cracks((4, 2)), stretch_datum(0.5, 2), p,
                                             0.1),
    "alternate_minimize": lambda p: alternate_minimize(PlateGrid(2, (4,), 2, (0.0,), (1.0,)),
                                                       stretch_datum(0.5, 2), p, 0.1,
                                                       SolverConfig()),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHED_SOLVES))
def test_solves_reject_lame_parameters_of_another_dimension(entry):
    # n = 2 states with an n = 3 tensor ended in an IndexError or in numpy's
    # broadcast error
    with pytest.raises(ValueError, match="LameParams of dimension 3 for a state of dimension 2"):
        _MISMATCHED_SOLVES[entry](LameParams(1.0, 1.0, 3))


def _reference_solve(stencil, Q, weight, fixed_mask, datum):
    """The fixed-crack minimizer, assembled from a flat dof clamp mask."""
    x = np.where(fixed_mask, datum.ravel(), 0.0)
    if np.any(x):
        Kff, b = _reduced_system(stencil, Q, weight, fixed_mask, datum.ravel())
        x[~fixed_mask] = _solve_constrained(Kff, b)
    return x.reshape(datum.shape)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_fixed_crack_solves_match_a_dof_mask_reference(n, data):
    # both solves, bit for bit, against the dof clamp mask np.repeat(cells,
    # ncomp) over the grid's cells; each clamped plan cell holds its datum on
    # every layer and component
    draw = data.draw
    plan = tuple(draw(st.integers(2, 5 if n == 2 else 3)) for _ in range(n - 1))
    lo, hi = (0.0,) * (n - 1), (1.0,) * (n - 1)
    grid = PlateGrid(n, plan, draw(st.integers(1, 3)), lo, hi)
    released = draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(0, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    p, rho = LameParams(1.0, 0.5, n), draw(st.sampled_from([0.5, 0.1]))
    cells = _clamped_cells(plan, released)

    film = [rng.random(b.shape) < 0.3 for b in _empty_breaks(grid.shape)]
    lifted = rng.standard_normal(grid.shape + (n,))
    u = elastic_solve(grid, CrackIndicator(film, released), lifted, p, rho)
    mask = _clamp_dofs(grid.shape, n - 1, released, n)
    ref = _reference_solve(_derivative_operator(grid.shape, grid.spacings, film, n),
                           energy._form(p, rho), grid.cell_volume, mask, lifted)
    assert np.array_equal(u.values, ref)
    assert np.array_equal(mask.reshape(lifted.shape), np.broadcast_to(
        cells.reshape(plan + (1, 1)), lifted.shape))
    assert np.array_equal(u.values[cells], lifted[cells])

    cols = [rng.random(b.shape) < 0.3 for b in _empty_breaks(plan)]
    d = KLState(n, plan, lo, hi, rng.standard_normal(plan + (n - 1,)),
                rng.standard_normal(plan) * draw(st.sampled_from([0.0, 1.0])),
                np.zeros(plan + (n - 1,)))
    s = _reduced_solve(d, CrackIndicator(cols, released), p)
    h, area, Q = d.plan_h, float(np.prod(d.plan_h)), energy._form(p)
    ubar = _reference_solve(_derivative_operator(plan, h, cols, n - 1), Q, area,
                            _clamp_dofs(plan, n - 1, released, n - 1), d.ubar)
    un = _reference_solve(_hessian_operator(plan, h, cols), Q, area / 12.0,
                          _clamp_dofs(plan, n - 1, released, 1), d.un)
    assert np.array_equal(s.ubar, ubar) and np.array_equal(s.un, un)
    assert np.array_equal(s.grad_un, reduced_gradient(un, h, cols))
    assert np.array_equal(s.ubar[cells], d.ubar[cells])
    assert np.array_equal(s.un[cells], d.un[cells])


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
    else:
        ncomp = 1 if kind == "hessian" else nd
        stencil = (_hessian_operator(shape, h, broken) if kind == "hessian"
                   else _derivative_operator(shape, h, broken, nd))
        rho = None
    # Q from its definition, not from the closed form the solver reads
    Q = np.array(exact_form(p, rho), dtype=float)
    fixed_mask = _clamp_dofs(shape, n - 1, released, ncomp)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    fixed_vals = rng.standard_normal(fixed_mask.size)
    weight = float(np.prod(h)) / (12.0 if kind == "hessian" else 1.0)
    return stencil, Q, weight, fixed_mask, fixed_vals, int(np.prod(shape))


@settings(max_examples=150, deadline=None)
@given(_stencil_case())
def test_reduced_system_matches_dense_reference(case):
    # Kff and b = -K_free,fixed x_fixed against K = w S^T (I kron Q) S, dense,
    # and the rows S x that the energies read against the same S
    stencil, Q, weight, fixed_mask, fixed_vals, ncell = case
    cols, vals = stencil
    k, w = vals.shape[1:]
    S = np.zeros((ncell * k, fixed_mask.size))
    np.add.at(S, (np.repeat(np.arange(ncell * k), w), cols.ravel()), vals.ravel())
    # the per-cell rows, zero-weight slots included, are S x in row cell * k + r
    np.testing.assert_allclose(_apply_stencil(stencil, fixed_vals),
                               (S @ fixed_vals).reshape(ncell, k), rtol=1e-13, atol=1e-13)
    K = weight * S.T @ np.kron(np.eye(ncell), Q) @ S
    free = ~fixed_mask
    Kff, b = _reduced_system(stencil, Q, weight, fixed_mask, fixed_vals)
    scale = max(np.abs(K).max(), 1.0)
    assert Kff.shape == (free.sum(), free.sum())
    np.testing.assert_allclose(Kff.toarray(), K[np.ix_(free, free)], rtol=1e-12,
                               atol=1e-12 * scale)
    ref_b = -K[np.ix_(free, fixed_mask)] @ fixed_vals[fixed_mask]
    np.testing.assert_allclose(b, ref_b, rtol=1e-12,
                               atol=1e-12 * scale * max(np.abs(fixed_vals).max(), 1.0))


def _dense_components(A):
    """Component of each row of the dense symmetric A, rows joined by nonzeros."""
    reach = (A != 0.0) | np.eye(len(A), dtype=bool)
    while len(A):
        grown = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(grown, reach):
            return np.argmax(reach, axis=1)  # the first row each row reaches
        reach = grown
    return np.zeros(0, dtype=int)


@settings(max_examples=150, deadline=None)
@given(_stencil_case())
def test_solve_constrained_leaves_unloaded_pieces_zero(case):
    # y is exactly 0 on every piece of Kff's graph with zero load and solves
    # Kff y = b; a RuntimeError only for a rank-deficient loaded block
    stencil, Q, weight, fixed_mask, fixed_vals, ncell = case
    Kff, b = _reduced_system(stencil, Q, weight, fixed_mask, fixed_vals)
    A = Kff.toarray()
    comp = _dense_components(A)
    loaded = np.isin(comp, comp[b != 0.0])
    try:
        y = _solve_constrained(Kff, b)
    except RuntimeError:
        block = A[np.ix_(loaded, loaded)]
        assert np.linalg.matrix_rank(block) < len(block)
        return
    assert y.shape == b.shape
    assert np.all(y[~loaded] == 0.0)
    if b.size:
        scale = max(1.0, np.abs(A).max()) * max(1.0, np.abs(y).max())
        assert np.abs(A @ y - b).max() <= 1e-9 * scale


def test_exactly_singular_free_block_raises():
    # four cells on [0, 1], the face between cells 1 and 2 broken and only
    # cell 0 clamped: cells 2 and 3 form a singular piece, but it carries no
    # load, so it stays at zero and cell 1 follows cell 0
    shape, h = (4,), [0.25]
    stencil = _derivative_operator(shape, h, [np.array([False, True, False])], 1)
    fixed_mask = np.array([True, False, False, False])
    fixed_vals = np.array([1.0, 0.0, 0.0, 0.0])
    Kff, b = _reduced_system(stencil, np.eye(1), 0.25, fixed_mask, fixed_vals)
    assert np.array_equal(b != 0.0, [True, False, False])
    assert np.array_equal(_solve_constrained(Kff, b), [1.0, 0.0, 0.0])
    # a loaded singular block: a load outside its range has no minimizer
    K = sp.csc_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(RuntimeError):
        _solve_constrained(K, np.array([1.0, 0.0]))
    # a load in its range: the minimum-norm minimizer
    assert np.allclose(_solve_constrained(K, np.array([1.0, -1.0])), [0.5, -0.5],
                       rtol=0.0, atol=1e-15)
    # no free dof: nothing to solve
    assert _solve_constrained(sp.csc_matrix((0, 0)), np.zeros(0)).shape == (0,)


_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _counting(monkeypatch, owner, name):
    """The shape of the matrix of every owner.name call from here on."""
    calls, f = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return f(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _loaded_block(Kff, b):
    """Kff dense, the mask of its loaded pieces, and whether their block is
    nonsingular (full numerical rank)."""
    A = Kff.toarray()
    comp = _dense_components(A)
    loaded = np.isin(comp, comp[b != 0.0])
    block = A[np.ix_(loaded, loaded)]
    return A, loaded, loaded.any() and np.linalg.matrix_rank(block) == len(block)


def _random_crack_blocks(kind, n, shape, rho, count, rng):
    """(Kff, b) of `count` random cracks: faces broken with probability 0.3,
    each side released with 0.25, clamped values standard normal.  kind is
    "membrane" (the limit membrane on a plan) or "film" (grid cells)."""
    p = LameParams(1.0, 1.0, n)
    h = [1.0 / s for s in shape]
    ncomp = n if kind == "film" else n - 1
    Q = energy._form(p, rho)
    for _ in range(count):
        broken = [rng.random(b.shape) < 0.3 for b in minimize._empty_breaks(shape)]
        released = {(a, s) for a in range(n - 1) for s in (0, 1) if rng.random() < 0.25}
        fixed_mask = _clamp_dofs(shape, n - 1, released, ncomp)
        yield _reduced_system(_derivative_operator(shape, h, broken, ncomp), Q,
                              float(np.prod(h)), fixed_mask,
                              rng.standard_normal(fixed_mask.size))


def _stretch_film_block(n, plan, layers, rho):
    """(Kff, b) of the uncracked film on [0, 1]^(n-1) clamped to stretch 1.2."""
    grid = PlateGrid(n, plan, layers, (0.0,) * (n - 1), (1.0,) * (n - 1))
    d = stretch_datum(1.2, n).state(grid.plan_shape, grid.omega_lo, grid.omega_hi)
    fixed_mask = _clamp_dofs(grid.shape, n - 1, set(), n)
    return _reduced_system(
        _derivative_operator(grid.shape, grid.spacings, empty_cracks(grid.shape).broken, n),
        energy._form(LameParams(1.0, 1.0, n), rho), grid.cell_volume, fixed_mask,
        minimize._lift(d, grid.z_centers()).reshape(-1))


def test_cholesky_solve_agrees_with_lu_and_min_norm_lstsq(monkeypatch):
    # seeded random membrane cracks (n = 2 and 3) and small uncracked films
    # at rho 0.1 and 0.01: every nonsingular loaded block is solved by the
    # banded Cholesky (no LU), to 1e-12 of a direct splu solve and 1e-10 of
    # the dense minimum-norm least squares, relative to max |y|.  At rho =
    # 0.01 the film's conditioning leaves the dense lstsq itself about 2e-9
    # from the splu solve, so there it is not a reference.
    splu = spla.splu
    calls = _counting(monkeypatch, spla, "splu")
    rng = np.random.default_rng(25)
    cases = [(f"membrane-n{n}-{k}", None, K, b) for n, plan in ((2, (24,)), (3, (6, 5)))
             for k, (K, b) in enumerate(_random_crack_blocks("membrane", n, plan, None, 8, rng))]
    cases += [(f"film-{plan}x{layers}-rho{rho}", rho, *_stretch_film_block(n, plan, layers, rho))
              for n, plan, layers in ((2, (8,), 4), (2, (16,), 4), (3, (4, 4), 2))
              for rho in (0.1, 0.01)]
    solved = 0
    for name, rho, Kff, b in cases:
        A, loaded, nonsingular = _loaded_block(Kff, b)
        if not nonsingular:
            continue
        y = _solve_constrained(Kff, b)
        assert not calls, name
        lu = np.zeros_like(b)
        lu[loaded] = splu(sp.csc_matrix(A[np.ix_(loaded, loaded)]),
                          **_SPLU_OPTIONS).solve(b[loaded])
        scale = np.abs(lu).max()
        assert np.all(y[~loaded] == 0.0), name
        assert np.abs(y - lu).max() <= 1e-12 * scale, name
        if rho != 0.01:
            lstsq = np.linalg.lstsq(A, b, rcond=None)[0]
            assert np.abs(y - lstsq).max() <= 1e-10 * scale, name
        solved += 1
    assert solved >= 16


def test_cholesky_solve_is_backward_stable_on_random_film_cracks(monkeypatch):
    # random cracks of small n = 2 and 3 films at rho 0.1 and 0.01 leave
    # loaded blocks with condition numbers up to about 1e10; every
    # nonsingular one is solved by the banded Cholesky with a residual at
    # rounding level, |A y - b| <= 1e-15 max|A| max|y|
    calls = _counting(monkeypatch, spla, "splu")
    rng = np.random.default_rng(25)
    solved = 0
    for n, shape in ((2, (8, 4)), (3, (4, 3, 2))):
        for rho in (0.1, 0.01):
            for Kff, b in _random_crack_blocks("film", n, shape, rho, 6, rng):
                A, loaded, nonsingular = _loaded_block(Kff, b)
                if not nonsingular:
                    continue
                y = _solve_constrained(Kff, b)
                assert not calls
                assert np.all(y[~loaded] == 0.0)
                assert np.abs(A @ y - b).max() <= 1e-15 * np.abs(A).max() * np.abs(y).max()
                solved += 1
    assert solved >= 16


def test_ill_conditioned_film_block_takes_the_lu(monkeypatch):
    # the uncracked (32,) x 64 stretch film at rho = 1e-4: its rho^-4
    # conditioning defeats the Cholesky, and the block's values are bitwise
    # those of the symmetric-mode LU
    Kff, b = _stretch_film_block(2, (32,), 64, 1e-4)
    ref = spla.splu(Kff, **_SPLU_OPTIONS).solve(b)
    calls = _counting(monkeypatch, spla, "splu")
    y = _solve_constrained(Kff, b)
    assert calls == [Kff.shape]
    assert np.array_equal(y, ref)


def _bent_plate_datum():
    """The n = 3 datum ubar = 0, un = |x|^2 / 2, grad_un = x."""
    return BoundaryDatum(lambda X: np.zeros_like(np.atleast_2d(X)),
                         lambda X: 0.5 * np.sum(np.atleast_2d(X) ** 2, axis=1),
                         lambda X: np.atleast_2d(X).copy(), 3)


def _faces(rows):
    return np.array([[c == "1" for c in r] for r in rows.split()])


def test_corner_cell_coupled_across_a_crack_corner_is_solved_exactly():
    # on a (3, 3) plan with faces broken[0][1, 2] and broken[1][2, 1], cell
    # (2, 2) has no open face, but cell (1, 1)'s mixed second difference
    # reaches it across the crack corner; with sides (0, 1) and (1, 1)
    # released the exact minimizer (a dense min-norm lstsq agrees) puts
    # un = 25/36 there, the datum, with bulk 28/351
    cracks = CrackIndicator([_faces("000 001"), _faces("00 00 01")], {(0, 1), (1, 1)})
    problem = minimize._LimitProblem((3, 3), (0.0, 0.0), (1.0, 1.0), _bent_plate_datum(),
                                     LameParams(1.0, 1.0, 3))
    s, e = problem.solve(cracks)
    assert s.un[2, 2] == pytest.approx(25.0 / 36.0, rel=1e-12)
    assert e.bulk == pytest.approx(28.0 / 351.0, rel=1e-12)


def test_singular_loaded_bending_block_gives_the_minimum_norm_minimizer():
    # a (6, 5) plan whose bending free block is one loaded piece of rank 19
    # of 20 (the Hessian stencils leave cells (0, 0), (2, 0) and (4, 0) a
    # joint null vector): the sparse factor is exactly singular, and the
    # solve returns the dense minimum-norm minimizer
    cracks = CrackIndicator([_faces("00000 10010 10010 10001 11101"),
                             _faces("1011 0000 1101 0000 1100 0000")], {(0, 0), (1, 0)})
    problem = minimize._LimitProblem((6, 5), (0.0, 0.0), (1.0, 1.0), _bent_plate_datum(),
                                     LameParams(1.0, 1.0, 3))
    s, e = problem.solve(cracks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_solve_constrained",
                   lambda K, b: np.linalg.lstsq(K.toarray(), b, rcond=None)[0])
        ref, e_ref = problem.solve(cracks)
    np.testing.assert_allclose(s.un, ref.un, rtol=0.0, atol=1e-12)
    assert e.total == pytest.approx(e_ref.total, rel=1e-12)


@pytest.mark.parametrize("plan, broken0, broken1, released", [
    ((5, 5), "00111 00110 00000 00000", "1001 1010 1000 0010 0000", {(0, 0), (1, 1)}),
    ((6, 4), "0110 0001 1110 0101 1111", "001 101 001 000 010 111", set()),
], ids=["5x5", "6x4"])
def test_near_singular_membrane_cracks_give_the_dense_least_squares_total(
        plan, broken0, broken1, released):
    # two n = 3 cracks whose loaded membrane block is singular in exact
    # arithmetic: the solve's total is the dense minimum-norm least-squares
    # one (4.2079 and 5.0561), where a factor that met rounding residue as a
    # pivot reported -9.0e13 and 5.3606
    cracks = CrackIndicator([_faces(broken0), _faces(broken1)], released)
    problem = minimize._LimitProblem(plan, (0.0, 0.0), (1.0, 1.0), stretch_datum(1.2, 3),
                                     LameParams(1.0, 1.0, 3))
    _, e = problem.solve(cracks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_solve_constrained",
                   lambda K, b: np.linalg.lstsq(K.toarray(), b, rcond=None)[0])
        _, e_ref = problem.solve(cracks)
    assert e.total == pytest.approx(e_ref.total, rel=1e-9)


def test_reduced_solve_skips_zero_bending_data(monkeypatch):
    # a stretch datum clamps un = 0; cracks at faces 2 and 5 leave cells 3-5
    # unclamped, yet the bending solve must not even build its stencil
    def no_stencil(*args):
        raise AssertionError("_hessian_operator called for zero clamp data")

    monkeypatch.setattr(energy, "_hessian_operator", no_stencil)
    broken = np.zeros(7, dtype=bool)
    broken[[2, 5]] = True
    s = _reduced_solve(stretch_datum(1.2, 2).state((8,), (0.0,), (1.0,)),
                       CrackIndicator([broken]), P2)
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
    hessian = energy._hessian_operator

    def spy(*args):
        calls.append(args)
        return hessian(*args)

    monkeypatch.setattr(energy, "_hessian_operator", spy)
    g = BoundaryDatum(lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)),
                      lambda X: 0.5 * (np.atleast_2d(X)[:, 0] ** 2 - c * c),
                      lambda X: np.atleast_2d(X)[:, :1].copy(), 2)
    s = _reduced_solve(g.state((8,), (0.0,), (1.0,)), empty_cracks((8,)), P2)
    assert len(calls) == 1
    x = (np.arange(8) + 0.5) / 8.0
    assert s.un[0] == 0.5 * (x[0] ** 2 - c * c)
    assert s.un[-1] == 0.5 * (x[-1] ** 2 - c * c)
    assert np.all(s.un[1:-1] > 0.0)
    assert np.array_equal(s.ubar, np.zeros((8, 1)))


# ---------------------------------------------------------------------------
# closed-form moves of a 1D plan


def _bent_datum(t, a):
    """ubar = t x, un = a x^2 / 2, grad_un = a x: every film clamp column is
    a stretch plus a rotation, not a translation."""
    return BoundaryDatum(lambda X: t * np.atleast_2d(X)[:, :1],
                         lambda X: 0.5 * a * np.atleast_2d(X)[:, 0] ** 2,
                         lambda X: a * np.atleast_2d(X)[:, :1], 2)


def _translation_datum(c):
    """ubar = c, un = 0: the datum is a rigid motion, so a released side can
    match it."""
    return BoundaryDatum(lambda X: np.full((np.atleast_2d(X).shape[0], 1), c),
                         lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                         lambda X: np.zeros((np.atleast_2d(X).shape[0], 1)), 2)


def _offered_moves(cracks):
    """Every move a round on a 1D plan can offer: the open columns, then the
    unreleased sides."""
    b = cracks.broken[0]
    open_cols = ~b.reshape(b.shape[0], -1).all(axis=1)
    return ([(0, (int(k),)) for k in np.flatnonzero(open_cols)]
            + [(0, side) for side in (0, 1) if (0, side) not in cracks.released])


def _solved_totals(problem, cracks, moves):
    """The total of each move's candidate crack, solved."""
    return [minimize._solve_move(problem, cracks, move)[2].total for move in moves]


@st.composite
def _move_search_case(draw):
    """A film or limit problem on a 1D plan with random broken columns and
    released sides, Lame constants and datum: a stretch, a translation or
    (film only) a bent datum."""
    kind = draw(st.sampled_from(["film", "limit"]))
    N = draw(st.integers(3, 12 if kind == "film" else 40))
    broken = np.array(draw(st.lists(st.booleans(), min_size=N - 1, max_size=N - 1)))
    p = LameParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0)), 2)
    t = draw(st.floats(0.1, 2.0))
    datums = {"stretch": stretch_datum(t, 2), "translation": _translation_datum(t - 1.0)}
    if kind == "film":
        datums["bent"] = _bent_datum(t, 0.7)
    g = datums[draw(st.sampled_from(sorted(datums)))]
    if kind == "film":
        grid = PlateGrid(2, (N,), draw(st.integers(1, 6)), (0.0,), (1.0,))
        problem = minimize._FilmProblem(grid, g, p, draw(st.sampled_from([0.5, 0.1, 0.05])))
        cracks = empty_cracks(grid.shape)
    else:
        problem = minimize._LimitProblem((N,), (0.0,), (1.0,), g, p)
        cracks = empty_cracks((N,))
    cracks.broken[0][broken] = True
    cracks.released |= draw(st.sets(st.sampled_from([(0, 0), (0, 1)])))
    return problem, cracks


@settings(max_examples=80, deadline=None)
@given(_move_search_case())
def test_score_moves_matches_per_candidate_solves(case):
    # every offered move's closed-form total, cut or release, against the
    # solve + energy of its candidate
    problem, cracks = case
    moves = _offered_moves(cracks)
    scores = problem.score_moves(cracks, moves)
    assert len(scores) == len(moves)
    for score, total in zip(scores, _solved_totals(problem, cracks, moves)):
        assert abs(score - total) <= max(1e-10 * abs(total), 1e-12 * max(1.0, abs(total)))
    # a cut's total depends only on which end columns it leaves alone, so
    # reusing one cut's total per kind matches every cut's own rigid state
    for score, (axis, where) in zip(scores, moves):
        cand = cracks.copy()
        if isinstance(where, tuple):
            cand.broken[axis][where] = True
        else:
            cand.released.add((axis, where))
        E = problem._energy(problem._rigid_state(cand.broken, cand.released)).total
        assert abs(score - E) <= 1e-12 * max(1.0, abs(E))


def _bent_film_scores(layers, released, prebroken):
    """Closed-form and solved totals of every offered move of a bent film
    on a (5,) plan."""
    grid = PlateGrid(2, (5,), layers, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.2, 0.7), P2, 0.1)
    cracks = empty_cracks(grid.shape)
    cracks.broken[0][prebroken] = True
    cracks.released |= released
    moves = _offered_moves(cracks)
    return problem.score_moves(cracks, moves), _solved_totals(problem, cracks, moves)


@pytest.mark.parametrize("released", [set(), {(0, 0)}, {(0, 1)}])
@pytest.mark.parametrize("prebroken", [[], [0], [3], [0, 3]])
def test_bent_film_scores_lone_clamp_columns(released, prebroken):
    # a clamp column left alone keeps its own bulk (0.049 on the left and
    # 3.969 on the right here); a piece it shares after a cut or a release
    # is its rigid continuation; every other piece is zero
    scores, totals = _bent_film_scores(3, released, prebroken)
    assert scores == pytest.approx(totals, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("released", [set(), {(0, 0)}, {(0, 1)}])
def test_one_layer_film_continues_a_clamp_by_translation(released):
    # with one layer the z-difference is zero, so a rotation strains the
    # film: a released piece carries its clamp column unrotated
    scores, totals = _bent_film_scores(1, released, [2])
    assert scores == pytest.approx(totals, rel=1e-12, abs=1e-12)


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


def test_plate_film_search_breaks_the_limit_faces_through_both_layers():
    # n = 3: a (4, 4) plan x 2 layers takes the per-candidate path every
    # round and breaks the plan faces the limit search breaks on (4, 4)
    p3 = LameParams(1.0, 1.0, 3)
    g = stretch_datum(1.2, 3)
    grid = PlateGrid(3, (4, 4), 2, (0.0, 0.0), (1.0, 1.0))
    u, cracks, e, trace = alternate_minimize(grid, g, p3, 0.1, SolverConfig())
    faces = [[1, 1], [1, 2]]
    assert np.argwhere(np.all(cracks.broken[0], axis=-1)).tolist() == faces
    assert np.count_nonzero(cracks.broken[0]) == 4
    assert not np.any(cracks.broken[1]) and not np.any(cracks.broken[2])
    assert not cracks.released
    assert trace == pytest.approx([2.0071542287235404, 1.8828707819659098,
                                   1.778553984971108], rel=1e-9)
    assert trace[0] > trace[1] > trace[2]
    assert e.total == penalized_energies(u, p3, g, 0.1).total
    s, limit_cracks, _, _ = minimize_limit((4, 4), (0.0, 0.0), (1.0, 1.0), g, p3,
                                           SolverConfig())
    assert np.argwhere(limit_cracks.broken[0]).tolist() == faces


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
    """One round on a 1D plan: cut totals that differ by less than the tie
    slack, and a total for releasing either side.  A rigid state is its
    (broken, released) pair; its bulk, an offset of its total from its
    score and a gap from the datum on its clamped cells are set per test.
    Each cell's stencil reads its own value; the bulk sits on cell 2, which
    no move clamps."""

    plan_shape = (5,)
    column_area = [0.0]
    scores = np.array([1.0 + 5e-13, 1.0, 1.0 + 1e-13, 2.0])
    release = 3.0
    bulk = 0.0
    offset = 0.0
    clamp_gap = 0.0

    def _total(self, broken, released):
        faces = np.flatnonzero(broken[0])
        if not (faces.size or released):
            return 2.0
        return self.scores[faces].sum() + self.release * len(released)

    def solve(self, cracks):
        return None, EnergyBreakdown(self._total(cracks.broken, cracks.released), 0.0)

    def score_moves(self, cracks, moves):
        return np.array([self.scores[where[0]] if isinstance(where, tuple) else self.release
                         for _, where in moves])

    def _rigid_state(self, broken, released):
        return broken, released

    def _energy(self, state):
        total = self._total(*state) + self.offset
        return EnergyBreakdown(self.bulk, total - self.bulk)

    def _bulk_parts(self, state):
        x = np.full(self.plan_shape, self.clamp_gap)
        x[2] = np.sqrt(2.0 * self.bulk)  # (1/2) x Q x on cell 2, Q = 1
        cells = np.arange(x.size)[:, None, None]
        return [(x, np.zeros(self.plan_shape), lambda: (cells, np.ones(cells.shape)),
                 np.eye(1), 1.0)]


def test_greedy_search_breaks_near_ties_by_candidate_order():
    # face 1 is lowest by 5e-13 relative, a tie: the earlier face 0 wins,
    # with the total of its rigid state
    state, cracks, e, trace = minimize._greedy_search(_NearTieProblem(),
                                                      empty_cracks((5,)), 1)
    assert np.flatnonzero(cracks.broken[0]).tolist() == [0]
    assert trace == [2.0, 1.0 + 5e-13]
    assert state == (cracks.broken, cracks.released)


def _count_solves(monkeypatch, problem_cls):
    """The list that every solve of `problem_cls` appends its cracks to."""
    solves = []
    solve = problem_cls.solve
    monkeypatch.setattr(problem_cls, "solve",
                        lambda self, c: solves.append(c) or solve(self, c))
    return solves


def test_scored_release_wins_without_a_solve(monkeypatch):
    # the release is scored, wins and takes its certified rigid state: only
    # the start is solved
    solves = _count_solves(monkeypatch, _NearTieProblem)
    problem = _NearTieProblem()
    problem.release = 0.5
    state, cracks, e, trace = minimize._greedy_search(problem, empty_cracks((5,)), 1)
    assert cracks.released == {(0, 0)} and not np.any(cracks.broken[0])
    assert trace == [2.0, 0.5] and len(solves) == 1
    problem.bulk = 1e-6
    with pytest.raises(RuntimeError, match=r"move \(0, 0\) scored 0\.5"):
        minimize._greedy_search(problem, empty_cracks((5,)), 1)


def test_bent_film_releases_a_side(monkeypatch):
    # on a 2-cell plan every cut leaves a clamp column alone, strained across
    # the thickness by the bend, so a cut costs more than its surface 1; a
    # released side costs the penalty of its plan measure, 1, and releasing
    # side 0 (tied with side 1, so the first) leaves one clamp column that
    # continues rigidly; the search solves only the start
    solves = _count_solves(monkeypatch, minimize._FilmProblem)
    grid = PlateGrid(2, (2,), 2, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, _bent_datum(1.2, 0.7), P2, 0.1,
                                             SolverConfig())
    assert cracks.released == {(0, 0)} and not np.any(cracks.broken[0])
    assert len(trace) == 2 and trace[0] > 3.0
    assert trace[-1] == e.total == pytest.approx(1.0, abs=1e-12)
    assert e.boundary_penalty == 1.0 and e.surface == 0.0
    assert len(solves) == 1


@pytest.mark.parametrize("search", [
    lambda: alternate_minimize(PlateGrid(2, (16,), 8, (0.0,), (1.0,)),
                               stretch_datum(1.2, 2), P2, 0.05, SolverConfig()),
    lambda: minimize_limit((128,), (0.0,), (1.0,), stretch_datum(1.2, 2), P2,
                           SolverConfig()),
], ids=["film-16x8", "limit-128"])
def test_1d_search_factors_only_its_start(monkeypatch, search):
    # every move of every round is scored in closed form and the winner
    # takes its rigid state: the one factorization is the starting state's
    calls = _counting(monkeypatch, minimize, "_solve_block")
    _, cracks, _, trace = search()
    assert len(trace) == 2 and np.any(cracks.broken[0])
    assert len(calls) == 1


@pytest.mark.parametrize("search", [
    lambda: minimize_limit((128,), (0.0,), (1.0,), stretch_datum(1.2, 2), P2,
                           SolverConfig()),
    lambda: alternate_minimize(PlateGrid(2, (32,), 64, (0.0,), (1.0,)),
                               stretch_datum(1.2, 2), P2, 0.1, SolverConfig()),
], ids=["limit-128", "film-32x64"])
def test_search_builds_a_candidate_only_to_solve_it(monkeypatch, search):
    # a round offers moves; a scored move is never copied into a crack
    # unless it wins, and a scored winner is not solved
    copies, solves = [], []
    copy = CrackIndicator.copy
    monkeypatch.setattr(CrackIndicator, "copy",
                        lambda self: copies.append(1) or copy(self))
    for cls in (minimize._FilmProblem, minimize._LimitProblem):
        monkeypatch.setattr(cls, "solve", lambda self, c, solve=cls.solve:
                            solves.append(1) or solve(self, c))
    _, cracks, _, trace = search()
    assert len(trace) == 2 and np.any(cracks.broken[0])
    assert len(copies) <= len(solves) + len(trace) - 1
    assert len(solves) == 1


@pytest.mark.parametrize("attr, value", [("bulk", 1e-6), ("offset", -1e-6),
                                         ("offset", 1e-6), ("clamp_gap", 1e-300)])
def test_winner_certificate_rejects_a_state_it_cannot_certify(attr, value):
    # a rigid state with a nonzero bulk on a cell that reads a free dof, a
    # total off its score or a value off the datum on a clamped cell is not
    # a certified minimizer: the search raises, naming the move, in plain
    # floats; a total within the slack is kept as it is
    problem = _NearTieProblem()
    setattr(problem, attr, value)
    with pytest.raises(RuntimeError, match=r"move \(0, \(0,\)\) scored") as err:
        minimize._greedy_search(problem, empty_cracks((5,)), 1)
    assert "np." not in str(err.value)
    problem = _NearTieProblem()
    problem.offset = 1e-11
    state, cracks, e, trace = minimize._greedy_search(problem, empty_cracks((5,)), 1)
    assert np.flatnonzero(cracks.broken[0]).tolist() == [0]
    assert trace == [2.0, 1.0 + 5e-13 + 1e-11] and e.total == trace[-1]


def test_winner_certificate_accepts_a_forced_bulk():
    # a (2,) plan x 2 layers, its one column broken: releasing side 1 leaves
    # column 0 alone and fully clamped, so the bulk of its bent datum is
    # forced; the winner takes its rigid state, at the total a solve gives
    grid = PlateGrid(2, (2,), 2, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.0, 0.7), LameParams(0.0, 1.0, 2), 0.1)
    cracks = empty_cracks(grid.shape)
    cracks.broken[0][...] = True
    state, cracks, e, trace = minimize._greedy_search(problem, cracks, 2)
    assert cracks.released == {(0, 1)} and len(trace) == 2
    assert e.bulk > 0.7
    solved, e_solved = problem.solve(cracks)
    assert e.total == trace[-1] == e_solved.total
    assert np.array_equal(state.values, solved.values)


def test_film_scores_no_move_of_a_crack_outside_whole_columns():
    # a broken horizontal face, or a column broken in one layer only, cuts a
    # cell off along one axis and strains a rigid continuation: the moves of
    # such a crack are solved, and the search's winner is its solve
    grid = PlateGrid(2, (2,), 2, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.0, 0.7), LameParams(0.0, 1.0, 2), 0.1)
    cracks = empty_cracks(grid.shape)
    assert problem.score_moves(cracks, _offered_moves(cracks)) is not None
    for axis in (0, 1):
        cracks = empty_cracks(grid.shape)
        cracks.broken[axis][0, 0] = True
        assert problem.score_moves(cracks, _offered_moves(cracks)) is None
    state, cracks, e, trace = minimize._greedy_search(problem, cracks, 2)
    assert cracks.released and e.total == trace[-1] == problem.solve(cracks)[1].total


class _ExhaustibleProblem:
    """A (2,) plan: its one column lowers the total by 3, each released
    side by 2; every move is solved (score_moves gives None)."""

    plan_shape = (2,)
    column_area = [1.0]

    def __init__(self):
        self.offered = []

    def solve(self, cracks):
        cut = int(np.all(cracks.broken[0]))
        return None, EnergyBreakdown(10.0 - 4.0 * cut - 2.0 * len(cracks.released),
                                     float(cut))

    def score_moves(self, cracks, moves):
        self.offered.append(moves)
        return None


def test_greedy_search_stops_when_no_move_is_left():
    # the column, then side 0 (tied with side 1, so the first), then side 1;
    # the fourth round offers nothing and ends the search below the round cap
    problem = _ExhaustibleProblem()
    state, cracks, e, trace = minimize._greedy_search(problem, empty_cracks((2,)), 6)
    assert problem.offered == [[(0, (0,)), (0, 0), (0, 1)], [(0, 0), (0, 1)], [(0, 1)]]
    assert cracks.broken[0].tolist() == [True] and cracks.released == {(0, 0), (0, 1)}
    assert trace == [10.0, 7.0, 5.0, 3.0] and e.total == 3.0


def test_winner_total_is_its_score_at_small_rho():
    # every cut from face 1 to face 29 of a bent film scores exactly 1; the
    # winner takes its rigid state, so the search reports exactly 1 where a
    # solve of the stiff rescaled film is off by its rounding
    grid = PlateGrid(2, (32,), 8, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.2, 0.5), P2, 1e-3)
    cracks = empty_cracks(grid.shape)
    scores = problem.score_moves(cracks, _offered_moves(cracks))
    assert np.all(scores[1:30] == 1.0)
    u, cracks, e, trace = alternate_minimize(grid, _bent_datum(1.2, 0.5), P2, 1e-3,
                                             SolverConfig())
    assert np.argwhere(np.all(cracks.broken[0], axis=1)).tolist() == [[1]]
    assert not cracks.released
    assert e.total == trace[-1] == 1.0


@pytest.mark.parametrize("rho", [1e-3, 1e-4])
def test_bent_film_total_is_exactly_one_at_small_rho(rho):
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    u, cracks, e, trace = alternate_minimize(grid, _bent_datum(1.2, 2.0), P2, rho,
                                             SolverConfig())
    assert np.any(cracks.broken[0])
    assert e.total == trace[-1] == 1.0


def _exact_refinement(K, b):
    """K^-1 b: a splu solve refined on residuals b - K y taken in exact
    rational arithmetic."""
    from fractions import Fraction
    C = K.tocoo()
    entries = list(zip(C.row.tolist(), C.col.tolist(), C.data.tolist()))
    lu = spla.splu(K, **_SPLU_OPTIONS)
    y = lu.solve(b)
    for _ in range(6):
        r = [Fraction(v) for v in b.tolist()]
        for i, j, v in entries:
            r[i] -= Fraction(v) * Fraction(y[j])
        y = y + lu.solve(np.array([float(x) for x in r]))
    return y


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_bent_film_start_is_accurate_at_small_rho(a):
    # the uncracked bent film (16,) x 8 at rho = 1e-3 is a stiffness of
    # condition number about 3e13; against its minimizer refined on exact
    # residuals, the solve's field is within 1e-7 and its total within
    # 1e-11, relative (a symmetric-mode LU alone misses by about 1e-6 and
    # 2e-11 at a = 0.5, 3e-6 and 3e-10 at a = 2)
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    problem = minimize._FilmProblem(grid, _bent_datum(1.2, a), P2, 1e-3)
    u, e = problem.solve(empty_cracks(grid.shape))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_solve_constrained", _exact_refinement)
        ref, e_ref = problem.solve(empty_cracks(grid.shape))
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(u.values - ref.values)) <= 1e-7 * scale
    assert e.total == pytest.approx(e_ref.total, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("rho", [0.5, 0.05])
def test_rigid_winner_is_the_solved_field_of_its_cracks(rho):
    # where the solve is well conditioned, the certified rigid state is the
    # field a solve of the final cracks returns
    grid = PlateGrid(2, (16,), 8, (0.0,), (1.0,))
    g = _bent_datum(1.2, 2.0)
    u, cracks, e, trace = alternate_minimize(grid, g, P2, rho, SolverConfig())
    assert np.any(cracks.broken[0])
    solved, _ = minimize._FilmProblem(grid, g, P2, rho).solve(cracks)
    scale = np.max(np.abs(solved.values))
    assert np.max(np.abs(u.values - solved.values)) <= 1e-9 * scale


def test_limit_sweep_declines_bending_data():
    # a nonzero un clamp has no closed form: every move is solved one by one
    cracks = empty_cracks((8,))
    moves = _offered_moves(cracks)
    problem = minimize._LimitProblem((8,), (0.0,), (1.0,), _bent_datum(0.5, 1.0), P2)
    assert problem.score_moves(cracks, moves) is None
    # un = x^2 / 2 is nonzero at the kept clamp after either release
    cracks.released.add((0, 1))
    assert problem.score_moves(cracks, _offered_moves(cracks)) is None
    problem = minimize._LimitProblem((8,), (0.0,), (1.0,), stretch_datum(0.5, 2), P2)
    assert problem.score_moves(cracks, moves).shape == (9,)


# ---------------------------------------------------------------------------
# the stencil cache of a search


@st.composite
def _cache_case(draw):
    """A film or limit problem maker, n = 2 or 3, under a stretch or a
    bending datum, with a random crack: broken faces and released sides."""
    kind = draw(st.sampled_from(["film", "limit"]))
    n = draw(st.sampled_from([2, 3]))
    plan = tuple(draw(st.lists(st.integers(2, 6 if n == 2 else 4),
                               min_size=n - 1, max_size=n - 1)))
    lo, hi = (0.0,) * (n - 1), (1.0,) * (n - 1)
    p = LameParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0)), n)
    t = draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        g = stretch_datum(t, n)
    else:
        g = _bent_datum(t, 0.7) if n == 2 else _bent_plate_datum()
    if kind == "film":
        grid = PlateGrid(n, plan, draw(st.integers(1, 3)), lo, hi)
        rho = draw(st.sampled_from([0.5, 0.1]))
        make = lambda: minimize._FilmProblem(grid, g, p, rho)  # noqa: E731
        cracks = empty_cracks(grid.shape)
    else:
        make = lambda: minimize._LimitProblem(plan, lo, hi, g, p)  # noqa: E731
        cracks = empty_cracks(plan)
    for b in cracks.broken:
        b[...] = draw(hnp.arrays(bool, b.shape))
    cracks.released |= draw(st.sets(st.sampled_from(
        [(a, side) for a in range(n - 1) for side in (0, 1)])))
    return make, g, p, cracks


def _fields(state):
    """The arrays of a search state, for a bitwise comparison."""
    if isinstance(state, minimize.PlateField):
        return [state.values] + list(state.broken)
    return [state.ubar, state.un, state.grad_un] + list(state.crack_cols)


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(_cache_case())
def test_stencil_cache_changes_no_result(case):
    make, g, p, cracks = case
    with pytest.MonkeyPatch.context() as mp:
        # every stencil read a miss: each solve and each energy builds its own
        mp.setattr(kirchhoff_love, "_patterns", {})
        mp.setattr(kirchhoff_love, "_STENCIL_PATTERNS", 0)
        problem = make()
        if isinstance(problem, minimize._FilmProblem):
            fresh = elastic_solve(problem.grid, cracks, g, p, problem.rho)
            e_fresh = penalized_energies(fresh, p, g, problem.rho)
        else:
            d = problem.datum
            fresh = _reduced_solve(g.state(d.plan_shape, d.omega_lo, d.omega_hi), cracks,
                                   problem.p)
            e_fresh = penalized_energies(fresh, p, g)
        missed = minimize._greedy_search(make(), cracks, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kirchhoff_love, "_patterns", {})
        problem = make()
        # the problem's solve and energy, twice: the second reads the memo
        for _ in range(2):
            state, e = problem.solve(cracks)
            assert _same(_fields(state), _fields(fresh))
            assert e == e_fresh
            assert problem._energy(fresh) == e_fresh
        # two rounds of a whole search from this crack: the same result
        search = minimize._greedy_search(problem, cracks, 2)
    assert _same(_fields(search[0]), _fields(missed[0]))
    assert _same(search[1].broken, missed[1].broken)
    assert search[1].released == missed[1].released
    assert search[2] == missed[2] and search[3] == missed[3]


def _count_builds(mp):
    """Per stencil kind, the list every build of it appends to, from an
    empty memo."""
    mp.setattr(kirchhoff_love, "_patterns", {})
    builds = {"derivative": [], "hessian": []}
    for kind in builds:
        f = getattr(kirchhoff_love, f"_build_{kind}")
        mp.setattr(kirchhoff_love, f"_build_{kind}", lambda *a, f=f, calls=builds[kind]:
                   calls.append(1) or f(*a))
    return builds


def test_limit_crossover_builds_each_pattern_once(monkeypatch):
    # the 8 stretches of the crossover benchmark on (128,): every search
    # reads the start, the 3 cut kinds of its first round and its winner's
    # pattern (the winner is one kind), and all 8 read the same 4 patterns;
    # 20 builds when each search kept its own, 56 when every solve and every
    # energy built its own
    builds = _count_builds(monkeypatch)
    for t in 0.5 + 0.1 * np.arange(8):
        minimize_limit((128,), (0.0,), (1.0,), stretch_datum(t, 2), P2, SolverConfig())
    assert len(builds["derivative"]) == 4 and not builds["hessian"]


def test_film_sweep_builds_each_pattern_once(monkeypatch):
    # the film benchmark's sweep: the film and the limit search build 4
    # patterns each (20 at one build per solve and per energy)
    builds = _count_builds(monkeypatch)
    rows = lab.minima_sweep(stretch_datum(1.2, 2), P2, [0.1], (32,), (0.0,), (1.0,),
                            layers=64, cfg=SolverConfig())
    assert rows[0]["min_e_rho"] == pytest.approx(1.0, abs=1e-12)
    assert len(builds["derivative"]) == 8


def test_plate_candidates_build_their_stencil_once(monkeypatch):
    # the n = 3 plate of `platelab minimize`'s CI config: every candidate is
    # solved, and its solve and its energy share one build (622 builds for
    # 311 solves when each built its own); a release shares the pattern of
    # the state it leaves, which a round's cuts may have evicted once
    builds = _count_builds(monkeypatch)
    patterns = []
    solve = minimize._reduced_solve
    monkeypatch.setattr(minimize, "_reduced_solve", lambda d, c, *a: patterns.append(
        b"".join(b.tobytes() for b in c.broken)) or solve(d, c, *a))
    sizes = []
    memo = kirchhoff_love._memo
    monkeypatch.setattr(kirchhoff_love, "_memo", lambda *a: (
        memo(*a), sizes.append(len(kirchhoff_love._patterns)))[0])
    p3 = LameParams(1.0, 1.0, 3)
    trace = minimize_limit((6, 6), (0.0, 0.0), (1.0, 1.0), stretch_datum(1.2, 3), p3,
                           SolverConfig())[3]
    assert len(patterns) == 311 and len(trace) == 5
    assert len(builds["derivative"]) == 296 and not builds["hessian"]
    assert len(set(patterns)) <= 296 <= len(set(patterns)) + len(trace)
    assert max(sizes) == kirchhoff_love._STENCIL_PATTERNS == 4


def test_stencil_memo_keeps_grids_apart(monkeypatch):
    # reads whose break arrays hold the same bytes: the film grids (4,) x 2
    # and (2,) x 4 on square cells, the plan (4,) on omega (0, 1) and (0, 2),
    # and on one plan both kinds and two ncomp; 4 patterns, so the second
    # pass hits every time, and a hit or a miss is a fresh build
    monkeypatch.setattr(kirchhoff_love, "_patterns", {})
    reads = [(kirchhoff_love._build_derivative, shape, (0.5, 0.5), _empty_breaks(shape), 2)
             for shape in ((4, 2), (2, 4))]
    for hi in (1.0, 2.0):
        h = _plan_h((4,), (0.0,), (hi,))
        reads += [(kirchhoff_love._build_derivative, (4,), h, _empty_breaks((4,)), 1),
                  (kirchhoff_love._build_derivative, (4,), h, _empty_breaks((4,)), 2),
                  (kirchhoff_love._build_hessian, (4,), h, _empty_breaks((4,)))]
    cached = {kirchhoff_love._build_derivative: _derivative_operator,
              kirchhoff_love._build_hessian: _hessian_operator}
    first = [cached[build](*args) for build, *args in reads]
    for (build, *args), blocks in zip(reads, first):
        assert cached[build](*args) is blocks
        assert _same(blocks, build(*args))
    assert len(kirchhoff_love._patterns) == 4


@pytest.mark.parametrize("kind", ["film", "limit"])
def test_cached_stencils_are_read_only(kind, monkeypatch):
    monkeypatch.setattr(kirchhoff_love, "_patterns", {})
    if kind == "film":
        problem = minimize._FilmProblem(PlateGrid(2, (4,), 2, (0.0,), (1.0,)),
                                        _bent_datum(1.2, 0.7), P2, 0.1)
        g = problem.grid
        arrays = [*_derivative_operator(g.shape, g.spacings, _empty_breaks(g.shape), 2),
                  problem.lifted]
    else:
        h = _plan_h((4,), (0.0,), (1.0,))
        arrays = [*_derivative_operator((4,), h, _empty_breaks((4,)), 1),
                  *_hessian_operator((4,), h, _empty_breaks((4,)))]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1
