import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platelab import energy
from platelab.elasticity import LameParams
from platelab.energy import (BoundaryDatum, EnergyBreakdown, _form,
                             boundary_penalty, compactness_check, limit_energy,
                             penalized_energies, rescaled_energy,
                             rescaled_strains, stretch_datum)
from platelab.kirchhoff_love import (KLState, PlateField, PlateGrid,
                                     _derivative_operator, _hessian_operator,
                                     kl_lift, reduced_gradient)
from platelab.minimize import _reduced_system

P2 = LameParams(1.0, 1.0, 2)


def stretch_state(t, N=32):
    xs = (np.arange(N) + 0.5) / N
    ubar = (t * xs)[:, None]
    s = KLState(2, (N,), (0.0,), (1.0,), ubar, np.zeros(N), np.zeros((N, 1)))
    return s


def bending_state(N=64):
    # un = x^2 / 2, so Hess un = 1 in the continuum
    xs = (np.arange(N) + 0.5) / N
    un = 0.5 * xs ** 2
    s = KLState(2, (N,), (0.0,), (1.0,), np.zeros((N, 1)), un,
                np.zeros((N, 1)))
    s.grad_un = reduced_gradient(s.un, s.plan_h, s.crack_cols)
    return s


def test_energy_breakdown_total():
    e = EnergyBreakdown(1.0, 2.0, 0.5)
    assert e.total == 3.5


# ---------------------------------------------------------------------------
# closed-form oracles for the uniaxial stretch (lam = mu = 1, n = 2):
# full tensor density C E . E = 3 t^2, reduced density C0 E . E = (8/3) t^2


def test_limit_energy_stretch_closed_form(monkeypatch):
    # un = 0: the bending term is 0 without building the Hessian stencil
    def no_stencil(*args):
        raise AssertionError("_hessian_operator called for a zero deflection")

    monkeypatch.setattr(energy, "_hessian_operator", no_stencil)
    t = 0.7
    e = limit_energy(stretch_state(t), P2)
    assert e.surface == 0.0
    assert e.bulk == pytest.approx(0.5 * (8.0 / 3.0) * t ** 2, rel=1e-12)


def test_limit_energy_bending_closed_form():
    # pure bending: bulk = (1/2) * (1/12) * C0(1) = (8/3) / 24 = 1/9; the
    # 3-point stencils (centered inside, shifted one-sided at the two end
    # cells) are exact on a quadratic, so Hess un = 1 on every cell
    e = limit_energy(bending_state(256), P2)
    assert e.bulk == pytest.approx(1.0 / 9.0, rel=1e-12)


def _stiffness(stencil, Q, weight, ndof):
    """K of the bulk (1/2) x.K x, from the solver's `_reduced_system` with
    no fixed dofs."""
    none = np.zeros(ndof, dtype=bool)
    K, _ = _reduced_system(stencil, Q, weight, none, np.zeros(ndof))
    return K


def _assert_bulk_is_quadratic(bulk, parts):
    """bulk = sum (1/2) x.K x over parts [(K, x)], to 1e-12 of the sum of
    (1/2)|x|.|K||x| (the size of the rounding of either side)."""
    exact = sum(0.5 * x @ (K @ x) for K, x in parts)
    size = sum(0.5 * np.abs(x) @ (abs(K) @ np.abs(x)) for K, x in parts)
    assert abs(bulk - exact) <= 1e-12 * size, (bulk, exact, size)


def test_limit_energy_bending_sees_the_solver_hessian():
    # un = x^2/2 + 1e-3 (-1)^i on 64 cells: every 3-point second difference
    # of the oscillation is -+4e-3 / h^2 = -+16.384, so Hess un = 1 -+ 16.384
    # cell by cell (the ends included) and the bulk is (1 + 16.384^2) / 9.
    # A difference of the central gradient does not see the oscillation.
    s = bending_state(64)
    s.un = s.un + 1e-3 * (-1.0) ** np.arange(64)
    e = limit_energy(s, P2)
    assert e.bulk == pytest.approx((1.0 + 16.384 ** 2) / 9.0, rel=1e-12)
    K = _stiffness(_hessian_operator((64,), s.plan_h, s.crack_cols), _form(P2),
                   s.plan_h[0] / 12.0, 64)
    _assert_bulk_is_quadratic(e.bulk, [(K, s.un)])


def _random_breaks(draw, shape):
    out = []
    for a in range(len(shape)):
        s = list(shape)
        s[a] -= 1
        size = int(np.prod(s))
        flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        out.append(np.array(flags, dtype=bool).reshape(s))
    return out


@st.composite
def _bulk_case(draw):
    """The bulk of a limit state or of a film field (rescaled or physical),
    n = 2 or 3, random values and broken faces, with the parts [(K, x)] of
    its solver quadratic."""
    n = draw(st.sampled_from([2, 3]))
    p = LameParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0)), n)
    hi = tuple(draw(st.sampled_from([0.7, 1.0, 1.3])) for _ in range(n - 1))
    lo = (0.0,) * (n - 1)
    plan = tuple(draw(st.integers(2, 6 if n == 2 else 4)) for _ in range(n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        m = n - 1
        s = KLState(n, plan, lo, hi, rng.standard_normal(plan + (m,)),
                    rng.standard_normal(plan), rng.standard_normal(plan + (m,)),
                    _random_breaks(draw, plan))
        area = float(np.prod(s.plan_h))
        ncell = int(np.prod(plan))
        Km = _stiffness(_derivative_operator(plan, s.plan_h, s.crack_cols, m),
                        _form(p), area, ncell * m)
        Kb = _stiffness(_hessian_operator(plan, s.plan_h, s.crack_cols),
                        _form(p), area / 12.0, ncell)
        return limit_energy(s, p).bulk, [(Km, s.ubar.ravel()), (Kb, s.un.ravel())]
    g = PlateGrid(n, plan, draw(st.integers(2, 4)), lo, hi)
    v = PlateField(g, rng.standard_normal(g.shape + (n,)), _random_breaks(draw, g.shape))
    rho = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    K = _stiffness(_derivative_operator(g.shape, g.spacings, v.broken, n),
                   _form(p, rho), g.cell_volume, v.values.size)
    return rescaled_energy(v, p, rho).bulk, [(K, v.values.ravel())]


@settings(max_examples=150, deadline=None)
@given(_bulk_case())
def test_reported_bulk_is_the_solver_quadratic(case):
    bulk, parts = case
    _assert_bulk_is_quadratic(bulk, parts)


def test_limit_energy_layers_quadrature_matches_analytic():
    s = bending_state(64)
    ea = limit_energy(s, P2)
    for L in (8, 32):
        eq = limit_energy(s, P2, layers=L)
        # midpoint quadrature of z^2 carries a (1 - 1/L^2) factor
        assert eq.bulk == pytest.approx(ea.bulk, rel=2.0 / L ** 2)


@pytest.mark.parametrize("layers", [0, -1, 2.5, 2.0])
def test_limit_energy_layers_must_be_a_positive_integer(layers):
    # 0 divided by zero, -1 summed no layer and 2.5 integrated a thickness of 1.2
    with pytest.raises(ValueError, match="layers must be a positive integer"):
        limit_energy(bending_state(8), P2, layers=layers)


def test_limit_energy_crack_surface_measure():
    s = stretch_state(0.0)
    s.crack_cols[0][10] = True
    e = limit_energy(s, P2)
    assert e.surface == pytest.approx(1.0)


def test_rescaled_energy_of_lift_matches_membrane_density():
    t = 0.4
    v = kl_lift(stretch_state(t), 8)
    e = rescaled_energy(v, P2, 0.05)
    assert e.bulk == pytest.approx(0.5 * 3.0 * t ** 2, rel=1e-12)
    assert e.surface == 0.0


def test_rescaled_surface_weights():
    g = PlateGrid(2, (8,), 4, (0.0,), (1.0,))
    u = PlateField(g, np.zeros((8, 4, 2)))
    rho = 0.1
    u.broken[0][3, :] = True  # one full vertical column: 4 faces of area 1/4
    assert rescaled_energy(u, P2, rho).surface == pytest.approx(1.0)
    u2 = PlateField(g, np.zeros((8, 4, 2)))
    u2.broken[1][2, 1] = True  # one horizontal face, area 1/8, weight 1/rho
    assert rescaled_energy(u2, P2, rho).surface == pytest.approx(0.125 / rho)


def test_rescaled_energy_validates_inputs():
    v = kl_lift(stretch_state(0.1), 4)
    for rho in (0.0, np.inf, np.nan):
        for f in (rescaled_energy, compactness_check):
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                f(v, P2, rho)
    with pytest.raises(ValueError):
        rescaled_energy(v, LameParams(0.0, 0.0, 2), 0.1)


def test_rescaled_strains_scaling():
    rng = np.random.default_rng(0)
    g = PlateGrid(2, (6,), 4, (0.0,), (1.0,))
    u = PlateField(g, rng.standard_normal((6, 4, 2)))
    rho = 0.2
    from platelab.kirchhoff_love import cell_strains
    E0 = cell_strains(u)
    E = rescaled_strains(u, rho)
    assert np.allclose(E[..., 0, 0], E0[..., 0, 0])
    assert np.allclose(E[..., 0, 1], E0[..., 0, 1] / rho)
    assert np.allclose(E[..., 1, 1], E0[..., 1, 1] / rho ** 2)


# ---------------------------------------------------------------------------
# boundary data and penalties


def test_stretch_datum_lift_values():
    # the cell centers of (5,) on (0, 2) are 0.2, 0.6, ...: ubar = 0.5 x there
    d = stretch_datum(0.5, 2).state((5,), (0.0,), (2.0,))
    out = kl_lift(d, 2).values
    assert out.shape == (5, 2, 2)
    assert np.allclose(out[0, :, 0], 0.1)
    assert np.allclose(out[:, 1, 0], 0.5 * (0.2 + 0.4 * np.arange(5)))
    assert np.allclose(out[..., 1], 0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_datum_state_samples_the_cell_centers(n):
    # cell centers 0.25, 0.75, 1.25, 1.75 on (0, 2), and -0.5, 0.5, 1.5 on (-1, 2)
    plan, lo, hi = ((4,), (0.0,), (2.0,)) if n == 2 else ((4, 3), (0.0, -1.0), (2.0, 2.0))
    g = BoundaryDatum(lambda X: 2.0 * X, lambda X: X.sum(axis=1), lambda X: X ** 2, n)
    d = g.state(plan, lo, hi)
    assert (d.n, d.plan_shape, d.omega_lo, d.omega_hi) == (n, plan, lo, hi)
    assert d.ubar.shape == d.grad_un.shape == plan + (n - 1,)
    assert d.un.shape == plan
    X = np.stack(np.meshgrid(*[[0.25, 0.75, 1.25, 1.75], [-0.5, 0.5, 1.5]][:n - 1],
                             indexing="ij"), axis=-1)
    assert np.array_equal(d.ubar, 2.0 * X)
    assert np.array_equal(d.un, X.sum(axis=-1))
    assert np.array_equal(d.grad_un, X ** 2)
    assert not any(np.any(c) for c in d.crack_cols)


@pytest.mark.parametrize("plan, lo, hi", [((4, 4), (0.0,), (1.0,)),
                                          ((4,), (0.0, 0.0), (1.0, 1.0)),
                                          ((4,), (0.0,), (1.0, 1.0))])
def test_boundary_datum_state_checks_the_plan_first(plan, lo, hi):
    def never(X):
        raise AssertionError("datum evaluated before the plan check")

    with pytest.raises(ValueError, match="n - 1"):
        BoundaryDatum(never, never, never, 2).state(plan, lo, hi)


def test_boundary_penalty_klstate():
    t = 0.3
    g = stretch_datum(t, 2)
    s = stretch_state(t)
    assert boundary_penalty(s, g) == 0.0
    s.ubar += 1.0  # violate the datum on both lateral sides
    assert boundary_penalty(s, g) == pytest.approx(2.0)


def test_boundary_penalty_plate_field():
    t = 0.3
    g = stretch_datum(t, 2)
    v = kl_lift(stretch_state(t), 8)
    assert boundary_penalty(v, g) == 0.0
    v.values[..., 0] += 1.0
    assert boundary_penalty(v, g) == pytest.approx(2.0)


def _bent_datum_3d():
    # ubar = (0.3 x_1, 0), un = (x_1^2 + x_2^2) / 2, grad_un = (x_1, x_2)
    def ubar(X):
        return np.stack([0.3 * X[:, 0], np.zeros(len(X))], axis=-1)

    return BoundaryDatum(ubar, lambda X: 0.5 * np.sum(X ** 2, axis=1),
                         lambda X: X.copy(), 3)


def _state_on_datum(g, plan=(6, 5), lo=(0.0, 0.0), hi=(1.2, 2.0)):
    s = KLState(3, plan, lo, hi, np.zeros(plan + (2,)), np.zeros(plan),
                np.zeros(plan + (2,)))
    X = s.plan_points().reshape(-1, 2)
    s.ubar = g.ubar(X).reshape(plan + (2,))
    s.un = g.un(X).reshape(plan)
    s.grad_un = g.grad_un(X).reshape(plan + (2,))
    return s


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("wrong", ["un", "grad_un"])
def test_boundary_penalty_klstate_partial_side(wrong, k):
    # k of the 5 cells on side x_1 = 0 are off in one entry only, away from
    # the corners: the penalty is k/5 of that side's length 2
    g = _bent_datum_3d()
    s = _state_on_datum(g)
    assert boundary_penalty(s, g) == 0.0
    rows = [1, 2, 3][:k]
    if wrong == "un":
        s.un[0, rows] += 1e-12  # below the trace tolerance
        assert boundary_penalty(s, g) == 0.0
        s.un[0, rows] += 1e-3
    else:
        s.grad_un[0, rows, 1] += 1e-12
        assert boundary_penalty(s, g) == 0.0
        s.grad_un[0, rows, 1] += 1e-3
    assert boundary_penalty(s, g) == pytest.approx(k / 5 * 2.0, rel=1e-12)


def test_boundary_penalty_plate_field_one_layer():
    # one entry of one layer of one side cell is wrong: that cell's share of
    # its side (1/5 of length 2) for n = 3, the whole side (measure 1) for n = 2
    g3 = _bent_datum_3d()
    v = kl_lift(_state_on_datum(g3), 4)
    assert boundary_penalty(v, g3) == 0.0
    v.values[-1, 2, 1, 0] += 1e-3
    assert boundary_penalty(v, g3) == pytest.approx(2.0 / 5, rel=1e-12)
    g2 = stretch_datum(0.3, 2)
    v = kl_lift(stretch_state(0.3), 8)
    v.values[0, 5, 1] += 1e-3
    assert boundary_penalty(v, g2) == pytest.approx(1.0, rel=1e-12)


def test_penalized_energies_dispatch():
    t = 0.3
    g = stretch_datum(t, 2)
    s = stretch_state(t)
    e0 = penalized_energies(s, P2, g)
    assert e0.boundary_penalty == 0.0
    v = kl_lift(s, 8)
    with pytest.raises(ValueError):
        penalized_energies(v, P2, g)  # rho required for a PlateField
    er = penalized_energies(v, P2, g, rho=0.1)
    assert er.bulk == pytest.approx(0.5 * 3.0 * t ** 2, rel=1e-12)


def test_compactness_check_holds_on_lift():
    v = kl_lift(stretch_state(0.5), 8)
    rep = compactness_check(v, P2, 0.02)
    assert rep["ok"]
    assert rep["e_an_norm"] <= rep["bound_an"] + 1e-14
    assert rep["e_nn_norm"] <= rep["bound_nn"] + 1e-14

