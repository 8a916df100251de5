import numpy as np
import pytest

from platelab.kirchhoff_love import (KLState, PlateField, PlateGrid,
                                     _apply_stencil, _derivative_operator,
                                     cell_derivative, cell_strains,
                                     extract_psi, jump_decomposition_check,
                                     kl_average, kl_lift, kl_verify,
                                     reduced_gradient)


def make_grid(plan=(8,), layers=4, n=2):
    return PlateGrid(n, plan, layers, (0.0,) * (n - 1), (1.0,) * (n - 1))


def random_state(rng, plan=(12,), n=2, cracked=True):
    nd = n - 1
    lo, hi = (0.0,) * nd, (1.0,) * nd
    ph = 1.0 / np.asarray(plan)
    axes = [ph[a] * (np.arange(plan[a]) + 0.5) for a in range(nd)]
    mesh = np.meshgrid(*axes, indexing="ij")
    ubar = np.stack([np.sin(2 * np.pi * mesh[a]) + rng.random()
                     for a in range(nd)], axis=-1)
    un = np.cos(np.pi * mesh[0]) * 0.3
    s = KLState(n, tuple(plan), lo, hi, ubar, un, np.zeros_like(ubar))
    if cracked:
        j = rng.integers(1, plan[0] - 2)
        if nd == 1:
            s.crack_cols[0][j] = True
        else:
            s.crack_cols[0][j, :] = True
    s.grad_un = reduced_gradient(s.un, s.plan_h, s.crack_cols)
    return s


# ---------------------------------------------------------------------------
# grids and fields


def test_plate_grid_validation():
    with pytest.raises(ValueError):
        PlateGrid(4, (8, 8, 8), 4, (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        PlateGrid(2, (8, 8), 4, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        PlateGrid(2, (8,), 0, (0,), (1,))


def test_plate_grid_centers_and_volume():
    g = make_grid(plan=(4,), layers=2)
    assert np.allclose(g.plan_points()[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.z_centers(), [-0.25, 0.25])
    assert g.cell_volume == pytest.approx(0.125)
    # midpoint layers are symmetric about z = 0
    assert np.sum(g.z_centers()) == pytest.approx(0.0, abs=1e-15)


def test_plate_field_shape_validation():
    g = make_grid()
    with pytest.raises(ValueError):
        PlateField(g, np.zeros((8, 4)))
    u = PlateField(g, np.zeros((8, 4, 2)))
    assert u.broken[0].shape == (7, 4)
    assert u.broken[1].shape == (8, 3)
    assert u.broken_face_area(0) == pytest.approx(0.25)


def test_klstate_validation_and_crack_measure():
    with pytest.raises(ValueError):
        KLState(2, (4,), (0.0,), (1.0,), np.zeros((5, 1)), np.zeros(4),
                np.zeros((4, 1)))
    s = KLState(2, (4,), (0.0,), (1.0,), np.zeros((4, 1)), np.zeros(4),
                np.zeros((4, 1)))
    assert s.crack_measure() == 0.0
    s.crack_cols[0][1] = True
    assert s.crack_measure() == 1.0
    s3 = KLState(3, (4, 4), (0.0, 0.0), (1.0, 1.0), np.zeros((4, 4, 2)),
                 np.zeros((4, 4)), np.zeros((4, 4, 2)))
    s3.crack_cols[0][1, :] = True
    assert s3.crack_measure() == pytest.approx(1.0)  # 4 faces of length 1/4


def test_klstate_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    for n, plan in ((2, (9,)), (3, (5, 6))):
        s = random_state(rng, plan=plan, n=n)
        path = tmp_path / f"state{n}.txt"
        s.save(path)
        s2 = KLState.load(path)
        assert s2.n == s.n and tuple(s2.plan_shape) == tuple(s.plan_shape)
        assert np.array_equal(s.ubar, s2.ubar)
        assert np.array_equal(s.un, s2.un)
        assert np.array_equal(s.grad_un, s2.grad_un)
        for a in range(n - 1):
            assert np.array_equal(s.crack_cols[a], s2.crack_cols[a])


# ---------------------------------------------------------------------------
# finite differences


def test_cell_derivative_exact_on_linear():
    x = 0.1 * (np.arange(10) + 0.5)
    vals = 3.0 * x + 1.0
    d = cell_derivative(vals, 0, 0.1, None)
    assert np.allclose(d, 3.0, atol=1e-12)


def _forward_derivative(vals, h, broken):
    """d/dx of 1D cell values through the `_derivative_operator` stencil."""
    stencil = _derivative_operator(vals.shape, [h], [broken], 1)
    return _apply_stencil(stencil, vals, vals.size)


def test_derivative_operator_exact_on_linear():
    # forward quotients, backward at the last cell and before a break: every
    # one of them is exact on each side of the break
    x = 0.1 * (np.arange(10) + 0.5)
    broken = np.zeros(9, dtype=bool)
    broken[4] = True
    for jump in (0.0, 1.0):
        vals = 3.0 * x + 1.0 + jump * (np.arange(10) >= 5)
        assert np.allclose(_forward_derivative(vals, 0.1, broken), 3.0, atol=1e-12)


def test_derivative_operator_isolated_cell_zero():
    vals = np.array([1.0, 5.0, 2.0])
    d = _forward_derivative(vals, 1.0, np.array([True, True]))
    assert d[1] == 0.0
    assert np.array_equal(_forward_derivative(vals, 1.0, np.array([False, True])),
                          [4.0, 4.0, 0.0])


def test_cell_derivative_one_sided_at_break():
    x = 0.1 * (np.arange(10) + 0.5)
    vals = x.copy()
    vals[5:] += 1.0  # jump across face between cells 4 and 5
    broken = np.zeros(9, dtype=bool)
    broken[4] = True
    d = cell_derivative(vals, 0, 0.1, broken)
    # the one-sided stencils never straddle the break, so the jump is invisible
    assert np.allclose(d, 1.0, atol=1e-12)


def test_cell_derivative_isolated_cell_zero():
    vals = np.array([1.0, 5.0, 2.0])
    broken = np.array([True, True])
    d = cell_derivative(vals, 0, 1.0, broken)
    assert d[1] == 0.0


def test_cell_strains_affine_displacement():
    g = make_grid(plan=(6,), layers=6)
    A = np.array([[0.4, 0.7], [0.1, -0.2]])
    xs = g.plan_points()[:, 0]
    zs = g.z_centers()
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    vals = np.stack([A[0, 0] * X + A[0, 1] * Z, A[1, 0] * X + A[1, 1] * Z],
                    axis=-1)
    u = PlateField(g, vals)
    E = cell_strains(u)
    sym = 0.5 * (A + A.T)
    assert np.allclose(E, np.broadcast_to(sym, E.shape), atol=1e-10)
    assert np.allclose(E, np.swapaxes(E, -1, -2))


# ---------------------------------------------------------------------------
# lift / average / slices


def test_kl_lift_structure_and_jump_decomposition():
    rng = np.random.default_rng(7)
    s = random_state(rng)
    u = kl_lift(s, 6)
    z = u.grid.z_centers()
    # u_alpha = ubar - z grad_un, u_n = un
    k = 3
    assert np.allclose(u.values[..., k, 0],
                       s.ubar[..., 0] - z[k] * s.grad_un[..., 0])
    assert np.allclose(u.values[..., k, 1], s.un)
    assert jump_decomposition_check(s, u)
    assert u.nonvertical_broken_count() == 0


def test_kl_average_recovers_membrane():
    rng = np.random.default_rng(8)
    s = random_state(rng)
    u = kl_lift(s, 8)
    # the z-odd bending part integrates to zero on the symmetric midpoint layout
    assert np.allclose(kl_average(u), s.ubar, atol=1e-13)


def test_extract_psi_recovers_gradient():
    rng = np.random.default_rng(9)
    s = random_state(rng)
    u = kl_lift(s, 8)
    psi, excluded = extract_psi(u, -0.3, 0.3)
    assert not np.any(excluded)
    assert np.allclose(psi, s.grad_un, atol=1e-12)
    with pytest.raises(ValueError):
        extract_psi(u, 0.01, 0.02)  # snaps to the same layer


def test_extract_psi_excludes_horizontal_breaks():
    g = make_grid(plan=(4,), layers=4)
    u = PlateField(g, np.zeros((4, 4, 2)))
    u.broken[1][2, 1] = True  # horizontal break in column 2
    _, excluded = extract_psi(u, -0.4, 0.4)
    assert excluded[2] and not excluded[0]


# ---------------------------------------------------------------------------
# verification


def test_kl_verify_passes_on_lift():
    rng = np.random.default_rng(10)
    s = random_state(rng, plan=(24,))
    u = kl_lift(s, 12)
    rep = kl_verify(u)
    assert rep["passes"]
    assert rep["nonvertical_broken"] == 0
    assert rep["max_e_in"] <= rep["tol_fd"]
    assert rep["un_thickness_variation"] == 0.0


def test_kl_verify_flags_transverse_shear():
    g = make_grid(plan=(8,), layers=8)
    xs = g.plan_points()[:, 0]
    zs = g.z_centers()
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    vals = np.stack([Z, np.zeros_like(Z)], axis=-1)  # u1 = z: shear e_{1,n} = 1/2
    u = PlateField(g, vals)
    rep = kl_verify(u)
    assert not rep["passes"]
    assert rep["max_e_in"] == pytest.approx(0.5, abs=1e-10)


def test_kl_verify_flags_thickness_variation():
    g = make_grid(plan=(8,), layers=8)
    zs = g.z_centers()
    vals = np.zeros((8, 8, 2))
    vals[..., 1] = zs[None, :]  # u_n varies through the thickness
    rep = kl_verify(PlateField(g, vals))
    assert not rep["passes"]


def test_jump_decomposition_rejects_horizontal_faces():
    rng = np.random.default_rng(11)
    s = random_state(rng)
    u = kl_lift(s, 4)
    u.broken[1][3, 1] = True
    assert not jump_decomposition_check(s, u)


def test_reduced_gradient_matches_central_difference():
    rng = np.random.default_rng(12)
    un = rng.standard_normal((6, 5))
    cracks = [np.zeros((5, 5), dtype=bool), np.zeros((6, 4), dtype=bool)]
    g = reduced_gradient(un, (0.1, 0.2), cracks)
    assert np.allclose(g[2, 2, 0], (un[3, 2] - un[1, 2]) / 0.2)
    assert np.allclose(g[2, 2, 1], (un[2, 3] - un[2, 1]) / 0.4)
    assert np.allclose(g[0, 2, 0], (un[1, 2] - un[0, 2]) / 0.1)  # boundary
