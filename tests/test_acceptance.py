"""End-to-end acceptance checks against closed-form oracles.

Each test exercises one headline property of the laboratory at its stated
tolerance; several reuse shared sweeps computed once per session.
"""

import time

import numpy as np
import pytest

from elastic_oracle import reduced_min_oracle
from platelab import lab
from platelab.elasticity import LameParams, quadratic_form_C0, validate_lame
from platelab.energy import stretch_datum
from platelab.geometry import (CrackSurface, ShiftedGrid, axis_plane_crack,
                               classify_cubes, projection_measure)
from platelab.interpolation import (build_approximant, directional_strain,
                                    sample, structure_preservation_check)
from platelab.kirchhoff_love import (KLState, extract_psi, kl_average, kl_lift,
                                     kl_verify, jump_decomposition_check,
                                     reduced_gradient)
from platelab.minimize import SolverConfig, minimize_limit

P2 = LameParams(1.0, 1.0, 2)
VERT = axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))


@pytest.fixture(scope="module")
def recovery_rows():
    s = lab.membrane_crack_state(0.5, (256,), (0.0,), (1.0,))
    t0 = time.perf_counter()
    rows = lab.recovery_sweep(s, P2, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], layers=32)
    return rows, time.perf_counter() - t0


def test_ac1_reduced_tensor_identity():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    pairs = []
    while len(pairs) < 10:
        lam = rng.uniform(-1.0, 3.0)
        mu = rng.uniform(0.1, 3.0)
        if validate_lame(LameParams(lam, mu, 2)) and \
                validate_lame(LameParams(lam, mu, 3)):
            pairs.append((lam, mu))
    for n in (2, 3):
        for _ in range(200):
            A = rng.standard_normal((n - 1, n - 1))
            E = A + A.T
            for lam, mu in pairs:
                p = LameParams(lam, mu, n)
                val, _ = reduced_min_oracle(p, E)
                ref = quadratic_form_C0(p, E)
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))
    assert time.perf_counter() - t0 < 1.0


def test_ac2_griffith_bar_crossover():
    t0 = time.perf_counter()
    cfg = SolverConfig()
    g_datum = stretch_datum
    states = []
    ts = np.arange(0.5, 1.2001, 0.02)
    for t in ts:
        _, cracks, _, _ = minimize_limit((256,), (0.0,), (1.0,),
                                         g_datum(float(t), 2), P2, cfg)
        states.append(bool(np.any(cracks.broken[0]) or cracks.released))
    flips = [i for i in range(len(states) - 1) if states[i] != states[i + 1]]
    assert len(flips) == 1
    assert not states[0] and states[-1]
    t_switch = 0.5 * (ts[flips[0]] + ts[flips[0] + 1])
    assert abs(t_switch - np.sqrt(3.0) / 2.0) <= 0.05 * (np.sqrt(3.0) / 2.0)
    assert time.perf_counter() - t0 < 30.0


def test_ac3_recovery_convergence(recovery_rows):
    rows, elapsed = recovery_rows
    gaps = [r["rel_gap"] for r in rows]
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    assert gaps[-1] <= 0.02
    assert elapsed < 60.0


def test_ac4_minima_convergence():
    t0 = time.perf_counter()
    layers = 8
    face_area = 1.0 / layers  # largest single-face area on the 64 x 8 grid
    for t in (0.5, 1.2):
        rows = lab.minima_sweep(stretch_datum(t, 2), P2, [1e-1, 1e-2], (64,),
                                (0.0,), (1.0,), layers=layers)
        assert rows[-1]["rel_gap"] <= 0.05
        for r in rows:
            assert r["surface_gap"] <= face_area + 1e-12
    assert time.perf_counter() - t0 < 120.0


def test_ac5_jump_energy_averaging():
    h = 1.0 / 64
    rows = lab.jump_energy_experiment(VERT, h, (0.0, 0.0), (1.0, 1.0),
                                      samples=200, seed=11)
    oracle = 1.0 + 3.0 / np.sqrt(2.0)
    assert rows[0]["oracle"] == pytest.approx(oracle, rel=1e-12)
    mean = rows[-1]["jump_energy"]
    assert abs(mean - oracle) <= 0.03 * oracle

    tilted = CrackSurface(np.array([[[0.1, 0.8], [0.9, 0.2]]]))  # nu = (3,4)/5
    assert np.allclose(np.abs(tilted.normals[0]), [0.6, 0.8])
    rows = lab.jump_energy_experiment(tilted, h, (-0.5, -0.5), (1.5, 1.5),
                                      samples=200, seed=12)
    oracle_t = rows[0]["oracle"]
    assert oracle_t == pytest.approx((1.4 + 1.8 / np.sqrt(2.0)), rel=1e-12)
    assert abs(rows[-1]["jump_energy"] - oracle_t) <= 0.03 * oracle_t


def test_ac6_transversal_projection_vanishing():
    hs = [1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    rows = lab.projection_experiment(VERT, hs, (0.0, 0.0), (1.0, 1.0))
    shadows = [r["shadow"] for r in rows]
    C = max(sh / h for sh, h in zip(shadows, hs))
    for sh, h in zip(shadows, hs):
        assert sh <= C * h + 1e-12
    for k in range(len(shadows) - 1):
        assert 0.4 <= shadows[k + 1] / shadows[k] <= 0.6


def test_ac7_approximant_properties():
    lo, hi = (-0.5, -0.5), (1.5, 1.5)
    hs = [1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256]
    rows = lab.approximate_experiment(VERT, hs, lo, hi)
    fracs = [r["exceed_fraction"] for r in rows]
    assert all(fracs[i + 1] <= fracs[i] + 1e-12 for i in range(len(fracs) - 1))
    assert fracs[-1] < 0.01

    # weak probe: cube sums of the directional quotient against smooth test
    # functions converge to the continuum strain integral with slope >= 0.9
    x0 = np.array([0.5, 0.0])

    def v(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], 2))
        out[:, 0] = X[:, 0] + (X[:, 0] > x0[0])
        return out

    V = ((0.0, 0.0), (1.0, 1.0))
    phis = [lambda X: np.cos(np.pi * X[:, 0]) * np.cos(np.pi * X[:, 1]),
            lambda X: np.exp(-2.0 * ((X[:, 0] - 0.3) ** 2
                                     + (X[:, 1] - 0.6) ** 2))]
    e = np.array([1.0, 0.0])  # continuum value e(v) e . e = 1 a.e. in V
    m = 512
    qaxes = [np.linspace(0.0, 1.0, m, endpoint=False) + 0.5 / m] * 2
    QX = np.stack([g.ravel() for g in np.meshgrid(*qaxes, indexing="ij")],
                  axis=-1)
    errs = []
    for h in hs:
        grid = ShiftedGrid(2, h, (0.0, 0.0), lo, hi)
        s = sample(v, grid)
        ds = directional_strain(s, e, VERT)
        Z = grid.cube_indices()
        centers = grid.corner(Z) + 0.5 * h
        inside = np.all((centers >= V[0]) & (centers <= V[1]), axis=1)
        vals = ds.values.reshape(-1)[inside]
        worst = 0.0
        for phi in phis:
            num = h ** 2 * float(np.sum(vals * phi(centers[inside])))
            exact = float(np.mean(phi(QX)))  # times |V| = 1 and strain 1
            worst = max(worst, abs(num - exact))
        errs.append(worst)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9

    vk = build_approximant(v, ShiftedGrid(2, 1.0 / 64, (0.0, 0.0), lo, hi),
                           VERT, V)
    assert structure_preservation_check(v, vk, 1, 0, rng=0) is True


def test_ac8_kl_structure_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # appgra residual O(h^2): smooth lifts on square-cell grids
    residuals = []
    Ns = [16, 32, 64, 128]
    for N in Ns:
        xs = (np.arange(N) + 0.5) / N
        ubar = (0.3 * np.sin(2 * np.pi * xs))[:, None]
        un = 0.2 * np.cos(np.pi * xs)
        s = KLState(2, (N,), (0.0,), (1.0,), ubar, un, np.zeros((N, 1)))
        s.grad_un = reduced_gradient(un, s.plan_h, s.crack_cols)
        rep = kl_verify(kl_lift(s, N))
        assert rep["passes"]
        residuals.append(rep["appgra_residual"])
    slope = np.polyfit(np.log(1.0 / np.asarray(Ns)), np.log(residuals), 1)[0]
    assert slope >= 1.9

    # round trips and jump decomposition on randomized states
    for _ in range(20):
        N = int(rng.integers(8, 40))
        layers = int(rng.integers(4, 16)) * 2
        ubar = rng.standard_normal((N, 1))
        un = rng.standard_normal(N)
        s = KLState(2, (N,), (0.0,), (1.0,), ubar, un, np.zeros((N, 1)))
        if rng.random() < 0.7:
            s.crack_cols[0][rng.integers(0, N - 1)] = True
        s.grad_un = reduced_gradient(un, s.plan_h, s.crack_cols)
        u = kl_lift(s, layers)
        assert np.allclose(kl_average(u), s.ubar, atol=1e-12)
        psi, excluded = extract_psi(u, -0.25, 0.25)
        assert not np.any(excluded)
        assert np.allclose(psi, s.grad_un, atol=1e-11)
        assert jump_decomposition_check(s, u)
        assert kl_verify(u)["nonvertical_broken"] == 0
    assert time.perf_counter() - t0 < 10.0


def test_ac9_compactness_diagnostics(recovery_rows):
    rows, _ = recovery_rows
    for r in rows:
        assert r["e_an_norm"] <= r["bound_an"] + 1e-12
        assert r["e_nn_norm"] <= r["bound_nn"] + 1e-12
