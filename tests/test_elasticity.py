import numpy as np
import pytest

from platelab.elasticity import (LameParams, apply_C, phi_rho,
                                 quadratic_form_C, quadratic_form_C0,
                                 reduced_min_oracle, rescale_strain,
                                 validate_lame)


def random_sym(rng, dim):
    A = rng.standard_normal((dim, dim))
    return A + A.T


def test_validate_lame():
    assert validate_lame(LameParams(1.0, 1.0, 2))
    assert not validate_lame(LameParams(-1.0, 1.0, 3))
    assert not validate_lame(LameParams(0.0, 0.0, 2))
    # an infinite lam or mu passes the sign tests alone
    for lam, mu in ((1.0, np.inf), (np.inf, 1.0), (1.0, np.nan), (np.nan, 1.0)):
        assert not validate_lame(LameParams(lam, mu, 3))


def test_validate_lame_boundary():
    # 2 mu + n lam > 0 must be strict
    assert not validate_lame(LameParams(-1.0, 1.5, 3))
    assert validate_lame(LameParams(-0.9, 1.5, 3))


@pytest.mark.parametrize("rho", [np.inf, np.nan, 0.0, -1.0])
def test_rho_must_be_positive_and_finite(rho):
    # at rho = inf the rescalings would drop the transverse strain and the
    # vertical surface weight; at nan they would return nan
    calls = [lambda: rescale_strain(np.eye(2), rho), lambda: phi_rho(rho, [0.0, 1.0])]
    for call in calls:
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            call()


def test_apply_C_identity():
    p = LameParams(1.0, 1.0, 2)
    assert np.allclose(apply_C(p, np.eye(2)), 4.0 * np.eye(2))
    assert np.allclose(apply_C(p, np.zeros((2, 2))), 0.0)


def test_apply_C_rejects_asymmetric():
    p = LameParams(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        apply_C(p, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_C_positive_definite():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        p = LameParams(0.7, 1.3, n)
        for _ in range(50):
            E = random_sym(rng, n)
            if np.allclose(E, 0.0):
                continue
            assert float(np.sum(apply_C(p, E) * E)) > 0.0


def test_quadratic_form_matches_contraction():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        p = LameParams(0.4, 0.9, n)
        for _ in range(100):
            E = random_sym(rng, n)
            q = quadratic_form_C(p, E)
            ref = float(np.sum(apply_C(p, E) * E))
            assert q == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_quadratic_form_identity_value():
    p = LameParams(1.0, 1.0, 2)
    assert quadratic_form_C(p, np.eye(2)) == pytest.approx(8.0)


def test_reduced_form_examples():
    p = LameParams(1.0, 1.0, 3)
    assert quadratic_form_C0(p, np.zeros((2, 2))) == 0.0
    assert quadratic_form_C0(p, np.eye(2)) == pytest.approx(20.0 / 3.0)
    assert quadratic_form_C0(p, np.diag([1.0, -1.0])) == pytest.approx(4.0)


def test_reduced_min_oracle_matches_closed_form():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(100):
            lam = rng.uniform(-0.5, 2.0)
            mu = rng.uniform(0.2, 2.0)
            p = LameParams(lam, mu, n)
            if not validate_lame(p):
                continue
            E = random_sym(rng, n - 1)
            val, _ = reduced_min_oracle(p, E)
            assert val == pytest.approx(quadratic_form_C0(p, E),
                                        rel=1e-9, abs=1e-12)


def test_reduced_min_oracle_minimizer_structure():
    p = LameParams(1.0, 1.0, 3)
    val, xi = reduced_min_oracle(p, np.eye(2))
    assert val == pytest.approx(20.0 / 3.0)
    assert np.allclose(xi[:2], 0.0, atol=1e-12)
    assert xi[2] == pytest.approx(-2.0 / 3.0)
    # trace-free input: minimizer at zero
    _, xi = reduced_min_oracle(p, np.diag([1.0, -1.0]))
    assert np.allclose(xi, 0.0, atol=1e-12)


def test_phi_rho_values():
    assert phi_rho(0.5, np.array([0.0, 1.0])) == pytest.approx(2.0)
    assert phi_rho(0.3, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert phi_rho(0.2, np.array([0.6, 0.8])) == pytest.approx(
        np.sqrt(0.36 + 16.0))


def test_phi_rho_norm_properties():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = rng.uniform(0.05, 1.0)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        t = rng.uniform(-3, 3)
        assert phi_rho(rho, t * a) == pytest.approx(abs(t) * phi_rho(rho, a))
        assert phi_rho(rho, a + b) <= phi_rho(rho, a) + phi_rho(rho, b) + 1e-12
        assert phi_rho(rho, a) >= np.linalg.norm(a) - 1e-12


def test_phi_rho_monotone_in_rho():
    nu = np.array([0.3, 0.4, 0.5])
    rhos = np.geomspace(1.0, 1e-4, 20)
    vals = [phi_rho(r, nu) for r in rhos]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-1] > 1e3  # blows up when nu_n != 0
    flat = np.array([0.6, 0.8, 0.0])
    assert phi_rho(1e-6, flat) == pytest.approx(1.0)


def test_rescale_strain_roundtrip():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        E = random_sym(rng, n)
        rho = 0.13
        forward = E.copy()
        forward[:-1, -1] *= rho
        forward[-1, :-1] *= rho
        forward[-1, -1] *= rho ** 2
        assert np.allclose(rescale_strain(forward, rho), E, atol=1e-13)
        inplane = np.diag([1.0] * (n - 1) + [0.0])
        assert np.allclose(rescale_strain(inplane, 0.01), inplane)
        # a (..., n, n) stack maps matrix by matrix, to the same bits
        stack = np.array([[random_sym(rng, n) for _ in range(3)] for _ in range(2)])
        per_matrix = np.array([[rescale_strain(M, rho) for M in row] for row in stack])
        assert np.array_equal(rescale_strain(stack, rho), per_matrix)
