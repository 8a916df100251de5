"""Experiment drivers: recovery sweeps, lower-bound probes, minima sweeps.

Each driver returns a list of plain-dict rows (one per parameter value)
that serialize to CSV; the CLI in :mod:`.cli` wraps these.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .elasticity import LameParams
from .energy import (BoundaryDatum, boundary_penalty, compactness_check,
                     limit_energy, penalized_energies, rescaled_energy)
from .geometry import (CrackSurface, ShiftedGrid, bad_cube_boundary_measure,
                       classify_cubes, direction_set, discrete_jump_energy,
                       projection_measure)
from .kirchhoff_love import KLState, PlateGrid, cell_derivative, kl_lift
from .minimize import SolverConfig, alternate_minimize, minimize_limit


# ---------------------------------------------------------------------------
# recovery sequences


def _compact_smooth(fieldvals: np.ndarray, plan_h, radius: float) -> np.ndarray:
    """Zero a boundary margin, then three box-average passes of width radius/3."""
    out = fieldvals.copy()
    margin = 2.0 * radius
    for a in range(out.ndim):
        h = float(plan_h[a])
        k = int(np.ceil(margin / h))
        if k > 0:
            sl = [slice(None)] * out.ndim
            sl[a] = slice(0, min(k, out.shape[a]))
            out[tuple(sl)] = 0.0
            sl[a] = slice(max(out.shape[a] - k, 0), out.shape[a])
            out[tuple(sl)] = 0.0
    size = [max(1, 2 * int(round(radius / (3.0 * float(plan_h[a])))) + 1)
            for a in range(out.ndim)]
    for _ in range(3):
        out = ndimage.uniform_filter(out, size=size, mode="constant", cval=0.0)
    return out


def recovery_sequence(s: KLState, p: LameParams, rho: float,
                      smoothing_scale: float, layers: int = 32):
    """Transverse-corrected lift approximating the optimal strain profile.

    v = lift(s) + (0, ..., 0, rho^2 x_n [h1(x') - x_n/2 h2(x')]) with h1, h2
    compactly supported mollifications of the optimal transverse factors
    -lam/(lam+2mu) * div ubar and -lam/(lam+2mu) * tr Hess un.
    """
    if smoothing_scale <= 0.0:
        raise ValueError("smoothing_scale must be positive")
    ph = s.plan_h
    if smoothing_scale < float(np.max(ph)):
        raise ValueError("smoothing radius below grid resolution")
    coeff = -p.lam / (p.lam + 2.0 * p.mu)
    nd = s.n - 1
    div_ubar = np.zeros(tuple(s.plan_shape))
    lap_un = np.zeros(tuple(s.plan_shape))
    for a in range(nd):
        div_ubar += cell_derivative(s.ubar[..., a], a, float(ph[a]),
                                    s.crack_cols[a])
        lap_un += cell_derivative(s.grad_un[..., a], a, float(ph[a]),
                                  s.crack_cols[a])
    h1 = _compact_smooth(coeff * div_ubar, ph, smoothing_scale)
    h2 = _compact_smooth(coeff * lap_un, ph, smoothing_scale)

    v = kl_lift(s, layers)
    z = v.grid.z_centers().reshape((1,) * nd + (layers,))
    v.values[..., s.n - 1] += rho ** 2 * z * (h1[..., None] - 0.5 * z * h2[..., None])
    return v


def recovery_sweep(s: KLState, p: LameParams, rho_list, layers: int = 32) -> list:
    """One row per rho: E_rho of the recovery field (smoothing scale sqrt(rho))
    vs the limit energy."""
    e0 = limit_energy(s, p).total
    rows = []
    for rho in rho_list:
        v = recovery_sequence(s, p, rho, np.sqrt(rho), layers)
        e = rescaled_energy(v, p, rho)
        comp = compactness_check(v, p, rho)
        rows.append({
            "rho": rho,
            "e_rho": e.total,
            "e_limit": e0,
            "gap": abs(e.total - e0),
            "rel_gap": abs(e.total - e0) / e0 if e0 else 0.0,
            "e_an_norm": comp["e_an_norm"],
            "bound_an": comp["bound_an"],
            "e_nn_norm": comp["e_nn_norm"],
            "bound_nn": comp["bound_nn"],
        })
    return rows


def liminf_probe(family, s: KLState, p: LameParams, rho_list) -> list:
    """Margins E_rho(v_rho) - E_0(s) for a user-supplied rho-indexed family."""
    e0 = limit_energy(s, p).total
    rows = []
    for rho in rho_list:
        v = family(rho)
        e = rescaled_energy(v, p, rho)
        rows.append({"rho": rho, "e_rho": e.total, "e_limit": e0,
                     "margin": e.total - e0})
    return rows


# largest pointwise difference at which `minima_sweep` counts two minimizers
# as equal on a cell
_MINIMIZER_TOL = 1e-2


def minima_sweep(g: BoundaryDatum, p: LameParams, rho_list, plan_shape,
                 omega_lo, omega_hi, layers: int = 8,
                 cfg: SolverConfig | None = None) -> list:
    """Compare minimized E_rho^g against minimized E_0^g per rho.

    minimizer_distance is the volume of the cells where the film minimizer
    and the lifted limit minimizer differ by more than _MINIMIZER_TOL.
    """
    cfg = cfg or SolverConfig()
    s0, cracks0, e0, _ = minimize_limit(plan_shape, omega_lo, omega_hi, g, p, cfg)
    rows = []
    for rho in rho_list:
        grid = PlateGrid(s0.n, tuple(plan_shape), layers, omega_lo, omega_hi)
        v, cracks, e, trace = alternate_minimize(grid, g, p, rho, cfg)
        lifted = kl_lift(s0, layers)
        diff = np.max(np.abs(v.values - lifted.values), axis=-1)
        dist = float(np.count_nonzero(diff > _MINIMIZER_TOL)) * grid.cell_volume
        surf_rho = e.surface + e.boundary_penalty
        surf_0 = e0.surface + e0.boundary_penalty
        rows.append({
            "rho": rho,
            "min_e_rho": e.total,
            "min_e_limit": e0.total,
            "rel_gap": abs(e.total - e0.total) / e0.total if e0.total else 0.0,
            "surface_gap": abs(surf_rho - surf_0),
            "minimizer_distance": dist,
            "rounds": len(trace),
        })
    return rows


# ---------------------------------------------------------------------------
# lattice experiments


def classify_experiment(crack: CrackSurface, h: float, lo, hi, seed: int = 0,
                        samples: int = 1) -> list:
    rng = np.random.default_rng(seed)
    n = crack.n
    rows = []
    for k in range(samples):
        y = tuple(rng.random(n)) if k > 0 else (0.0,) * n
        grid = ShiftedGrid(n, h, y, tuple(lo), tuple(hi))
        c = classify_cubes(grid, crack)
        rows.append({
            "h": h,
            "sample": k,
            "num_bad": c.num_bad,
            "boundary_measure": bad_cube_boundary_measure(c),
            "jump_energy": discrete_jump_energy(grid, crack),
        })
    return rows


def jump_energy_experiment(crack: CrackSurface, h: float, lo, hi,
                           samples: int = 200, seed: int = 0) -> list:
    """Monte Carlo over grid offsets, with the flat-crack direction oracle."""
    rng = np.random.default_rng(seed)
    n = crack.n
    D = direction_set(n).astype(float)
    # direction oracle: sum over simplices of |e.nu|/|e| * measure
    oracle = 0.0
    vols = (np.linalg.norm(crack.simplices[:, 1] - crack.simplices[:, 0], axis=1)
            if n == 2 else None)
    for i in range(crack.m):
        vol = (vols[i] if n == 2 else
               0.5 * np.linalg.norm(np.cross(crack.simplices[i, 1] - crack.simplices[i, 0],
                                             crack.simplices[i, 2] - crack.simplices[i, 0])))
        for e in D:
            oracle += abs(e @ crack.normals[i]) / np.linalg.norm(e) * vol
    vals = []
    rows = []
    for k in range(samples):
        y = tuple(rng.random(n))
        grid = ShiftedGrid(n, h, y, tuple(lo), tuple(hi))
        vals.append(discrete_jump_energy(grid, crack))
        rows.append({"h": h, "sample": k, "jump_energy": vals[-1],
                     "oracle": oracle})
    mean = float(np.mean(vals))
    rows.append({"h": h, "sample": -1, "jump_energy": mean, "oracle": oracle})
    return rows


def projection_experiment(crack: CrackSurface, h_list, lo, hi) -> list:
    """Shadow of the bad-cube closure along e_n across an h-halving schedule."""
    n = crack.n
    xi = np.zeros(n)
    xi[n - 1] = 1.0
    rows = []
    for h in h_list:
        grid = ShiftedGrid(n, h, (0.0,) * n, tuple(lo), tuple(hi))
        c = classify_cubes(grid, crack)
        rows.append({"h": h,
                     "shadow": projection_measure(c, xi, raster=h / 8.0),
                     "num_bad": c.num_bad})
    return rows


def membrane_crack_state(t: float, plan: tuple, omega_lo, omega_hi,
                         n: int = 2) -> KLState:
    """Uniform stretch with one vertical crack column at the middle of axis 0.

    ubar_1 has slope t on both sides of the crack with a unit jump across it;
    un = 0.  For n = 3 the crack is a full line of faces across the plan.
    """
    plan = tuple(plan)
    nd = n - 1
    lo = np.asarray(omega_lo, dtype=float)
    hi = np.asarray(omega_hi, dtype=float)
    s = KLState(n, plan, tuple(lo), tuple(hi), np.zeros(plan + (nd,)),
                np.zeros(plan), np.zeros(plan + (nd,)))
    x = s.plan_points()[..., 0]
    xc = lo[0] + 0.5 * (hi[0] - lo[0])
    s.ubar[..., 0] = t * x + np.where(x > xc, 1.0, 0.0)
    # crack column at the grid face nearest to xc
    j = int(round((xc - lo[0]) / s.plan_h[0])) - 1
    s.crack_cols[0][min(max(j, 0), plan[0] - 2)] = True
    return s


def approximate_experiment(crack: CrackSurface, h_list, lo, hi,
                           delta: float = 1e-3) -> list:
    """Approximant accuracy for a piecewise-affine field jumping across the crack.

    The test field is (x_1, 0, ...) plus a unit jump of the first component
    across the plane of the crack's first simplex.
    """
    from .interpolation import build_approximant

    n = crack.n
    s0 = crack.simplices[0]
    nu = crack.normals[0]
    x0 = s0.mean(axis=0)

    def v(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], n))
        out[:, 0] = X[:, 0] + ((X - x0) @ nu > 0.0)
        return out

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = []
    for h in h_list:
        grid = ShiftedGrid(n, h, (0.0,) * n, tuple(lo), tuple(hi))
        margin = 2 * n * h
        V = (tuple(lo + margin), tuple(hi - margin))
        vk = build_approximant(v, grid, crack, V)
        # measure of {|v_k - v| > delta} by midpoint sampling on a fine grid
        m = 4 * int(round((hi[0] - lo[0]) / h))
        axes = [np.linspace(V[0][a], V[1][a], m, endpoint=False)
                + (V[1][a] - V[0][a]) / (2 * m) for a in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([g.ravel() for g in mesh], axis=-1)
        err = np.max(np.abs(vk(X) - v(X)), axis=1)
        cellvol = float(np.prod([(V[1][a] - V[0][a]) / m for a in range(n)]))
        bad_measure = float(np.count_nonzero(err > delta)) * cellvol
        vol = float(np.prod([V[1][a] - V[0][a] for a in range(n)]))
        rows.append({"h": h, "exceed_measure": bad_measure,
                     "region_volume": vol,
                     "exceed_fraction": bad_measure / vol,
                     "num_bad_cubes": vk.classification.num_bad})
    return rows


# ---------------------------------------------------------------------------
# configuration and CSV plumbing


@dataclass
class ExperimentConfig:
    experiment: str = "sweep"
    n: int = 2
    omega_lo: tuple = (0.0,)
    omega_hi: tuple = (1.0,)
    plan: tuple = (256,)
    layers: int = 32
    h: float = 1.0 / 64
    rho_list: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    lam: float = 1.0
    mu: float = 1.0
    stretch: float = 0.5
    crack_path: str | None = None
    out: str | None = None
    seed: int = 0
    samples: int = 200

    def __post_init__(self):
        r = list(self.rho_list)
        if any(x <= 0 for x in r) or any(r[i] <= r[i + 1] for i in range(len(r) - 1)):
            raise ValueError("rho list must be positive and strictly decreasing")

    @property
    def lame(self) -> LameParams:
        return LameParams(self.lam, self.mu, self.n)


def load_config(path) -> dict:
    """Plain `key = value` lines with # comments."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            out[key] = val
    return out


def config_from_mapping(m: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, val in m.items():
        if key in ("omega_lo", "omega_hi", "plan", "rho_list"):
            parts = val.replace(",", " ").split()
            conv = int if key == "plan" else float
            setattr(cfg, key, tuple(conv(t) for t in parts))
        elif key in ("n", "layers", "seed", "samples"):
            setattr(cfg, key, int(val))
        elif key in ("h", "lam", "mu", "stretch"):
            setattr(cfg, key, float(val))
        elif key in ("experiment", "crack_path", "out"):
            setattr(cfg, key, val)
        else:
            raise ValueError(f"unknown config key: {key}")
    cfg.__post_init__()
    return cfg


def write_csv(rows: list, path) -> None:
    """Atomic CSV write: header from the first row, LF endings, repr floats."""
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0].keys())
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            w = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
            w.writeheader()
            for r in rows:
                w.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                            for k, v in r.items()})
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
