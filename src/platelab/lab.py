"""Experiment drivers: recovery sweeps, minima sweeps, lattice experiments.

Each driver returns a list of plain-dict rows (one per parameter value)
that serialize to CSV; the CLI in :mod:`.cli` wraps these.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .elasticity import LameParams, _check_rho, validate_lame
from .energy import (BoundaryDatum, compactness_check, limit_energy, rescaled_energy,
                     stretch_datum)
# unused here; bench/tracer.py wraps these names in this module
from .energy import boundary_penalty, penalized_energies  # noqa: F401
from .geometry import (CrackSurface, ShiftedGrid, _segment_hits,
                       bad_cube_boundary_measure, classify_cubes, direction_set,
                       discrete_jump_energy, projection_measure)
from .kirchhoff_love import (KLState, PlateGrid, _apply_stencil, _derivative_operator,
                             cell_derivative, kl_lift)
from .minimize import SolverConfig, alternate_minimize, minimize_limit


# ---------------------------------------------------------------------------
# recovery sequences


def _box_filter(x: np.ndarray, size) -> np.ndarray:
    """Mean over a centred box of odd widths `size`, counting zeros beyond
    the ends: uniform_filter(x, size, mode="constant"), one cumsum
    difference per axis."""
    for a, k in enumerate(size):
        if k > 1:
            pad = [(0, 0)] * x.ndim
            pad[a] = (k // 2 + 1, k // 2)
            c = np.cumsum(np.pad(x, pad), axis=a)
            n = x.shape[a]
            x = (np.take(c, range(k, k + n), axis=a) - np.take(c, range(n), axis=a)) / k
    return x


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
        out = _box_filter(out, size)
    return out


def recovery_sequence(s: KLState, p: LameParams, rho: float,
                      smoothing_scale: float, layers: int = 32):
    """Transverse-corrected lift approximating the optimal strain profile.

    v = lift(s) + (0, ..., 0, rho^2 x_n [h1(x') - x_n/2 h2(x')]) with h1, h2
    compactly supported mollifications of the optimal transverse factors
    -lam/(lam+2mu) * div ubar and -lam/(lam+2mu) * tr Hess un.  The lift
    and tr Hess un take the slope of un that the film's own stencil takes
    (forward differences, backward at breaks), so the lift's e_{alpha n}
    vanishes cell by cell and E_rho stays bounded as rho -> 0.
    """
    _check_rho(rho)
    if not 0.0 < smoothing_scale < np.inf:
        raise ValueError("smoothing_scale must be positive and finite")
    ph = s.plan_h
    if smoothing_scale < float(np.max(ph)):
        raise ValueError("smoothing radius below grid resolution")
    coeff = -p.lam / (p.lam + 2.0 * p.mu)
    nd = s.n - 1
    slope = _apply_stencil(_derivative_operator(s.plan_shape, ph, s.crack_cols, 1),
                           s.un).reshape(s.un.shape + (nd,))
    div_ubar = np.zeros(tuple(s.plan_shape))
    lap_un = np.zeros(tuple(s.plan_shape))
    for a in range(nd):
        div_ubar += cell_derivative(s.ubar[..., a], a, float(ph[a]),
                                    s.crack_cols[a])
        lap_un += cell_derivative(slope[..., a], a, float(ph[a]), s.crack_cols[a])
    h1 = _compact_smooth(coeff * div_ubar, ph, smoothing_scale)
    h2 = _compact_smooth(coeff * lap_un, ph, smoothing_scale)

    v = kl_lift(replace(s, grad_un=slope), layers)
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
    grid = PlateGrid(s0.n, tuple(plan_shape), layers, omega_lo, omega_hi)
    lifted = kl_lift(s0, layers)
    rows = []
    for rho in rho_list:
        v, cracks, e, trace = alternate_minimize(grid, g, p, rho, cfg)
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
        # both read the one table of the grid's lattice-segment hits
        hits = _segment_hits(grid, crack)
        c = classify_cubes(grid, crack, hits)
        rows.append({
            "h": h,
            "sample": k,
            "num_bad": c.num_bad,
            "boundary_measure": bad_cube_boundary_measure(c),
            "jump_energy": discrete_jump_energy(grid, crack, hits),
        })
    return rows


def jump_energy_experiment(crack: CrackSurface, h: float, lo, hi,
                           samples: int = 200, seed: int = 0) -> list:
    """Monte Carlo over grid offsets, with the flat-crack direction oracle.

    One row per sample and a last row (sample -1) with their mean; ValueError
    unless samples >= 1, since the mean of no samples is undefined.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    n = crack.n
    D = direction_set(n).astype(float)
    # direction oracle: sum over directions e and simplices of |e.nu|/|e| * measure
    oracle = float(np.sum(np.abs(D @ crack.normals.T) / np.linalg.norm(D, axis=1)[:, None]
                          * crack._volumes()))
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
    The crack column needs an interior face on axis 0: plan[0] >= 2.
    """
    s = stretch_datum(t, n).state(plan, omega_lo, omega_hi)
    if s.plan_shape[0] < 2:
        raise ValueError("plan needs at least 2 cells on axis 0 for the crack column")
    lo, hi = float(omega_lo[0]), float(omega_hi[0])
    x = s.plan_points()[..., 0]
    xc = lo + 0.5 * (hi - lo)
    s.ubar[..., 0] += np.where(x > xc, 1.0, 0.0)
    # crack column at the grid face nearest to xc
    j = int(round((xc - lo) / s.plan_h[0])) - 1
    s.crack_cols[0][min(max(j, 0), s.plan_shape[0] - 2)] = True
    return s


# pointwise error above which `approximate_experiment` counts a sample as exceeding
_EXCEED_TOL = 1e-3


def _miss_axes(vk, axes, x0, nu) -> list:
    """The coordinates of each of `axes` whose cell lies in that axis's
    projection of the cubes where `vk` can miss the test field of
    `approximate_experiment`: the bad cubes and the cubes the plane through
    x0 with normal nu crosses.  A cell outside the cube window is kept.

    In any other cube the field is x_1 + c on all 2^n corners, by more than
    the slack on one side of the plane, and 0 in the other components; the
    interpolant reproduces it to a few ulp, far below _EXCEED_TOL.  Where the
    coordinates are too large for that bound, every coordinate is kept.
    """
    from .interpolation import _locate_axis

    s, c = vk.source, vk.classification
    n, shape = s.grid.n, c.bad_mask.shape
    # the cube corners of each axis, as `sample` computes them
    corners = [s.grid.h * (np.arange(c.zmin[a], c.zmin[a] + shape[a] + 1) + s.grid.offset[a])
               for a in range(n)]
    scale = 1.0 + max(float(np.max(np.abs(np.concatenate(corners)))),
                      float(np.max(np.abs(x0))))
    # the interpolant's rounding, a few ulp of scale, with a wide margin
    if 2.0 ** 10 * np.finfo(float).eps * scale >= _EXCEED_TOL:
        return axes
    slack = 1e-9 * scale
    # the signed distance to the plane is a sum over the axes, so its extremes
    # over a cube's corners are sums of per-axis extremes
    d = [((x - x0[a]) * nu[a]).reshape((-1,) + (1,) * (n - 1 - a))
         for a, x in enumerate(corners)]
    dmin = sum(np.minimum(t[:-1], t[1:]) for t in d)
    dmax = sum(np.maximum(t[:-1], t[1:]) for t in d)
    can_miss = c.bad_mask | ((dmin <= slack) & (dmax >= -slack))
    kept = []
    for a, x in enumerate(axes):
        # a layer of True around the projection stands for every cell outside it
        proj = np.pad(np.any(can_miss, axis=tuple(b for b in range(n) if b != a)), 1,
                      constant_values=True)
        cell = _locate_axis(s, a, x)[0] - c.zmin[a] + 1
        kept.append(x[proj[np.clip(cell, 0, shape[a] + 1)]])
    return kept


def approximate_experiment(crack: CrackSurface, h_list, lo, hi) -> list:
    """Approximant accuracy for a piecewise-affine field jumping across the crack.

    The test field is (x_1, 0, ...) plus a unit jump of the first component
    across the plane of the crack's first simplex.  Reports the measure of
    the points where the approximant misses the field by more than _EXCEED_TOL,
    counted on a fine midpoint grid.  Only the midpoints in cubes where the
    approximant can miss are evaluated (see `_miss_axes`): on each axis, those
    whose cell projects onto a bad cube or a cube the plane crosses.  Every
    other midpoint lies in a cube where the field is affine, which the
    interpolant reproduces to rounding.  A plane that is not axis-aligned
    crosses cubes in every row and column, so it keeps every midpoint.
    """
    from .interpolation import build_approximant

    if crack.m == 0:
        raise ValueError("crack has no simplices: the test field needs the plane "
                         "of its first simplex")
    n = crack.n
    s0 = crack.simplices[0]
    nu = crack.normals[0]
    x0 = s0.mean(axis=0)

    def beyond(coords):  # one array per axis; elementwise, so on the plane is 0
        return sum((x - x0[a]) * nu[a] for a, x in enumerate(coords)) > 0.0

    def v(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], n))
        out[:, 0] = X[:, 0] + beyond(X.T)
        return out

    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    rows = []
    for h in h_list:
        grid = ShiftedGrid(n, h, (0.0,) * n, tuple(lo), tuple(hi))
        margin = 2 * n * h
        V = (tuple(lo + margin), tuple(hi - margin))
        vk = build_approximant(v, grid, crack, V)
        # measure of {|v_k - v| > _EXCEED_TOL} by midpoint sampling on a fine grid
        m = 4 * int(round((hi[0] - lo[0]) / h))
        axes = _miss_axes(vk, [np.linspace(V[0][a], V[1][a], m, endpoint=False)
                               + (V[1][a] - V[0][a]) / (2 * m) for a in range(n)], x0, nu)
        misses = 0
        for block, vals in vk.blocks(axes):
            # v on the block, broadcast from its axes: x_1 plus the jump in
            # component 0, zero in the others
            grid_axes = np.ix_(axes[0][block], *axes[1:])
            exceed = np.abs(vals[..., 0] - (grid_axes[0] + beyond(grid_axes))) > _EXCEED_TOL
            for c in range(1, n):
                exceed |= np.abs(vals[..., c]) > _EXCEED_TOL
            misses += int(np.count_nonzero(exceed))
        cellvol = float(np.prod([(V[1][a] - V[0][a]) / m for a in range(n)]))
        bad_measure = float(misses) * cellvol
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
        if (not r or not all(0.0 < x < np.inf for x in r)
                or any(r[i] <= r[i + 1] for i in range(len(r) - 1))):
            raise ValueError("rho list must be nonempty, positive, finite "
                             "and strictly decreasing")
        if not 0.0 < self.h < np.inf:
            raise ValueError("grid spacing h must be positive and finite")
        if not np.isfinite(self.stretch):
            raise ValueError("stretch must be finite")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.n not in (2, 3):
            raise ValueError("dimension n must be 2 or 3")
        if not self.plan or min(self.plan) < 1:
            raise ValueError("plan must be nonempty with every entry at least 1")
        lo = np.asarray(self.omega_lo, dtype=float)
        hi = np.asarray(self.omega_hi, dtype=float)
        if (lo.size == 0 or lo.shape != hi.shape
                or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))):
            raise ValueError("omega_lo and omega_hi must be finite, of one "
                             "nonzero length, with omega_lo < omega_hi")
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        if not validate_lame(self.lame):
            raise ValueError("Lame parameters must be finite with mu > 0 "
                             "and 2 mu + n lam > 0")

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


def _tuple_of(conv):
    return lambda val: tuple(conv(t) for t in val.replace(",", " ").split())


# how each config key's string value converts to its ExperimentConfig field
_CONVERT = {"n": int, "layers": int, "seed": int, "samples": int,
            "h": float, "lam": float, "mu": float, "stretch": float,
            "omega_lo": _tuple_of(float), "omega_hi": _tuple_of(float),
            "rho_list": _tuple_of(float), "plan": _tuple_of(int),
            "crack_path": str, "out": str}


def config_from_mapping(m: dict) -> ExperimentConfig:
    """An ExperimentConfig from string values, each converted and then validated."""
    values = {}
    for key, val in m.items():
        if key not in _CONVERT:
            raise ValueError(f"unknown config key: {key}")
        try:
            values[key] = _CONVERT[key](val)
        except ValueError:
            raise ValueError(f"invalid {key}: {val!r}") from None
    return ExperimentConfig(**values)


def write_rows(rows: list, f) -> None:
    """CSV rows to an open text file: header from the first row, LF endings, repr floats."""
    if not rows:
        raise ValueError("no rows to write")
    w = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow({k: (repr(float(v)) if isinstance(v, float) else v)
                    for k, v in r.items()})


def write_csv(rows: list, path) -> None:
    """Atomic `write_rows` to path, through a temporary file in the same
    directory that no failure leaves behind; an error making, writing or
    renaming that file is an OSError naming path."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".csv.tmp")
        with os.fdopen(fd, "w", newline="\n") as f:
            write_rows(rows, f)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
