"""The benchmark's workloads: input construction, one checked pass, oracles.

A pass calls platelab through module attributes (``M.lab.minima_sweep``),
never through names bound at import, so that the traced run's wrappers
see every call.  Every output is checked against a closed-form oracle at
the tolerance of the acceptance tests (tests/test_acceptance.py ac2, ac4,
ac5, ac7) and of tests/test_minimize.py.

Sizes are chosen so that one pass takes a few seconds on a 2-core machine
and a run of ``run_seconds`` holds several passes; README.md gives the
reasons per workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0


class Checks:
    """Oracle outcomes of the passes of a run.

    Each entry is (name, ok, detail).  A program call that raises is one
    failed entry, so ``failed / attempted`` is the workload's fail_frac.
    """

    def __init__(self):
        self.results = []
        self.tracer = None

    def call(self, item: str, fn, *args, **kwargs):
        """Run one program call as workload item ``item``; None if it raised."""
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.item(item):
                return fn(*args, **kwargs)
        except Exception as exc:  # the item failed; the run goes on measuring
            self.results.append((item, False, f"raised {type(exc).__name__}: {exc}"))
            return None

    def check(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list:
        return [r for r in self.results if not r[1]]


def _rel_ok(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# ---------------------------------------------------------------------------
# limit_crossover: minimize_limit on both sides of the switch t = sqrt(3)/2


def _setup_limit_crossover(M, seed: int, size: str) -> dict:
    return {
        "plan": (128,) if size == "full" else (32,),
        "p": M.elasticity.LameParams(1.0, 1.0, 2),
        "cfg": M.minimize.SolverConfig(),
        "data": [(t, M.energy.stretch_datum(t, 2))
                 for t in (0.5 + 0.1 * k for k in range(8))],
    }


def _run_limit_crossover(M, inp: dict, checks: Checks) -> None:
    states = []
    for t, g in inp["data"]:
        out = checks.call(f"t={t:.2f}", M.minimize.minimize_limit, inp["plan"],
                          (0.0,), (1.0,), g, inp["p"], inp["cfg"])
        if out is None:
            states.append(None)
            continue
        _, cracks, e, _ = out
        # elastic branch (4/3) t^2 against one clean break of cost 1
        ref = min(4.0 / 3.0 * t * t, 1.0)
        checks.check(f"energy t={t:.2f}", _rel_ok(e.total, ref, 0.02),
                      f"total {e.total!r}, closed form {ref!r}")
        states.append(bool(np.any(cracks.broken[0]) or cracks.released))
    ts = [t for t, _ in inp["data"]]
    if None in states:
        checks.check("single flip", False, "an item raised")
        return
    flips = [i for i in range(len(states) - 1) if states[i] != states[i + 1]]
    ok = len(flips) == 1 and not states[0] and states[-1]
    if ok:
        t_switch = 0.5 * (ts[flips[0]] + ts[flips[0] + 1])
        ok = abs(t_switch - SQRT3_2) <= 0.05 * SQRT3_2
    checks.check("single flip", ok, f"cracked states {states}")


# ---------------------------------------------------------------------------
# film_search: lab.minima_sweep, the path of `platelab sweep`


def _setup_film_search(M, seed: int, size: str) -> dict:
    # full: 2 * 64 * 30 = 3840 free dofs, above the 3000-dof direct threshold
    plan, layers = ((32,), 64) if size == "full" else ((8,), 4)
    return {
        "plan": plan,
        "layers": layers,
        "rho": [0.1],
        "p": M.elasticity.LameParams(1.0, 1.0, 2),
        "cfg": M.minimize.SolverConfig(),
        "g": M.energy.stretch_datum(1.2, 2),
    }


def _run_film_search(M, inp: dict, checks: Checks) -> None:
    rows = checks.call("sweep t=1.2", M.lab.minima_sweep, inp["g"], inp["p"],
                       inp["rho"], inp["plan"], (0.0,), (1.0,),
                       layers=inp["layers"], cfg=inp["cfg"])
    if rows is None:
        return
    # ac4 bounds; the face area is that of the largest single face
    face_area = max(1.0 / inp["layers"], 1.0 / inp["plan"][0])
    checks.check("rel_gap", rows[-1]["rel_gap"] <= 0.05,
                 f"rel_gap {rows[-1]['rel_gap']!r}")
    for r in rows:
        checks.check(f"surface_gap rho={r['rho']}",
                     r["surface_gap"] <= face_area + 1e-12,
                     f"surface_gap {r['surface_gap']!r}, face {face_area!r}")


# ---------------------------------------------------------------------------
# lattice_mc: Monte Carlo over grid offsets (2D arc) and 3D classification


def _directions(n: int) -> np.ndarray:
    """Lattice directions e_i and e_i +- e_j (i != j), without repeats."""
    out = set()
    for i in range(n):
        e = np.zeros(n, dtype=int)
        e[i] = 1
        out.add(tuple(e))
        for j in range(n):
            if j != i:
                for s in (1, -1):
                    v = e.copy()
                    v[j] += s
                    out.add(tuple(v))
    return np.array(sorted(out))


def direction_oracle(simplices: np.ndarray) -> float:
    """Offset average of the discrete jump energy of a flat-piece crack:
    sum over simplices and lattice directions e of |e.nu| / |e| * measure."""
    n = simplices.shape[2]
    if n == 2:
        d = simplices[:, 1] - simplices[:, 0]
        nu = np.stack([-d[:, 1], d[:, 0]], axis=1)
        vol = np.linalg.norm(d, axis=1)
    else:
        nu = np.cross(simplices[:, 1] - simplices[:, 0],
                      simplices[:, 2] - simplices[:, 0])
        vol = 0.5 * np.linalg.norm(nu, axis=1)
    nu = nu / np.linalg.norm(nu, axis=1)[:, None]
    E = _directions(n).astype(float)
    w = np.abs(nu @ E.T) / np.linalg.norm(E, axis=1)
    return float(np.sum(w * vol[:, None]))


def lattice_plane_jump(grid, axis: int, c: int, lo: int, hi: int) -> float:
    """Exact discrete jump energy of the plane piece {x_axis = c h, other
    coordinates in [lo h, hi h]} on the unshifted lattice.

    Lattice segments [z, z + e] have integer ends, so one meets the plane
    piece exactly when an end lies on it, or, for e_axis = 0, when an end
    lies in it (closed sets, as in the program's convention).
    """
    Z = grid.cube_indices()
    others = [a for a in range(grid.n) if a != axis]

    def in_piece(W):
        return (W[:, axis] == c) & np.all((W[:, others] >= lo)
                                           & (W[:, others] <= hi), axis=1)

    total = 0.0
    for e in _directions(grid.n):
        hit = in_piece(Z) | in_piece(Z + e)
        total += np.count_nonzero(hit) / (grid.h * np.linalg.norm(e))
    return float(grid.h ** grid.n * total)


def _arc(M, m: int):
    """m-segment circular arc, center (0.5, 0.5), radius 0.3, upper half."""
    th = np.linspace(0.0, math.pi, m + 1)
    pts = np.stack([0.5 + 0.3 * np.cos(th), 0.5 + 0.3 * np.sin(th)], axis=-1)
    return M.geometry.CrackSurface(np.stack([pts[:-1], pts[1:]], axis=1))


def _setup_lattice_mc(M, seed: int, size: str) -> dict:
    s_arc, s_flat = np.random.SeedSequence(seed).generate_state(2)
    full = size == "full"
    return {
        "arc": _arc(M, 64 if full else 16),
        "h2": 1.0 / 64 if full else 1.0 / 32,
        "offsets": 4 if full else 2,
        "seed_arc": int(s_arc),
        "flat": M.geometry.axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0))),
        "h3": 1.0 / 16,
        "samples3": 2,
        "seed_flat": int(s_flat),
    }


def _run_lattice_mc(M, inp: dict, checks: Checks) -> None:
    arc = inp["arc"]
    rows = checks.call("arc mc", M.lab.jump_energy_experiment, arc, inp["h2"],
                       (0.0, 0.0), (1.0, 1.0), samples=inp["offsets"],
                       seed=inp["seed_arc"])
    oracle = direction_oracle(arc.simplices)
    if rows is not None:
        checks.check("arc oracle", _rel_ok(rows[0]["oracle"], oracle, 1e-12),
                     f"{rows[0]['oracle']!r} vs {oracle!r}")
        mean = rows[-1]["jump_energy"]
        checks.check("arc mc mean", _rel_ok(mean, oracle, 0.03),
                     f"mean {mean!r}, oracle {oracle!r}")

    flat, h = inp["flat"], inp["h3"]
    lo3, hi3 = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    rows = checks.call("flat3d classify", M.lab.classify_experiment, flat, h,
                       lo3, hi3, seed=inp["seed_flat"], samples=inp["samples3"])
    if rows is None:
        return
    # sample 0 sits at offset 0, with lattice points on the crack plane
    k = int(round(1.0 / h))
    exact = lattice_plane_jump(M.geometry.ShiftedGrid(3, h, (0.0,) * 3, lo3, hi3),
                               0, k // 2, 0, k)
    checks.check("flat3d offset 0", _rel_ok(rows[0]["jump_energy"], exact, 1e-9),
                 f"{rows[0]['jump_energy']!r} vs exact {exact!r}")
    oracle = direction_oracle(flat.simplices)
    mean = float(np.mean([r["jump_energy"] for r in rows[1:]]))
    checks.check("flat3d mc mean", _rel_ok(mean, oracle, 0.03),
                 f"mean {mean!r}, oracle {oracle!r}")


# ---------------------------------------------------------------------------
# approximant: lab.approximate_experiment on the vertical crack


def _setup_approximant(M, seed: int, size: str) -> dict:
    return {
        "crack": M.geometry.axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),)),
        "hs": ([1.0 / 32, 1.0 / 64, 1.0 / 128] if size == "full"
               else [1.0 / 64, 1.0 / 128]),
    }


def _run_approximant(M, inp: dict, checks: Checks) -> None:
    rows = checks.call("approximate", M.lab.approximate_experiment,
                       inp["crack"], inp["hs"], (-0.5, -0.5), (1.5, 1.5))
    if rows is None:
        return
    fracs = [r["exceed_fraction"] for r in rows]
    for i in range(1, len(fracs)):  # ac7: no increase as h halves
        checks.check(f"exceed h={rows[i]['h']!r}", fracs[i] <= fracs[i - 1] + 1e-12,
                     f"{fracs[i]!r} after {fracs[i - 1]!r}")
    checks.check("exceed at finest h", fracs[-1] < 0.01, f"{fracs[-1]!r}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (M, seed, size) -> inputs
    run: Callable  # (M, inputs, checks) -> None
    seeded: bool  # False: the seed is ignored


WORKLOADS = {w.name: w for w in (
    Workload("limit_crossover", _setup_limit_crossover, _run_limit_crossover, False),
    Workload("film_search", _setup_film_search, _run_film_search, False),
    Workload("lattice_mc", _setup_lattice_mc, _run_lattice_mc, True),
    Workload("approximant", _setup_approximant, _run_approximant, False),
)}
