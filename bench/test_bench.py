"""Tests of the benchmark itself: output format, oracles, tracing hygiene.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer, targets
from workloads import WORKLOADS, Checks, direction_oracle, lattice_plane_jump

BENCH = Path(__file__).resolve().parent
M = run.import_platelab()


def _run(*argv, cwd=None):
    proc = subprocess.run([sys.executable, str(Path(cwd or run.ROOT) / "bench" / "run.py"),
                           *argv], capture_output=True, text=True, timeout=170,
                          cwd=cwd or run.ROOT)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(table)
    for name, m in result["metrics"].items():
        assert m["unit"] == table[name][0]
        assert math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in table)


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _originals():
    import scipy.sparse.linalg as spla
    return spla, [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
                  for owner, attr, *_ in targets(M, spla)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_restores_every_wrapped_name(workload):
    spla, saved = _originals()
    splu, cg = spla.splu, spla.cg
    w = WORKLOADS[workload]
    inp = w.setup(M, 3, "tiny")
    checks = Checks()
    tracer = Tracer()
    with tracer.installed(M, spla):
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in saved)
        checks.tracer = tracer
        w.run(M, inp, checks)
    assert checks.failed == 0, checks.failures()
    assert tracer.spans and all(s[5] is not None for s in tracer.spans)
    for owner, attr, orig in saved:
        assert getattr(owner, attr) is orig, (owner, attr)
    assert M.minimize.limit_energy is M.energy.limit_energy
    assert M.geometry.segments_hit_crack is M.interpolation.segments_hit_crack
    assert M.lab.minimize_limit is M.minimize.minimize_limit
    assert spla.splu is splu and spla.cg is cg


def test_wrappers_are_removed_when_a_pass_raises():
    spla, saved = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed(M, spla):
            raise RuntimeError("pass failed")
    for owner, attr, orig in saved:
        assert getattr(owner, attr) is orig, (owner, attr)


def test_self_time_and_counts_of_a_traced_search():
    spla, _ = _originals()
    inp = WORKLOADS["film_search"].setup(M, 0, "tiny")
    tracer = Tracer()
    with tracer.installed(M, spla):
        start = tracer.mark()
        WORKLOADS["film_search"].run(M, inp, Checks())
    m = tracer.pass_metrics(start, wall_s=10.0)
    # minimize_limit and alternate_minimize on an 8-cell plan: 7 columns and
    # 2 sides per round, two rounds each (one accepted break, then none)
    assert m["minimize.search_calls"] == 2
    assert m["minimize.offered"] == 2 * (9 + 8)
    assert m["minimize.candidates"] == m["minimize.evals"] - 2
    assert m["minimize.pruned"] == m["minimize.offered"] - m["minimize.candidates"]
    assert m["minimize.cg_calls"] == 0  # 8 x 4 cells: direct solves only
    assert m["trace.attributed_s"] + m["trace.unattributed_s"] == pytest.approx(10.0)
    layers = sum(m[k] for k in ("minimize.self_s", "energy.s", "kirchhoff_love.s",
                                "elasticity.s", "lab.self_s"))
    linalg = m["minimize.cg_s"] + m["minimize.factor_s"] + m["minimize.trisolve_s"]
    assert layers + linalg == pytest.approx(m["trace.attributed_s"], rel=1e-9)


def test_direction_oracle_closed_forms():
    vert = M.geometry.axis_plane_crack(2, 0, 0.5, ((0.0, 1.0),))
    assert direction_oracle(vert.simplices) == pytest.approx(1.0 + 3.0 / np.sqrt(2.0))
    flat = M.geometry.axis_plane_crack(3, 0, 0.5, ((0.0, 1.0), (0.0, 1.0)))
    assert direction_oracle(flat.simplices) == pytest.approx(1.0 + 6.0 / np.sqrt(2.0))


@pytest.mark.parametrize("h", [1.0 / 4, 1.0 / 8])
@pytest.mark.parametrize("extent", [(0.0, 1.0), (0.25, 0.75)])
def test_lattice_plane_jump_matches_the_program(h, extent):
    a, b = extent
    crack = M.geometry.axis_plane_crack(3, 0, 0.5, ((a, b), (a, b)))
    grid = M.geometry.ShiftedGrid(3, h, (0.0,) * 3, (0.0,) * 3, (1.0,) * 3)
    k = int(round(1.0 / h))
    exact = lattice_plane_jump(grid, 0, k // 2, int(round(a * k)), int(round(b * k)))
    assert exact == pytest.approx(M.geometry.discrete_jump_energy(grid, crack),
                                  rel=1e-12)


def test_bare_directory_exits_without_a_result():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        proc = _run("--workload", "approximant", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
