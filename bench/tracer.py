"""Span tracing for the benchmark's traced run, from outside the program.

``Tracer.installed()`` replaces the module-level names through which one
platelab layer calls another (``minimize.limit_energy``,
``geometry.segments_hit_crack`` and ``interpolation.segments_hit_crack``,
``scipy.sparse.linalg.splu`` ...) with timing wrappers, and puts every
original back on exit.  Each wrapped call is one span (name, layer,
parent, item, start, end), kept in memory and written out at the end.
Layer self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter

import numpy as np

def _search_shape(bound, limit: bool):
    """(columns, sides) a crack-search round can offer on an empty crack."""
    args = bound.arguments
    shape = tuple(args["plan_shape"] if limit else args["grid"].plan_shape)
    cols = sum(int(np.prod([s - (a == b) for b, s in enumerate(shape)]))
               for a in range(len(shape)))
    return cols, 2 * len(shape)


def _count_search(limit: bool):
    """Count rounds, cap hits and offered candidates from a returned trace.

    Each accepted round breaks one column or releases one side, so round k
    (from 0) offers columns + sides - k candidates.
    """
    def hook(counts, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        cap = bound.arguments["cfg"].altmin_max_rounds
        cols, sides = _search_shape(bound, limit)
        accepted = len(result[3]) - 1
        rounds = min(accepted + 1, cap)
        counts["search_calls"] += 1
        counts["rounds"] += rounds
        counts["round_cap_hits"] += int(accepted == cap)
        counts["offered"] += sum(cols + sides - k for k in range(rounds))
    return hook


def _count(key: str):
    def hook(counts, fn, args, kwargs, result):
        counts[key] += 1
    return hook


def _count_kernel(counts, fn, args, kwargs, result):
    P = np.atleast_2d(np.asarray(args[0]))
    crack = args[2] if len(args) > 2 else kwargs["crack"]
    counts["queries"] += P.shape[0]
    counts["pair_tests"] += P.shape[0] * crack.m
    counts["hits"] += int(np.count_nonzero(result))


def _count_classify(counts, fn, args, kwargs, result):
    counts["cubes"] += int(result.bad_mask.size)
    counts["bad_cubes"] += result.num_bad


def _count_eval(counts, fn, args, kwargs, result):
    counts["eval_points"] += int(np.atleast_2d(np.asarray(args[1])).shape[0])


def targets(M, spla) -> list:
    """(owner, attribute, layer, span name, count hook) per wrapped name.

    The owner is the module (or class) whose namespace the caller resolves
    the name in, so a layer is timed where another layer calls into it.
    """
    t = []

    def add(owners, names, layer, hook=None, span=None):
        for owner in owners:
            for name in names:
                t.append((owner, name, layer, span or f"{layer}.{name}", hook))

    add([M.lab, M.minimize], ["minimize_limit"], "minimize", _count_search(True))
    add([M.lab], ["alternate_minimize"], "minimize", _count_search(False))
    add([M.minimize], ["_reduced_solve", "elastic_solve"], "minimize", _count("evals"))
    add([spla], ["splu"], "linalg", span="linalg.factor")
    add([spla], ["cg"], "linalg", span="linalg.cg")
    add([M.minimize], ["limit_energy", "boundary_penalty", "penalized_energies"],
        "energy")
    add([M.lab], ["limit_energy", "penalized_energies", "rescaled_energy",
                  "compactness_check", "boundary_penalty"], "energy")
    add([M.minimize], ["reduced_gradient", "_face_blocked", "_empty_breaks"],
        "kirchhoff_love")
    add([M.energy], ["cell_derivative", "cell_strains", "kl_lift"], "kirchhoff_love")
    add([M.lab], ["kl_lift", "cell_derivative"], "kirchhoff_love")
    add([M.minimize, M.energy], ["quadratic_form_C", "quadratic_form_C0"],
        "elasticity", _count("form_evals"))
    add([M.minimize], ["rescale_strain"], "elasticity")
    add([M.energy], ["phi_rho", "validate_lame"], "elasticity")
    add([M.geometry, M.interpolation], ["segments_hit_crack"], "geometry",
        _count_kernel)
    add([M.lab, M.interpolation], ["classify_cubes"], "geometry", _count_classify)
    add([M.lab], ["discrete_jump_energy", "bad_cube_boundary_measure",
                  "projection_measure"], "geometry")
    add([M.interpolation], ["build_approximant", "sample"], "interpolation")
    add([M.interpolation.ApproximantField], ["__call__"], "interpolation",
        _count_eval, span="interpolation.eval")
    add([M.lab], ["minima_sweep", "jump_energy_experiment", "classify_experiment",
                  "approximate_experiment"], "lab")
    return t


class Tracer:
    """In-memory spans and counters of the traced passes."""

    def __init__(self):
        # span: [name, layer, parent index, item, start, end]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._item = None

    def _open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, self._item, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def item(self, item: str):
        """Label the spans of one workload item; the item is a bench span."""
        prev, self._item = self._item, item
        sid = self._open("bench.item", "bench")
        try:
            yield
        finally:
            self._close(sid)
            self._item = prev

    def wrap(self, fn, layer: str, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                hook(tracer.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_splu(self, fn):
        tracer = self
        wrapped = self.wrap(fn, "linalg", "linalg.factor", _count("factor_calls"))

        class _Factor:
            """The SuperLU object with a timed ``solve``."""

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                sid = tracer._open("linalg.trisolve", "linalg")
                try:
                    return self._lu.solve(*args, **kwargs)
                finally:
                    tracer._close(sid)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        @functools.wraps(fn)
        def splu(*args, **kwargs):
            return _Factor(wrapped(*args, **kwargs))

        return splu

    def _wrap_cg(self, fn):
        def count_call(counts, fn_, args, kwargs, result):
            counts["cg_calls"] += 1
            counts["cg_fails"] += int(result[1] != 0)

        wrapped = self.wrap(fn, "linalg", "linalg.cg", count_call)
        counts = self.counts

        @functools.wraps(fn)
        def cg(*args, callback=None, **kwargs):
            def count_iteration(xk):  # counts only; the solve is unchanged
                counts["cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return wrapped(*args, callback=count_iteration, **kwargs)

        return cg

    @contextlib.contextmanager
    def installed(self, M, spla):
        """Wrap every target name; restore the original objects on exit."""
        saved = []
        try:
            for owner, attr, layer, name, hook in targets(M, spla):
                orig = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
                if name == "linalg.factor":
                    wrapper = self._wrap_splu(orig)
                elif name == "linalg.cg":
                    wrapper = self._wrap_cg(orig)
                else:
                    wrapper = self.wrap(orig, layer, name, hook)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def mark(self) -> tuple:
        """Position to measure one pass from: (span index, counter copy)."""
        return len(self.spans), Counter(self.counts)

    def pass_metrics(self, start: tuple, wall_s: float) -> dict:
        """Per-layer metrics of the spans and counts recorded since ``start``."""
        first, counts0 = start
        spans = self.spans[first:]
        c = Counter(self.counts)
        c.subtract(counts0)
        dur = [s[5] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] >= first:
                child[s[2] - first] += dur[i]
        self_by_layer = Counter()
        total_by_name = Counter()
        calls_by_layer = Counter()
        for i, s in enumerate(spans):
            self_by_layer[s[1]] += dur[i] - child[i]
            total_by_name[s[0]] += dur[i]
            calls_by_layer[s[1]] += 1
        attributed = sum(v for k, v in self_by_layer.items() if k != "bench")
        return layer_metrics(c, self_by_layer, total_by_name, calls_by_layer,
                             wall_s, attributed, len(spans))

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span's start."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, layer, parent, item, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "layer": layer,
                                    "parent": parent, "item": item,
                                    "start": start - t0, "end": end - t0}) + "\n")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(c, self_s, total_s, calls, wall_s, attributed, nspans) -> dict:
    candidates = c["evals"] - c["search_calls"]  # the first solve is no candidate
    pruned = c["offered"] - candidates
    m = {
        "minimize.self_s": self_s["minimize"],
        "minimize.search_calls": c["search_calls"],
        "minimize.evals": c["evals"],
        "minimize.candidates": candidates,
        "minimize.offered": c["offered"],
        "minimize.pruned": pruned,
        "minimize.prune_frac": _ratio(pruned, c["offered"]),
        "minimize.rounds": c["rounds"],
        "minimize.round_cap_hits": c["round_cap_hits"],
        "minimize.cg_calls": c["cg_calls"],
        "minimize.cg_iters": c["cg_iters"],
        "minimize.cg_s": total_s["linalg.cg"],
        "minimize.cg_fails": c["cg_fails"],
        "minimize.cg_fail_frac": _ratio(c["cg_fails"], c["cg_calls"]),
        "minimize.factor_calls": c["factor_calls"],
        "minimize.factor_s": total_s["linalg.factor"],
        "minimize.trisolve_s": total_s["linalg.trisolve"],
        "energy.calls": calls["energy"],
        "energy.s": self_s["energy"],
        "kirchhoff_love.calls": calls["kirchhoff_love"],
        "kirchhoff_love.s": self_s["kirchhoff_love"],
        "elasticity.form_evals": c["form_evals"],
        "elasticity.s": self_s["elasticity"],
        "geometry.kernel_s": total_s["geometry.segments_hit_crack"],
        "geometry.queries": c["queries"],
        "geometry.pair_tests": c["pair_tests"],
        "geometry.hits": c["hits"],
        "geometry.hit_frac": _ratio(c["hits"], c["queries"]),
        "geometry.cubes": c["cubes"],
        "geometry.bad_cubes": c["bad_cubes"],
        "geometry.bad_frac": _ratio(c["bad_cubes"], c["cubes"]),
        "geometry.classify_s": total_s["geometry.classify_cubes"],
        "geometry.jump_s": total_s["geometry.discrete_jump_energy"],
        "geometry.self_s": self_s["geometry"],
        "interpolation.eval_points": c["eval_points"],
        "interpolation.eval_s": total_s["interpolation.eval"],
        "interpolation.build_s": total_s["interpolation.build_approximant"],
        "interpolation.sample_s": total_s["interpolation.sample"],
        "interpolation.self_s": self_s["interpolation"],
        "lab.self_s": self_s["lab"],
        "trace.spans": nspans,
        "trace.traced_wall_s": wall_s,
        "trace.attributed_s": attributed,
        "trace.unattributed_s": wall_s - attributed,
        "trace.unattributed_frac": _ratio(wall_s - attributed, wall_s),
    }
    return m
