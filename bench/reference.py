"""A fixed reference computation that gauges the machine's current speed.

On a shared virtual machine the speed of a core drifts with the load of
other tenants. Over minutes it varied by up to 3x on the baseline machine,
and work that ran close together was slowed alike. ``wall_s`` and
``setup_s`` are therefore stated at a reference speed: each raw time is
multiplied by REF_S / t_ref, where t_ref is the time of ``reference_s()``
measured next to it in the same process. The computation is the
benchmark's own code on numpy and scipy. A change to platelab therefore
moves a scaled time by the same factor as the raw one.

The four parts take similar times and mirror the kinds of work the
workloads do: interpreter loops, many small numpy operations, sparse
assembly with a factorization, and streaming over arrays larger than L2.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median of reference_s() on the baseline machine (README.md).
REF_S = 0.2

_SMALL = np.linspace(0.0, 1.0, 512)
_LARGE = np.linspace(0.0, 1.0, 500_000)
_N = 36
_L1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))


def _interpreter() -> int:
    s, d = 0, {}
    for i in range(150_000):
        s += i * i % 7
        d[i & 255] = s
    return s


def _small_arrays() -> np.ndarray:
    x = _SMALL
    for _ in range(1200):
        y = np.where(x > 0.5, np.roll(x, 1), x * 2.0) + 1.0
    return y


def _sparse() -> np.ndarray:
    eye = sp.identity(_N)
    A = (sp.kron(eye, _L1) + sp.kron(_L1, eye)).tocsr()
    K = (A.T @ (A @ A)).tocsc() + sp.identity(_N * _N, format="csc")
    return spla.splu(K).solve(np.ones(_N * _N))


def _streaming() -> np.ndarray:
    for _ in range(30):
        z = _LARGE * 1.5 + _LARGE
    return z


def reference_s() -> float:
    """Seconds the reference computation takes now (two rounds of each part)."""
    t0 = time.perf_counter()
    for _ in range(2):
        _interpreter()
        _small_arrays()
        _sparse()
        _streaming()
    return time.perf_counter() - t0
