"""A fixed probe of how fast the machine runs right now.

The benchmark runs on a few cores of a shared host.  Identical invocations of
mona there take up to twice as long in one minute as in the next, and their
process CPU time moves with their wall time, so a median over one run still
carries the host's state.  ``probe`` does a fixed amount of work that
resembles mona's: sparse LU factorisations (SuperLU, as in mona's factor
layer), small dense numpy products and a plain Python loop.  It calls numpy
and scipy only, never mona, so no change to mona moves it.

Each part of a timed run probes before its first invocation and after every
invocation.  The part's times are multiplied by ``REFERENCE_S`` over the mean
of its probes: they become seconds at the host speed at which the probe takes
``REFERENCE_S``.  The mean over the whole part is steadier than the two
probes next to an invocation, because one probe catches the host in a single
state while an invocation spans several.  A change to mona moves the
invocations and not the probe, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median probe time on the machine of the README's baseline (2 shared vCPUs,
# Intel Xeon, 2.1 GHz; Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 0.2

GRID = 64             # 4096 unknowns, about mona's fine mesh
LU_REPEATS = 6
MATVEC_SIZE = 200
MATVEC_REPEATS = 6000
LOOP_ITERATIONS = 600_000


def _operands():
    line = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(GRID, GRID))
    eye = sp.eye_array(GRID)
    laplacian = sp.kron(line, eye) + sp.kron(eye, line) + 0.01 * sp.eye_array(GRID * GRID)
    rng = np.random.default_rng(0)
    return (laplacian.tocsc(), rng.standard_normal((MATVEC_SIZE, MATVEC_SIZE)),
            rng.standard_normal(MATVEC_SIZE))


_LAPLACIAN, _MATRIX, _VECTOR = _operands()


def probe() -> float:
    """Wall time of the fixed work, in seconds."""
    t0 = time.perf_counter()
    for _ in range(LU_REPEATS):
        spla.splu(_LAPLACIAN)
    for _ in range(MATVEC_REPEATS):
        _MATRIX @ _VECTOR + 2.0 * _VECTOR
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0


def scale(probes: list) -> float:
    """Factor that brings times measured among ``probes`` to the reference speed."""
    return REFERENCE_S * len(probes) / sum(probes)
