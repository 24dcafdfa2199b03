"""A fixed reference kernel that gauges how fast the machine is at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes, and a pure-Python loop and a sparse LU slow down
together.  So ``run.py`` times this kernel in short pieces right before and
after each unit of work and divides the unit's wall time by the median piece
time around it, which cancels most of that drift.

The kernel does not use sif_lab, so a change to the package cannot move it.
One piece mixes the three kinds of work the workloads do, each a third or so
of the piece: a sparse LU (``fem.factor``), an interpreted loop (harness and
extraction glue, quadrature set-up) and vectorised numpy (mode and functional
evaluation).  Adding a larger, out-of-cache LU or a memory-streaming part did
not make the ratio steadier on any workload.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

GRID = 50            # 2-D Laplacian on a GRID x GRID grid: 2500 unknowns
LOOP = 100_000       # iterations of the interpreted loop
VEC = 20_000         # length of the numpy vectors
VEC_REPS = 4
WARMUP_S = 0.3


class Reference:
    def __init__(self):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.eye(GRID)
        self.A = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self.x = np.random.default_rng(20240906).standard_normal(VEC)
        self.sample(WARMUP_S)  # imports, allocator, caches; first pieces run slow

    def piece(self) -> float:
        """Seconds one piece of the kernel takes now."""
        t0 = time.perf_counter()
        splu(self.A)
        s = 0.0
        for i in range(LOOP):
            s += i * 0.5
        x = self.x
        for _ in range(VEC_REPS):
            np.sin(x) * np.cos(x) + np.exp(-x * x)
        return time.perf_counter() - t0

    def sample(self, seconds: float) -> list[float]:
        """Piece times, at least one, until about `seconds` have gone by."""
        times = [self.piece()]
        while sum(times) < seconds:
            times.append(self.piece())
        return times
