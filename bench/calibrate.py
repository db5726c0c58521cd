"""A fixed kernel whose speed tracks the host's, to take host contention out of timings.

On a shared host, identical code runs at full speed or at about half of
it, in phases of seconds to minutes, and the CPU time slows with the wall
time.  The benchmark therefore times this kernel right before and right
after each invocation of the program, in the same process, and divides
the invocation's speed by the kernel's.  The kernel is the benchmark's
own code, so a change to the program cannot move it; what a change moves
is the ratio.

One iteration does what one time step of the program does on a mesh of
``n_dof`` unknowns, in kind: a dense ``n_dof x 2 n_dof`` product, a few
small vector updates, and Python bookkeeping.  A finer mesh than the
reference one (J=19, 38 unknowns) is timed at both sizes, and its speed is
the geometric mean of the two: its time steps pay the same per-step Python
overhead as the reference mesh and a larger dense product, and contention
slows the two differently.  On ``fine-mesh`` this left a per-invocation
scatter of 0.081 (standard deviation of the log-rate) where the fine
kernel alone left 0.099.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Iterations per second that count as speed 1, by ``n_dof``: about the
#: kernel's rate on a quiet core of the host the benchmark was tuned on
#: (2-core VM, numpy 2.4.6, single-threaded OpenBLAS).  They only set the
#: scale, so they stay fixed: runs to be compared must share them.
REFERENCE = {38: 150_000.0, 640: 3_500.0}

#: Iterations between clock reads.
BATCH = 50


#: Unknowns of the reference mesh, J=19.
COARSE = 38


class Loop:
    """The kernel at one size."""

    def __init__(self, n_dof: int):
        rng = np.random.default_rng(1729)  # fixed: the kernel never depends on the seed
        self.a = rng.standard_normal((n_dof, 2 * n_dof)) / math.sqrt(2 * n_dof)
        self.x = rng.standard_normal(2 * n_dof)
        self.reference = REFERENCE[n_dof]
        self._iterate(BATCH)  # warm: first touches and lazy BLAS set-up

    def _iterate(self, count: int) -> float:
        a, x = self.a, self.x
        acc, last = 0.0, {}
        for i in range(count):
            y = a @ x
            z = 0.5 * y + y[::-1]
            peak = float(np.abs(z).max())
            acc += peak if peak < 1e300 else 0.0
            last["step"] = (i, acc)
        return acc

    def speed(self, seconds: float) -> float:
        """Rate over at least ``seconds`` of wall time, relative to :data:`REFERENCE`."""
        count, t0 = 0, time.perf_counter()
        while True:
            self._iterate(BATCH)
            count += BATCH
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return count / elapsed / self.reference


class Kernel:
    """Host speed for a workload with ``n_dof`` unknowns."""

    def __init__(self, n_dof: int):
        self.loops = [Loop(n) for n in sorted({COARSE, n_dof})]

    def speed(self, seconds: float) -> float:
        """Geometric mean of the loops' speeds, over ``seconds`` in all."""
        share = seconds / len(self.loops)
        return math.exp(sum(math.log(loop.speed(share)) for loop in self.loops) / len(self.loops))
