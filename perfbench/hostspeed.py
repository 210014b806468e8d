"""A fixed reference kernel that measures how fast the host runs right now.

The reference box is a VM on a shared host whose speed drifts by up to 1.7x
over minutes, and a whole run (set-up included) slows or speeds up with it.
The harness times this kernel between units of work and divides each unit's
wall time by the kernel's time beside it, so the reported times read as
"milliseconds at the reference box's speed" and two runs minutes apart are
comparable.

The kernel is NumPy alone, with fixed inputs and preallocated buffers: no
program code runs in it, so a change to the program cannot move it. It is
what the fields spend most of their time on: a 64-wide, four-layer float64
MLP with ReLU masks, forward and backward, over 8192 rows (the sample rows
of one BRI step). perfbench/README.md lists the other kernels tried and how
well each tracked the workloads.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the reference box (2 vCPUs of a shared Xeon
# VM, OpenBLAS, one BLAS thread); a corrected time is wall time scaled by
# REFERENCE_MS over the kernel's time measured next to it
REFERENCE_MS = 38.0
ROWS, WIDTH, DEPTH = 8192, 64, 4


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x = rng.standard_normal((ROWS, WIDTH))
        self.w = [rng.standard_normal((WIDTH, WIDTH)) * 0.1 for _ in range(DEPTH)]
        self.acts = [np.empty((ROWS, WIDTH)) for _ in range(DEPTH)]
        self.grad = np.empty((ROWS, WIDTH))
        self.tmp = np.empty((ROWS, WIDTH))
        self.wgrad = np.empty((WIDTH, WIDTH))

    def _kernel(self) -> None:
        h = self.x
        for w, act in zip(self.w, self.acts):
            np.matmul(h, w, out=act)
            np.maximum(act, 0.0, out=act)
            h = act
        np.sin(h, out=self.grad)
        for w, act in zip(reversed(self.w), reversed(self.acts)):
            np.greater(act, 0.0, out=self.tmp)
            np.multiply(self.grad, self.tmp, out=self.tmp)
            np.matmul(act.T, self.tmp, out=self.wgrad)
            np.matmul(self.tmp, w.T, out=self.grad)

    def measure(self, repeats: int = 1) -> float:
        """Seconds one kernel run takes now: the mean of ``repeats`` runs."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            self._kernel()
        return (time.perf_counter() - t0) / repeats

    @staticmethod
    def corrected(wall_s: float, before_s: float, after_s: float) -> float:
        """``wall_s`` at the reference box's speed, given the kernel's time
        just before and just after it."""
        return wall_s * (REFERENCE_MS / 1000.0) / ((before_s + after_s) / 2.0)
