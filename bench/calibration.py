"""A fixed probe of how fast the machine runs, used to normalize reported times.

On the shared machine used to define the benchmark, the speed of one
process drifts by up to 1.5x from one minute to the next, and switches
between a fast and a slow mode about every second, so the wall time of the
same pass over the same solves spread by a quarter between runs.  The probe
times a short fixed slice of work about every ``INTERVAL_S`` seconds while
the benchmark solves, including between the inner solves of a long solve,
and the harness removes the slices' time from what it measures.  A slice's
speed factor is ``REFERENCE_S`` divided by its time; the harness multiplies
solve times by the run's mean factor and each short burst of set-ups by the
factor of the slice run just before it.

The slice does work of both kinds the solver does, sparse products through
``np.bincount`` and a scalar Python loop of plane rotations, on fixed data.
It uses no solver code, so no change to the solver alters it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Slice time that defines a speed factor of 1: about the fast mode of the
# machine the benchmark was defined on.  It holds only for the slice sizes
# below, which are therefore fixed.
REFERENCE_S = 0.032
ROWS, COLS, PER_ROW = 3000, 2000, 8     # the sparse matrix of the products
BLOCK_COLS = 25                         # the (BLOCK_COLS + 1) x BLOCK_COLS rotated block
INTERVAL_S = 0.5


class SpeedProbe:
    """Fixed work timed in slices; ``factor()`` is REFERENCE_S / the mean slice time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = np.repeat(np.arange(ROWS), PER_ROW)
        self.cols = rng.integers(0, COLS, size=ROWS * PER_ROW)
        self.vals = rng.standard_normal(ROWS * PER_ROW)
        self.x = rng.standard_normal(COLS)
        self.block = rng.standard_normal((BLOCK_COLS + 1, BLOCK_COLS))
        self.samples = []
        self.spent = 0.0    # total seconds of all slices, wall time included
        self._last = -float("inf")

    def run(self):
        """Time one slice, keep the sample and return its speed factor."""
        began = time.perf_counter()
        v = self.x.copy()
        for _ in range(96):
            y = np.bincount(self.rows, weights=self.vals * v[self.cols], minlength=ROWS)
            v = np.bincount(self.cols, weights=self.vals * y[self.rows], minlength=COLS)
            v /= float(np.sqrt(v @ v))
        B = self.block.copy()
        k = B.shape[1]
        for _ in range(6):
            for p in range(k - 1):
                for q in range(p + 1, k):
                    apq = float(B[:, p] @ B[:, q])
                    c = 1.0 / np.sqrt(1.0 + 1e-6 * apq * apq)
                    s = 1e-3 * apq * c
                    bp = B[:, p].copy()
                    B[:, p] = c * bp - s * B[:, q]
                    B[:, q] = s * bp + c * B[:, q]
        self._last = time.perf_counter()
        self.samples.append(self._last - began)
        self.spent += self._last - began
        return REFERENCE_S / self.samples[-1]

    def tick(self):
        """Run a slice if ``INTERVAL_S`` has passed since the last one ended."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.run()

    def factor(self):
        return REFERENCE_S / statistics.fmean(self.samples)
