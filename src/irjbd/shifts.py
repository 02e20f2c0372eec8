"""Shifts of implicit restarts, and the rule that replaces the bad ones.

Unwanted Ritz values make the best shifts: filtering the starting vector
with them strips exactly the directions the next subspace should not waste
dimensions on.  A restart that keeps ``keep`` columns takes the exact shifts
straight off the extraction, ``ShiftSet(ritz.C[keep:])``: the Ritz values
come extreme-first (wanted values leading), so these are the unwanted ones,
nearest-first, whichever end of the spectrum is wanted.  A shift that lands
too close to a *wanted* value would strip a wanted direction instead, so
``apply_adaptive_rule`` replaces such shifts by the most harmless value
available: the end of [0, 1] beyond the unwanted values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ShiftSet", "apply_adaptive_rule"]

_RELGAP_TOL = 1e-3


@dataclass
class ShiftSet:
    lambdas: np.ndarray
    replaced_flags: np.ndarray = field(default=None)

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        if self.replaced_flags is None:
            self.replaced_flags = np.zeros(len(self.lambdas), dtype=bool)
        # Ritz values may overshoot the unit interval by rounding; snap those
        slack = 1e-12
        if np.any(self.lambdas < -slack) or np.any(self.lambdas > 1.0 + slack):
            raise ValueError("shifts must lie in [0, 1]")
        self.lambdas = np.clip(self.lambdas, 0.0, 1.0)

    def __len__(self):
        return len(self.lambdas)


def apply_adaptive_rule(shifts, ritz, l_effective):
    """Replace shifts too close to the boundary wanted Ritz value.

    The relative gap of each shift is measured against the last wanted value
    ``ritz.C[l_effective - 1]``; shifts within ``_RELGAP_TOL`` are bad and get
    replaced by the end of [0, 1] on the side of the unwanted values: 0 when
    ``ritz.C`` decreases, 1 when it increases.  Applying the rule twice
    changes nothing.  On nearest-first shifts beyond the anchor the gap
    grows along the list, so the replaced shifts are a leading run of it.
    """
    k = ritz.k
    if not 1 <= l_effective <= k:
        raise ValueError(f"l_effective must be in [1, {k}]")
    steps = np.diff(ritz.C)
    if not (np.all(steps <= 0.0) or np.all(steps >= 0.0)):
        raise ValueError("Ritz values must be ordered extreme first")

    anchor = float(ritz.C[l_effective - 1])
    replacement = 1.0 if ritz.C[-1] > ritz.C[0] else 0.0
    bad = np.abs((anchor - shifts.lambdas) / anchor) < _RELGAP_TOL
    return ShiftSet(np.where(bad, replacement, shifts.lambdas), shifts.replaced_flags | bad)
