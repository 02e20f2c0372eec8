"""Shift selection for implicit restarts.

Unwanted Ritz values make the best shifts: filtering the starting vector
with them strips exactly the directions the next subspace should not waste
dimensions on.  A shift that lands too close to a *wanted* value would strip
a wanted direction instead, so such shifts are adaptively replaced by the
most harmless value available: the end of [0, 1] beyond the unwanted values.
Both functions take the Ritz values extreme-first (wanted values leading),
so neither needs to know which end of the spectrum is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ShiftSet", "select_exact_shifts", "apply_adaptive_rule"]

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


def select_exact_shifts(ritz, nshifts):
    """Pick the ``nshifts`` unwanted Ritz values, the trailing ones, as shifts.

    They come nearest-first: the value next to the wanted ones leads.
    """
    k = ritz.k
    if nshifts > k:
        raise ValueError(f"requested {nshifts} shifts but only {k} Ritz values exist")
    if nshifts < 0:
        raise ValueError("nshifts must be nonnegative")
    return ShiftSet(np.array(ritz.C[k - nshifts:], dtype=np.float64))


def apply_adaptive_rule(shifts, ritz, l_effective):
    """Replace shifts too close to the boundary wanted Ritz value.

    The relative gap of each shift is measured against the last wanted value
    ``ritz.C[l_effective - 1]``; shifts within ``_RELGAP_TOL`` are bad and get
    replaced by the end of [0, 1] on the side of the unwanted values: 0 when
    ``ritz.C`` decreases, 1 when it increases.  Applying the rule twice
    changes nothing.
    """
    k = ritz.k
    if not 1 <= l_effective <= k:
        raise ValueError(f"l_effective must be in [1, {k}]")
    steps = np.diff(ritz.C)
    if not (np.all(steps <= 0.0) or np.all(steps >= 0.0)):
        raise ValueError("Ritz values must be ordered extreme first")

    anchor = float(ritz.C[l_effective - 1])
    replacement = 1.0 if ritz.C[-1] > ritz.C[0] else 0.0
    lam = shifts.lambdas.copy()
    flags = shifts.replaced_flags.copy()
    for i in range(len(lam)):
        relgap = abs((anchor - lam[i]) / anchor)
        if relgap < _RELGAP_TOL:
            lam[i] = replacement
            flags[i] = True
    return ShiftSet(lam, flags)
