"""Shift selection for implicit restarts.

Unwanted Ritz values make the best shifts: filtering the starting vector
with them strips exactly the directions the next subspace should not waste
dimensions on.  A shift that lands too close to a *wanted* value would strip
a wanted direction instead, so such shifts are adaptively replaced by the
most harmless value available (0 when chasing the largest components, 1
when chasing the smallest).
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


def select_exact_shifts(ritz, target_sign, nshifts):
    """Pick the ``nshifts`` unwanted Ritz values as shifts.

    ``ritz.C`` is decreasing, so chasing the largest components shifts away
    the trailing (small) values and chasing the smallest shifts away the
    leading (large) ones.
    """
    if target_sign not in ("largest", "smallest"):
        raise ValueError("target_sign must be 'largest' or 'smallest'")
    k = ritz.k
    if nshifts > k:
        raise ValueError(f"requested {nshifts} shifts but only {k} Ritz values exist")
    if nshifts < 0:
        raise ValueError("nshifts must be nonnegative")
    if target_sign == "largest":
        lam = ritz.C[k - nshifts:]
    else:
        lam = ritz.C[:nshifts]
    return ShiftSet(np.array(lam, dtype=np.float64))


def apply_adaptive_rule(shifts, ritz, target_sign, l_effective):
    """Replace shifts too close to the boundary wanted Ritz value.

    The relative gap of each shift is measured against the smallest wanted
    value (largest mode) or the largest wanted value (smallest mode); shifts
    within ``_RELGAP_TOL`` are bad and get replaced by 0 or 1 respectively.
    Applying the rule twice changes nothing.
    """
    if target_sign not in ("largest", "smallest"):
        raise ValueError("target_sign must be 'largest' or 'smallest'")
    k = ritz.k
    if not 1 <= l_effective <= k:
        raise ValueError(f"l_effective must be in [1, {k}]")

    if target_sign == "largest":
        anchor = float(ritz.C[l_effective - 1])
        replacement = 0.0
    else:
        anchor = float(ritz.C[k - l_effective])
        replacement = 1.0

    lam = shifts.lambdas.copy()
    flags = shifts.replaced_flags.copy()
    for i in range(len(lam)):
        relgap = abs((anchor - lam[i]) / anchor)
        if relgap < _RELGAP_TOL:
            lam[i] = replacement
            flags[i] = True
    return ShiftSet(lam, flags)
