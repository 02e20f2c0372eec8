import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irjbd.shifts import ShiftSet, apply_adaptive_rule, select_exact_shifts


class FakeRitz:
    def __init__(self, C):
        self.C = np.asarray(C, dtype=np.float64)

    @property
    def k(self):
        return len(self.C)


RITZ5 = FakeRitz([0.9, 0.7, 0.5, 0.3, 0.1])
# the same values as a smallest-mode extraction hands them over: extreme first
RITZ5_SMALLEST = FakeRitz(RITZ5.C[::-1])


class TestExactShifts:
    def test_largest_takes_trailing_values(self):
        out = select_exact_shifts(RITZ5, 2)
        np.testing.assert_array_equal(out.lambdas, [0.3, 0.1])

    def test_smallest_takes_leading_values(self):
        # nearest-first in both modes: the value next to the wanted ones leads
        out = select_exact_shifts(RITZ5_SMALLEST, 2)
        np.testing.assert_array_equal(out.lambdas, [0.7, 0.9])

    def test_shifts_inside_unit_interval(self):
        out = select_exact_shifts(RITZ5, 4)
        assert np.all(out.lambdas > 0.0) and np.all(out.lambdas < 1.0)

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            select_exact_shifts(RITZ5, 6)

    def test_bad_mode(self):
        # values that are neither decreasing nor increasing name no wanted end
        unordered = FakeRitz([0.5, 0.9, 0.1])
        with pytest.raises(ValueError, match="extreme first"):
            apply_adaptive_rule(select_exact_shifts(unordered, 1), unordered, 1)


class TestAdaptiveRule:
    def test_bad_shift_replaced_by_zero(self):
        # relgap = |0.9 - 0.8995| / 0.9 = 5.56e-4 < 1e-3
        shifts = ShiftSet(np.array([0.8995]))
        out = apply_adaptive_rule(shifts, FakeRitz([0.9, 0.7, 0.5]), 1)
        np.testing.assert_array_equal(out.lambdas, [0.0])
        assert out.replaced_flags[0]

    def test_distant_shift_kept(self):
        shifts = ShiftSet(np.array([0.5]))
        out = apply_adaptive_rule(shifts, FakeRitz([0.9, 0.7, 0.5]), 1)
        np.testing.assert_array_equal(out.lambdas, [0.5])
        assert not out.replaced_flags[0]

    def test_smallest_mode_replaces_by_one(self):
        # increasing values put the unwanted ones, and so 1, at the top
        ritz = FakeRitz([0.01, 0.5, 0.9])
        shifts = ShiftSet(np.array([0.010001]))
        out = apply_adaptive_rule(shifts, ritz, 1)
        np.testing.assert_array_equal(out.lambdas, [1.0])

    def test_count_preserved(self):
        shifts = select_exact_shifts(RITZ5, 3)
        out = apply_adaptive_rule(shifts, RITZ5, 2)
        assert len(out) == 3

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, seed, l_eff):
        gen = np.random.default_rng(seed)
        k = int(gen.integers(max(2, l_eff + 1), 9))
        C = np.sort(gen.uniform(1e-3, 1.0 - 1e-3, size=k))[::-1]
        nshifts = int(gen.integers(1, k))
        # either mode: largest-first or smallest-first values
        ritz = FakeRitz(C if gen.random() < 0.5 else C[::-1])
        first = apply_adaptive_rule(select_exact_shifts(ritz, nshifts), ritz, l_eff)
        second = apply_adaptive_rule(first, ritz, l_eff)
        np.testing.assert_array_equal(first.lambdas, second.lambdas)


def test_shift_set_snaps_rounding_overshoot():
    out = ShiftSet(np.array([1.0 + 1e-14, -1e-15]))
    np.testing.assert_array_equal(out.lambdas, [1.0, 0.0])
    with pytest.raises(ValueError):
        ShiftSet(np.array([1.1]))
