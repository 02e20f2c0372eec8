import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irjbd.shifts import ShiftSet, apply_adaptive_rule


class FakeRitz:
    def __init__(self, C):
        self.C = np.asarray(C, dtype=np.float64)

    @property
    def k(self):
        return len(self.C)


RITZ5 = FakeRitz([0.9, 0.7, 0.5, 0.3, 0.1])
# the same values as a smallest-mode extraction hands them over: extreme first
RITZ5_SMALLEST = FakeRitz(RITZ5.C[::-1])


def _rule_by_loop(shifts, ritz, l_effective):
    """The adaptive rule one shift at a time: the reference for the vectorized rule."""
    anchor = float(ritz.C[l_effective - 1])
    replacement = 1.0 if ritz.C[-1] > ritz.C[0] else 0.0
    lam = shifts.lambdas.copy()
    flags = shifts.replaced_flags.copy()
    for i in range(len(lam)):
        if abs((anchor - lam[i]) / anchor) < 1e-3:
            lam[i] = replacement
            flags[i] = True
    return lam, flags


class TestExactShifts:
    # a restart that keeps ``keep`` columns takes ShiftSet(C[keep:]) as its
    # exact shifts; the rule leaves distant ones in place, nearest-first
    def test_largest_keeps_trailing_values(self):
        out = apply_adaptive_rule(ShiftSet(RITZ5.C[3:]), RITZ5, 2)
        np.testing.assert_array_equal(out.lambdas, [0.3, 0.1])

    def test_smallest_keeps_leading_values(self):
        # nearest-first in both modes: the value next to the wanted ones leads
        out = apply_adaptive_rule(ShiftSet(RITZ5_SMALLEST.C[3:]), RITZ5_SMALLEST, 2)
        np.testing.assert_array_equal(out.lambdas, [0.7, 0.9])

    def test_shifts_inside_unit_interval(self):
        out = apply_adaptive_rule(ShiftSet(RITZ5.C[1:]), RITZ5, 1)
        assert np.all(out.lambdas > 0.0) and np.all(out.lambdas < 1.0)

    def test_bad_mode(self):
        # values that are neither decreasing nor increasing name no wanted end
        unordered = FakeRitz([0.5, 0.9, 0.1])
        with pytest.raises(ValueError, match="extreme first"):
            apply_adaptive_rule(ShiftSet(unordered.C[2:]), unordered, 1)


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
        out = apply_adaptive_rule(ShiftSet(RITZ5.C[2:]), RITZ5, 2)
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
        first = apply_adaptive_rule(ShiftSet(ritz.C[k - nshifts:]), ritz, l_eff)
        second = apply_adaptive_rule(first, ritz, l_eff)
        np.testing.assert_array_equal(first.lambdas, second.lambdas)

    @given(k=st.integers(2, 12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_replaced_shifts_are_a_leading_run(self, k, data):
        # the restart truncates onto keep + r triplets, r being the replaced
        # shifts: that purges the rest only if they lead the nearest-first list
        l_eff = data.draw(st.integers(1, k - 1))
        keep = data.draw(st.integers(l_eff, k - 1))
        anchor = data.draw(st.floats(1e-3, 0.999))
        # relative steps away from the anchor, some inside the rule's 1e-3
        steps = np.array(data.draw(st.lists(
            st.one_of(st.floats(0.0, 2e-3), st.floats(0.0, 0.2)),
            min_size=k - 1, max_size=k - 1)))
        if data.draw(st.booleans()):
            # largest mode: decreasing values, the unwanted ones toward 0
            wanted = anchor + (1.0 - anchor) * np.sort(steps[: l_eff - 1])[::-1] / 0.2
            unwanted = np.maximum(anchor * (1.0 - np.cumsum(steps[l_eff - 1:])), 0.0)
        else:
            # smallest mode: increasing values, the unwanted ones toward 1
            wanted = anchor * (1.0 - np.sort(steps[: l_eff - 1])[::-1] / 0.2)
            unwanted = np.minimum(anchor * (1.0 + np.cumsum(steps[l_eff - 1:])), 1.0)
        ritz = FakeRitz(np.concatenate((wanted, [anchor], unwanted)))
        shifts = ShiftSet(ritz.C[keep:])
        out = apply_adaptive_rule(shifts, ritz, l_eff)
        lam, flags = _rule_by_loop(shifts, ritz, l_eff)
        np.testing.assert_array_equal(out.lambdas, lam)
        np.testing.assert_array_equal(out.replaced_flags, flags)
        r = int(np.count_nonzero(out.replaced_flags))
        assert out.replaced_flags[:r].all() and not out.replaced_flags[r:].any()


def test_shift_set_snaps_rounding_overshoot():
    out = ShiftSet(np.array([1.0 + 1e-14, -1e-15]))
    np.testing.assert_array_equal(out.lambdas, [1.0, 0.0])
    with pytest.raises(ValueError):
        ShiftSet(np.array([1.1]))
