import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_il.schedule import StateSchedule


class TestStateSchedule:
    def test_equal_split_20_by_5(self):
        sched = StateSchedule.equal_split(20, 5)
        assert sched.classes_per_state == (4, 4, 4, 4, 4)
        assert sched.num_classes == 20
        assert sched.num_states == 5

    def test_indivisible_split_rejected(self):
        with pytest.raises(ValueError, match="evenly"):
            StateSchedule.equal_split(10, 3)

    def test_more_states_than_classes_rejected_before_building(self):
        """0 classes divide into any state count, so only the bound refuses
        them, before a per-state tuple of that length is built."""
        with pytest.raises(ValueError, match="evenly"):
            StateSchedule.equal_split(0, 3)

    def test_empty_and_zero_groups_rejected(self):
        with pytest.raises(ValueError):
            StateSchedule(())
        with pytest.raises(ValueError):
            StateSchedule((3, 0, 2))

    def test_cumulative_sets_grow(self):
        sched = StateSchedule((2, 3, 1))
        assert [sched.classes_through(s) for s in (1, 2, 3)] == [2, 5, 6]

    def test_group_slices_partition_columns(self):
        sched = StateSchedule((2, 3, 1))
        slices = [sched.group_slice(3, k) for k in (1, 2, 3)]
        covered = []
        for sl in slices:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(6))

    def test_column_groups(self):
        sched = StateSchedule((2, 3, 1))
        np.testing.assert_array_equal(sched.column_groups(2), [1, 1, 2, 2, 2])
        np.testing.assert_array_equal(sched.column_groups(3), [1, 1, 2, 2, 2, 3])

    def test_state_out_of_range(self):
        sched = StateSchedule((2, 2))
        with pytest.raises(ValueError):
            sched.classes_through(3)
        with pytest.raises(ValueError):
            sched.group_slice(2, 3)


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8))
def test_groups_are_disjoint_and_exhaustive(sizes):
    sched = StateSchedule(tuple(sizes))
    S = sched.num_states
    seen = set()
    for k in range(1, S + 1):
        sl = sched.group_slice(S, k)
        block = set(range(sl.start, sl.stop))
        assert len(block) == sizes[k - 1]
        assert not (seen & block)
        seen |= block
    assert seen == set(range(sched.num_classes))
    assert sched.classes_through(S) == sum(sizes)
