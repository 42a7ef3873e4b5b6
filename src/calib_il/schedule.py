"""Incremental protocol: states, class groups and cumulative class sets.

Class ids are contiguous integers 0..C-1 assigned so that the group first
seen in state k occupies one contiguous block. Column j of any score matrix
therefore always refers to class id j.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StateSchedule:
    """Assignment of classes to the state in which they are first learned.

    ``classes_per_state[k-1]`` is the number of classes introduced in state
    k (1-based). Groups are disjoint and exhaustive, and the cumulative class
    set grows strictly with every state.
    """

    classes_per_state: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(p) for p in self.classes_per_state)
        if len(sizes) < 1:
            raise ValueError("schedule needs at least one state")
        if any(p < 1 for p in sizes):
            raise ValueError(f"every state must introduce >= 1 class, got {sizes}")
        object.__setattr__(self, "classes_per_state", sizes)

    @classmethod
    def equal_split(cls, num_classes: int, num_states: int) -> "StateSchedule":
        if not 1 <= num_states <= num_classes or num_classes % num_states != 0:
            raise ValueError(
                f"{num_classes} classes cannot be split evenly into "
                f"{num_states} states; pass explicit per-state sizes"
            )
        return cls((num_classes // num_states,) * num_states)

    @property
    def class_to_state(self) -> tuple[int, ...]:
        """First-seen state of each class id 0..C-1."""
        return tuple(state for state, size in enumerate(self.classes_per_state, start=1)
                     for _ in range(size))

    @property
    def num_states(self) -> int:
        return len(self.classes_per_state)

    @property
    def num_classes(self) -> int:
        return sum(self.classes_per_state)

    def classes_through(self, state: int) -> int:
        """Size of the cumulative class set after ``state`` states."""
        self._check_state(state)
        return sum(self.classes_per_state[:state])

    def group_slice(self, state: int, group: int) -> slice:
        """Column slice of the classes first seen in ``group`` <= ``state``."""
        self._check_state(state)
        if not 1 <= group <= state:
            raise ValueError(f"group {group} not in [1, {state}]")
        start = sum(self.classes_per_state[: group - 1])
        return slice(start, start + self.classes_per_state[group - 1])

    def column_groups(self, state: int):
        """First-seen state of each score column at ``state``, as an array."""
        # Imported here: a run-spec's schedule is built on every CLI call,
        # and only the compute flows need numpy.
        import numpy as np

        self._check_state(state)
        return np.repeat(np.arange(1, state + 1), self.classes_per_state[:state])

    def _check_state(self, state: int) -> None:
        if not 1 <= state <= self.num_states:
            raise ValueError(f"state {state} not in [1, {self.num_states}]")
