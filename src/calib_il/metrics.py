"""Accuracy metrics for incremental runs.

Accuracies are fractions in [0, 1], and the CLI writes them as fractions.
The headline number is the mean top-1 accuracy over states 2..S: the first
state is not incremental, so its accuracy is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import StateSchedule


def predict(scores: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties go to the lowest class index."""
    return np.argmax(scores, axis=1)


def per_state_accuracy(
    predictions: np.ndarray,
    labels: np.ndarray,
    schedule: StateSchedule,
    state: int,
) -> tuple[float, np.ndarray]:
    """Overall fraction correct plus the fraction per first-seen group.

    Entry k-1 of the group vector is the accuracy over the samples whose
    true class was first learned in state k; a group with no samples is nan.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must align")
    if len(labels) == 0:
        raise ValueError("cannot score an empty evaluation set")
    hits = predictions == labels
    overall = float(np.mean(hits))
    label_groups = schedule.column_groups(state)[labels] - 1
    # Hit and sample counts are exact in float64, so each ratio has the bits
    # of np.mean over that group's hits.
    correct = np.bincount(label_groups, weights=hits, minlength=state)
    counts = np.bincount(label_groups, minlength=state)
    with np.errstate(invalid="ignore"):
        return overall, correct / counts


def avg_incremental_accuracy(per_state: list[float] | np.ndarray) -> float:
    """Mean accuracy over states 2..S; the first state does not count."""
    if len(per_state) < 2:
        raise ValueError("need at least 2 states for an incremental average")
    return float(np.mean(per_state[1:]))


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured on one incremental run of S states.

    ``group_accuracy[s-1, k-1]`` is the accuracy at state s on the classes
    first seen in state k; it is nan above the diagonal and for empty groups.
    """

    per_state_accuracy: np.ndarray
    group_accuracy: np.ndarray
    average_incremental_accuracy: float

    @classmethod
    def from_rows(cls, rows) -> "RunMetrics":
        """The metrics of a run from its per-state ``(accuracy, group
        accuracies)`` rows, as ``per_state_accuracy`` returns them, for
        states 1..S in order."""
        num_states = len(rows)
        if not rows or [len(group) for _, group in rows] != list(range(1, num_states + 1)):
            raise ValueError("need one row per state 1..S, in order")
        accs = np.empty(num_states)
        groups = np.full((num_states, num_states), np.nan)
        for s, (acc, group) in enumerate(rows, start=1):
            accs[s - 1], groups[s - 1, :s] = acc, group
        # A single-state run has no incremental part to average.
        average = avg_incremental_accuracy(accs) if num_states > 1 else float("nan")
        return cls(accs, groups, average)
