"""Aggregation of calibration tables, and the one scorer of a target state.

Tables fitted on reference datasets are combined by an elementwise mean and
applied to a target run that has no validation memory of its own, one
state at a time. The oracle picks, per state, the single reference table
with the best target accuracy; it peeks at target test labels, so it is an
upper bound, not a deployable method.

Accuracies are fractions in [0, 1], and the CLI writes them as fractions.
A run's headline number is the mean top-1 accuracy over states 2..S: the
first state is not incremental, so its accuracy is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationTable, corrected_scores
from .logits import StateLogits


def average_tables(tables: list[CalibrationTable]) -> CalibrationTable:
    """Elementwise arithmetic mean of the pairs across tables."""
    if not tables:
        raise ValueError("cannot average an empty list of tables")
    num_states = tables[0].num_states
    if any(t.num_states != num_states for t in tables):
        raise ValueError("all tables must cover the same number of states")
    # The tables go on the last, contiguous axis: numpy then sums each
    # pair's R values in the order np.mean uses on a 1-D array, which an
    # axis-0 mean does not do for R >= 8.
    alpha = np.stack([t.alpha for t in tables], axis=-1).mean(axis=-1)
    beta = np.stack([t.beta for t in tables], axis=-1).mean(axis=-1)
    return CalibrationTable(alpha, beta)


def score_state(logits: StateLogits,
                tables: list[CalibrationTable | None]) -> tuple[float, np.ndarray]:
    """Top-1 accuracy of one state's logits, corrected by whichever of
    ``tables`` scores best on them, and that pick's accuracy per
    first-seen group. Ties between tables break toward the lowest index,
    ties between classes toward the lowest class id, and state 1 is
    scored raw.

    ``[table]`` transfers one table and ``[None]`` scores the raw logits.
    Several tables give the oracle's pick: it uses the target evaluation
    labels, which makes it an upper bound on any fixed choice. Entry k-1
    of the group vector is the accuracy over the samples whose true class
    was first learned in state k; a group with no samples is nan.
    """
    if not tables:
        raise ValueError("need at least one table, or None for the raw scores")
    labels, state = logits.labels, logits.state
    if len(labels) == 0:
        raise ValueError("cannot score an empty evaluation set")
    col = logits.schedule.column_groups(state) - 1
    best_hits, best = None, -1.0
    for table in (tables if state > 1 else tables[:1]):
        scores = (logits.matrix if table is None or state == 1 else
                  corrected_scores(logits.matrix, *table.pairs_for_state(state), col))
        hits = np.argmax(scores, axis=1) == labels
        del scores  # one corrected matrix at a time
        accuracy = float(np.mean(hits))
        if accuracy > best:
            best_hits, best = hits, accuracy
    label_groups = col[labels]
    # Hit and sample counts are exact in float64, so each ratio has the bits
    # of np.mean over that group's hits.
    correct = np.bincount(label_groups, weights=best_hits, minlength=state)
    counts = np.bincount(label_groups, minlength=state)
    with np.errstate(invalid="ignore"):
        return best, correct / counts


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
        accuracies)`` rows, as ``score_state`` returns them, for states
        1..S in order."""
        num_states = len(rows)
        if not rows or [len(group) for _, group in rows] != list(range(1, num_states + 1)):
            raise ValueError("need one row per state 1..S, in order")
        accs = np.empty(num_states)
        groups = np.full((num_states, num_states), np.nan)
        for s, (acc, group) in enumerate(rows, start=1):
            accs[s - 1], groups[s - 1, :s] = acc, group
        # A single-state run has no incremental part to average.
        average = float(np.mean(accs[1:])) if num_states > 1 else float("nan")
        return cls(accs, groups, average)
