"""Accuracy metrics and score diagnostics for incremental runs.

Accuracies are fractions in [0, 1]; the CLI renders percentages. Standard
deviations are population deviations, and the headline number is the mean
top-1 accuracy over states 2..S: the first state is not incremental, so
its accuracy is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logits import StateLogits
from .schedule import StateSchedule


def predict(scores: np.ndarray) -> np.ndarray:
    """Top-1 class per row; ties go to the lowest class index."""
    return np.argmax(scores, axis=1)


def per_state_accuracy(
    predictions: np.ndarray,
    labels: np.ndarray,
    schedule: StateSchedule,
    state: int,
) -> tuple[float, dict[int, float]]:
    """Overall fraction correct plus the fraction per first-seen group.

    Group k's accuracy is computed over the samples whose true class was
    first learned in state k. Groups with no samples are reported as nan.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must align")
    if len(labels) == 0:
        raise ValueError("cannot score an empty evaluation set")
    hits = predictions == labels
    overall = float(np.mean(hits))
    groups = schedule.column_groups(state)
    label_groups = groups[labels]
    by_group = {}
    for k in range(1, state + 1):
        mask = label_groups == k
        by_group[k] = float(np.mean(hits[mask])) if mask.any() else float("nan")
    return overall, by_group


def avg_incremental_accuracy(per_state: list[float]) -> float:
    """Mean accuracy over states 2..S; the first state does not count."""
    if len(per_state) < 2:
        raise ValueError("need at least 2 states for an incremental average")
    return float(np.mean(per_state[1:]))


def mean_scores_by_group(logits: StateLogits) -> dict[int, tuple[float, float]]:
    """Mean and population std of the score entries in each group's columns."""
    stats = {}
    for k in range(1, logits.state + 1):
        block = logits.matrix[:, logits.schedule.group_slice(logits.state, k)]
        stats[k] = (float(np.mean(block)), float(np.std(block)))
    return stats


@dataclass
class RunMetrics:
    """Everything measured on one incremental run of S states."""

    schedule: StateSchedule
    per_state_accuracy: list[float]
    group_accuracy: dict[tuple[int, int], float]
    average_incremental_accuracy: float
    method: str = ""
    notes: dict = field(default_factory=dict)


def compute_run_metrics(
    per_state_scores: list[np.ndarray],
    per_state_labels: list[np.ndarray],
    schedule: StateSchedule,
    method: str = "",
    notes: dict | None = None,
) -> RunMetrics:
    """Score one run from its per-state score matrices and labels."""
    if len(per_state_scores) != schedule.num_states:
        raise ValueError("need one score matrix per state 1..S")
    accs = []
    group_acc = {}
    for s, (scores, labels) in enumerate(zip(per_state_scores, per_state_labels), start=1):
        overall, by_group = per_state_accuracy(predict(scores), labels, schedule, s)
        accs.append(overall)
        for k, value in by_group.items():
            group_acc[(s, k)] = value
    # A single-state run has no incremental part to average.
    average = avg_incremental_accuracy(accs) if len(accs) > 1 else float("nan")
    return RunMetrics(
        schedule=schedule,
        per_state_accuracy=accs,
        group_accuracy=group_acc,
        average_incremental_accuracy=average,
        method=method,
        notes=dict(notes or {}),
    )


def accuracy_matrix(metrics: RunMetrics) -> np.ndarray:
    """Lower-triangular (S x S) group-accuracy matrix; nan above the diagonal.

    Row s holds the accuracy at state s on classes first seen in state k,
    for k <= s.
    """
    S = metrics.schedule.num_states
    out = np.full((S, S), np.nan)
    for (s, k), value in metrics.group_accuracy.items():
        out[s - 1, k - 1] = value
    return out
