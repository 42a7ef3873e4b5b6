"""Aggregation of calibration tables and their application to targets.

Tables fitted on reference datasets are combined by an elementwise mean and
applied to a target run that has no validation memory of its own. The
oracle path picks, per state, the single reference table with the best
target accuracy; it peeks at target test labels, so it is an upper bound,
not a deployable method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationTable, apply_table
from .logits import StateLogits
from .metrics import RunMetrics, compute_run_metrics, per_state_accuracy, predict


def param_count(num_states: int) -> int:
    """Scalars stored by a full table: 2*(2+3+...+S) = (S+2)*(S-1)."""
    if num_states < 2:
        raise ValueError("parameter count is defined for S >= 2")
    return (num_states + 2) * (num_states - 1)


def average_tables(tables: list[CalibrationTable]) -> CalibrationTable:
    """Elementwise arithmetic mean of the pairs across tables."""
    if not tables:
        raise ValueError("cannot average an empty list of tables")
    num_states = tables[0].num_states
    if any(t.num_states != num_states for t in tables):
        raise ValueError("all tables must cover the same number of states")
    entries = {}
    for key in tables[0].entries:
        alphas = [t.entries[key][0] for t in tables]
        betas = [t.entries[key][1] for t in tables]
        entries[key] = (float(np.mean(alphas)), float(np.mean(betas)))
    return CalibrationTable(num_states, entries)


def _corrected_scores(logits: StateLogits, table: CalibrationTable | None) -> np.ndarray:
    if logits.state == 1 or table is None:
        return logits.matrix
    return apply_table(logits, table)


@dataclass
class TransferResult:
    """Per-state corrected predictions plus the run's metrics."""

    predictions: list[np.ndarray]
    corrected: list[np.ndarray]
    metrics: RunMetrics


def apply_transfer(
    per_state_logits: list[StateLogits],
    table: CalibrationTable | None,
    method: str = "transfer",
) -> TransferResult:
    """Correct states 2..S with ``table`` and predict the top corrected score.

    Predictions follow the rule the metrics score (``predict``); state 1
    predictions are the raw argmax. Passing ``table=None`` scores
    the uncorrected run.
    """
    _check_states(per_state_logits)
    if table is not None and table.num_states < len(per_state_logits):
        raise ValueError("table does not cover the target schedule")
    corrected = [_corrected_scores(lg, table) for lg in per_state_logits]
    predictions = [predict(scores) for scores in corrected]
    metrics = compute_run_metrics(
        corrected,
        [lg.labels for lg in per_state_logits],
        per_state_logits[0].schedule,
        method=method,
    )
    return TransferResult(predictions, corrected, metrics)


@dataclass
class OracleResult:
    """Best per-state reference choice and the resulting metrics."""

    chosen: dict[int, int]
    metrics: RunMetrics
    predictions: list[np.ndarray] = field(default_factory=list)


def oracle_select(
    tables: list[CalibrationTable],
    per_state_logits: list[StateLogits],
) -> OracleResult:
    """Per state, keep the table with the best corrected top-1 accuracy.

    Ties break toward the lowest table index. Selection uses the target
    evaluation labels, which makes this an upper bound on any fixed choice.
    """
    if not tables:
        raise ValueError("oracle needs at least one table")
    _check_states(per_state_logits)
    schedule = per_state_logits[0].schedule
    chosen = {}
    scores_by_state = []
    for logits in per_state_logits:
        if logits.state == 1:
            scores_by_state.append(logits.matrix)
            continue
        best_idx, best_acc, best_scores = 0, -1.0, None
        for idx, table in enumerate(tables):
            corrected = apply_table(logits, table)
            acc, _ = per_state_accuracy(
                predict(corrected), logits.labels, schedule, logits.state
            )
            if acc > best_acc:
                best_idx, best_acc, best_scores = idx, acc, corrected
        chosen[logits.state] = best_idx
        scores_by_state.append(best_scores)
    metrics = compute_run_metrics(
        scores_by_state,
        [lg.labels for lg in per_state_logits],
        schedule,
        method="oracle",
        notes={"deployable": False, "selection": "target test labels (upper bound)"},
    )
    predictions = [predict(s) for s in scores_by_state]
    return OracleResult(chosen, metrics, predictions)


def _check_states(per_state_logits: list[StateLogits]) -> None:
    if not per_state_logits:
        raise ValueError("need logits for states 1..S")
    schedule = per_state_logits[0].schedule
    states = [lg.state for lg in per_state_logits]
    if states != list(range(1, len(states) + 1)):
        raise ValueError(f"expected logits for states 1..S in order, got {states}")
    if any(lg.schedule != schedule for lg in per_state_logits):
        raise ValueError("all states must share one schedule")
