"""Aggregation of calibration tables and their application to targets.

Tables fitted on reference datasets are combined by an elementwise mean and
applied to a target run that has no validation memory of its own. The
oracle path picks, per state, the single reference table with the best
target accuracy; it peeks at target test labels, so it is an upper bound,
not a deployable method.
"""

from __future__ import annotations

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
    # The tables go on the last, contiguous axis: numpy then sums each
    # pair's R values in the order np.mean uses on a 1-D array, which an
    # axis-0 mean does not do for R >= 8.
    alpha = np.stack([t.alpha for t in tables], axis=-1).mean(axis=-1)
    beta = np.stack([t.beta for t in tables], axis=-1).mean(axis=-1)
    return CalibrationTable(alpha, beta)


def _corrected_scores(logits: StateLogits, table: CalibrationTable | None) -> np.ndarray:
    if logits.state == 1 or table is None:
        return logits.matrix
    return apply_table(logits, table)


def apply_transfer(
    per_state_logits: list[StateLogits],
    table: CalibrationTable | None,
) -> RunMetrics:
    """Score the run with states 2..S corrected by ``table``; state 1 is
    scored raw. Passing ``table=None`` scores the uncorrected run."""
    _check_states(per_state_logits)
    return compute_run_metrics(
        [_corrected_scores(lg, table) for lg in per_state_logits],
        [lg.labels for lg in per_state_logits],
        per_state_logits[0].schedule,
    )


def oracle_select(
    tables: list[CalibrationTable],
    per_state_logits: list[StateLogits],
) -> RunMetrics:
    """Per state, keep the table with the best corrected top-1 accuracy.

    Ties break toward the lowest table index. Selection uses the target
    evaluation labels, which makes this an upper bound on any fixed choice.
    """
    if not tables:
        raise ValueError("oracle needs at least one table")
    _check_states(per_state_logits)
    schedule = per_state_logits[0].schedule
    scores_by_state = [per_state_logits[0].matrix]
    for logits in per_state_logits[1:]:
        best_acc, best_scores = -1.0, None
        for table in tables:
            corrected = apply_table(logits, table)
            acc, _ = per_state_accuracy(
                predict(corrected), logits.labels, schedule, logits.state
            )
            if acc > best_acc:
                best_acc, best_scores = acc, corrected
        scores_by_state.append(best_scores)
    return compute_run_metrics(
        scores_by_state, [lg.labels for lg in per_state_logits], schedule)


def _check_states(per_state_logits: list[StateLogits]) -> None:
    if not per_state_logits:
        raise ValueError("need logits for states 1..S")
    schedule = per_state_logits[0].schedule
    states = [lg.state for lg in per_state_logits]
    if states != list(range(1, len(states) + 1)):
        raise ValueError(f"expected logits for states 1..S in order, got {states}")
    if any(lg.schedule != schedule for lg in per_state_logits):
        raise ValueError("all states must share one schedule")
