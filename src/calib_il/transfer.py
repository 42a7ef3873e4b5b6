"""Aggregation of calibration tables and their application to targets.

Tables fitted on reference datasets are combined by an elementwise mean and
applied to a target run that has no validation memory of its own, one
state at a time. The oracle picks, per state, the single reference table
with the best target accuracy; it peeks at target test labels, so it is an
upper bound, not a deployable method.
"""

from __future__ import annotations

import numpy as np

from .calibration import CalibrationTable, apply_table
from .logits import StateLogits
from .metrics import per_state_accuracy, predict


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


def score_state(logits: StateLogits,
                tables: list[CalibrationTable | None]) -> tuple[float, np.ndarray]:
    """Accuracy and per-group accuracies (``per_state_accuracy``) of one
    state's logits, corrected by whichever of ``tables`` scores best on
    them; ties break toward the lowest index, and state 1 is scored raw.

    ``[table]`` transfers one table and ``[None]`` scores the raw logits.
    Several tables give the oracle's pick: it uses the target evaluation
    labels, which makes it an upper bound on any fixed choice.
    """
    if not tables:
        raise ValueError("need at least one table, or None for the raw scores")
    rows = (per_state_accuracy(predict(_corrected_scores(logits, table)), logits.labels,
                               logits.schedule, logits.state)
            for table in (tables if logits.state > 1 else tables[:1]))
    # max keeps the first of equal rows; the generator holds one corrected
    # matrix at a time.
    return max(rows, key=lambda row: row[0])
