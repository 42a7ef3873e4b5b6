"""Raw score matrices produced by a model at one incremental state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import StateSchedule


@dataclass
class StateLogits:
    """Pre-softmax scores for one evaluation set at state ``state``.

    ``matrix`` has one row per sample and one column per class seen so far;
    column j scores class id j. ``labels`` are the true class ids.
    """

    state: int
    matrix: np.ndarray
    labels: np.ndarray
    schedule: StateSchedule
    dataset: str = ""
    backbone: str = ""
    seed: int = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.matrix.ndim != 2:
            raise ValueError("score matrix must be 2-D")
        if self.labels.ndim != 1 or len(self.labels) != self.matrix.shape[0]:
            raise ValueError("labels must align with matrix rows")
        expected = self.schedule.classes_through(self.state)
        if self.matrix.shape[1] != expected:
            raise ValueError(
                f"state {self.state} expects {expected} score columns, "
                f"got {self.matrix.shape[1]}"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("score matrix contains non-finite entries")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= expected
        ):
            raise ValueError("labels must be class ids seen by this state")
