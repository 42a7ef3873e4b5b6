"""Synthetic incremental datasets: Gaussian class clusters at desk scale.

Each class is an isotropic Gaussian around a center drawn from the
dataset's seed, so datasets with distinct seeds share the generative family
but not the class geometry. An optional shared-rotation drift knob applies
one orthogonal rotation (Cayley transform of a seeded skew matrix, scaled
by ``drift_scale``) to the whole feature space, emulating domain shift
between datasets.

A dataset is drawn on the run's ``StateSchedule`` one state at a time:
``draw_states`` returns a ``StateDraw``, which yields, state by state, the
samples of the classes new in that state, and ``StackedSets`` reads R
such draws forward, one state per ``next_state``, as a run trains. A draw
is the only dataset the package builds, stacks or writes. No command reads
a written dataset back: each one draws it again from the spec.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import SynthSpec
from .errors import SpecError
from .schedule import StateSchedule

SPLITS = ("train", "validation", "test")


@dataclass
class StateBlock:
    """The samples of the classes new in one state: features (n, d),
    labels and split tags."""

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    def subset(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of one split."""
        mask = self.split == tag
        return self.features[mask], self.labels[mask]


@dataclass
class StateDraw:
    """A dataset handed over one state at a time: ``blocks`` yields one
    ``StateBlock`` per state 1..S, in order and once. ``sizes`` counts the
    samples of each split over all states."""

    schedule: StateSchedule
    sizes: dict[str, int]
    blocks: Iterator[StateBlock]
    name: str = ""
    seed: int = 0


def _cayley_rotation(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal rotation (I - tA)^-1 (I + tA) for a seeded skew matrix A."""
    raw = rng.normal(0.0, 1.0, (dim, dim))
    skew = (raw - raw.T) / 2.0
    eye = np.eye(dim)
    return np.linalg.solve(eye - scale * skew, eye + scale * skew)


def draw_states(spec: SynthSpec, schedule: StateSchedule, name: str = "",
                halve: bool = False) -> StateDraw:
    """Draw one cluster per class and tag train/validation/test samples,
    one state at a time: block s holds the classes new in state s of
    ``schedule``, which must cover the spec's classes, class by class, each
    class's SPLITS in order. ``halve`` keeps the first ceil(n/2) training
    samples of each class.

    Determinism contract: the same spec and schedule always yield the same
    rows bitwise, and the rows do not depend on the schedule.
    """
    if schedule.num_classes != spec.num_classes:
        raise ValueError(f"the schedule covers {schedule.num_classes} classes, "
                         f"the spec draws {spec.num_classes}")
    counts = (spec.train_per_class, spec.val_per_class, spec.test_per_class)
    kept = ((counts[0] + 1) // 2 if halve else counts[0],) + counts[1:]
    return StateDraw(schedule, {tag: spec.num_classes * n for tag, n in zip(SPLITS, kept)},
                     _blocks(spec, schedule, counts, kept), name, spec.seed)


def _blocks(spec: SynthSpec, schedule: StateSchedule, counts: tuple[int, ...],
            kept: tuple[int, ...]) -> Iterator[StateBlock]:
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.center_scale, (spec.num_classes, spec.feature_dim))
    per_class = sum(counts)
    rot = None
    if spec.drift_scale > 0:
        # The rotation is drawn after all the noise, so a second generator
        # from the seed runs through the centers and the noise first, one
        # class at a time.
        ahead = np.random.default_rng(spec.seed)
        skipped = np.empty((per_class + 1, spec.feature_dim))
        for _ in range(spec.num_classes):
            ahead.standard_normal(out=skipped)
        rot = _cayley_rotation(spec.feature_dim, spec.drift_scale, ahead).T
    rows = np.r_[0:kept[0], counts[0]:per_class]  # of each class, the kept ones
    tags = np.repeat(np.array(SPLITS, dtype=object), kept)
    for state in range(1, schedule.num_states + 1):
        # Built by a call, so that this frame holds no block between states.
        yield _block(rng, spec, centers, schedule.group_slice(state, state), per_class, rows,
                     tags, rot)


def _block(rng: np.random.Generator, spec: SynthSpec, centers: np.ndarray, group: slice,
           per_class: int, rows: np.ndarray, tags: np.ndarray,
           rot: np.ndarray | None) -> StateBlock:
    """The next ``per_class`` samples of each class of ``group`` from
    ``rng``, of which ``rows`` are kept, tagged ``tags``."""
    size, dim = group.stop - group.start, spec.feature_dim
    # One draw per block takes the same ziggurat stream, sample for sample,
    # as one draw for the whole dataset, since the states' classes are
    # contiguous; scaling then shifting in place gives the bits of
    # centers[c] + noise_scale * noise.
    x = rng.standard_normal((size * per_class, dim))
    by_class = x.reshape(size, per_class, dim)
    by_class *= spec.noise_scale
    by_class += centers[group, None]
    if len(rows) < per_class:
        x = by_class[:, rows].reshape(-1, dim)
    if rot is not None:
        # einsum, not BLAS: a row's bits then do not depend on how many
        # rows are multiplied, or on the BLAS kernel.
        x = np.einsum("nd,de->ne", x, rot)
    if not np.all(np.isfinite(x)):
        raise SpecError(f"the features drawn for classes {group.start}..{group.stop - 1} "
                        "overflow to non-finite values: center_scale or noise_scale is "
                        "too large")
    return StateBlock(x, np.repeat(np.arange(group.start, group.stop), len(rows)),
                      np.tile(tags, size))


def _stacked(count: int, size: int, x: np.ndarray, y: np.ndarray):
    """Empty stacked features (count, size, d) and labels (count, size),
    typed like one dataset's rows ``x`` and ``y``."""
    return np.empty((count, size) + x.shape[1:]), np.empty((count, size), dtype=y.dtype)


def _put(stack, r: int, rows: slice, x: np.ndarray, y: np.ndarray, what: str) -> None:
    """Place dataset ``r``'s rows ``x``, ``y`` in ``rows`` of a stack of
    (features, labels), as many as dataset 0 placed there."""
    xs, ys = stack
    if xs[r, rows].shape != x.shape:
        raise ValueError(f"{what} sets cannot be stacked: {len(y)} samples in dataset {r}, "
                         f"{len(ys[0, rows])} in dataset 0")
    xs[r, rows], ys[r, rows] = x, y


class StackedSets:
    """What a lockstep run reads from R per-state draws, state after state,
    stacked on a leading model axis: features (R, n, d) and labels (R, n).

    ``next_state`` pulls the next state's block from each draw in turn,
    dropping each once its rows are placed. It appends the state's rows of
    the evaluation sets named in ``sets`` ("validation", "test") to one
    (R, n_final, d) array per set, and returns the state's training set
    (the samples of the classes new in it), keeping no reference to it.
    ``evaluation`` is a prefix view of a set's array: the classes seen so
    far, group by group. The draws must share the schedule and have equal
    per-state sample counts, as the draws of one spec do.
    """

    def __init__(self, draws: list[StateDraw], sets: tuple[str, ...]):
        if not set(sets) <= {"validation", "test"}:
            raise ValueError(f"evaluation sets {sets} must be 'validation' or 'test'")
        if not draws:
            raise ValueError("stacked sets need at least one dataset")
        self.schedule = draws[0].schedule
        if any(draw.schedule != self.schedule for draw in draws):
            raise ValueError("stacked sets need datasets with one schedule")
        self._blocks = [iter(draw.blocks) for draw in draws]
        self._sizes = {name: draws[0].sizes[name] for name in sets}
        self._eval: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._ends = dict.fromkeys(sets, 0)  # rows of each set through the last state
        self._state = 0  # the last state pulled

    def next_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Pull the next state and return its stacked training set."""
        self._state += 1
        count, train, rows = len(self._blocks), None, {}
        for r, blocks in enumerate(self._blocks):
            block = next(blocks)
            x, y = block.subset("train")
            if r == 0:
                train = _stacked(count, len(y), x, y)
            _put(train, r, slice(None), x, y, f"state {self._state} train")
            for name, size in self._sizes.items():
                x, y = block.subset(name)
                if r == 0:
                    if name not in self._eval:
                        self._eval[name] = _stacked(count, size, x, y)
                    rows[name] = slice(self._ends[name], self._ends[name] + len(y))
                _put(self._eval[name], r, rows[name], x, y, f"state {self._state} {name}")
            del block, x, y  # before the next dataset's block is drawn
        self._ends = {name: rows[name].stop for name in self._sizes}
        return train

    def evaluation(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``name`` set through the last state pulled: every
        class seen by then."""
        xs, ys = self._eval[name]
        return xs[:, :self._ends[name]], ys[:, :self._ends[name]]
