"""Synthetic incremental datasets: Gaussian class clusters at desk scale.

Each class is an isotropic Gaussian around a center drawn from the
dataset's seed, so datasets with distinct seeds share the generative family
but not the class geometry. An optional shared-rotation drift knob applies
one orthogonal rotation (Cayley transform of a seeded skew matrix, scaled
by ``drift_scale``) to the whole feature space, emulating domain shift
between datasets.

A dataset is drawn on the run's ``StateSchedule`` one state at a time:
``draw_states`` returns a ``StateDraw``, which yields, state by state, the
samples of the classes new in that state, and ``StackedSets`` pulls each
state from R such draws only when that state trains. A draw is the only
dataset the package builds, stacks or writes; ``IncrementalDataset`` is
what ``storage.read_dataset`` returns for a written one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .schedule import StateSchedule

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs for one synthetic dataset."""

    num_classes: int
    feature_dim: int
    train_per_class: int = 40
    val_per_class: int = 10
    test_per_class: int = 10
    center_scale: float = 1.0
    noise_scale: float = 1.0
    drift_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.num_classes,
            self.feature_dim,
            self.train_per_class,
            self.val_per_class,
            self.test_per_class,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all class/dim/sample counts must be >= 1")
        if self.center_scale <= 0:
            raise ValueError("center_scale must be > 0")
        if self.noise_scale < 0 or self.drift_scale < 0:
            raise ValueError("noise_scale and drift_scale must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class IncrementalDataset:
    """Feature matrix with labels, split tags and an incremental schedule:
    a written dataset as ``storage.read_dataset`` reads it back."""

    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    schedule: StateSchedule
    name: str = ""
    seed: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.split = np.asarray(self.split, dtype=object)
        n = len(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] != n or len(self.split) != n:
            raise ValueError("features, labels and split tags must align")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        bad = sorted({tag for tag in self.split} - set(SPLITS))
        if bad:
            raise ValueError(f"unknown split tags {bad}; expected {SPLITS}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.schedule.num_classes):
            raise ValueError("labels outside the schedule's class range")
        tags = sum(i * (self.split == tag) for i, tag in enumerate(SPLITS))
        # Samples per (class, tag) in row-major order, so that the first
        # empty cell is the first class, and its first tag, that lacks one.
        found = np.bincount(self.labels * len(SPLITS) + tags,
                            minlength=self.schedule.num_classes * len(SPLITS))
        if not found.all():
            c, t = divmod(int(np.argmin(found)), len(SPLITS))
            raise ValueError(f"class {c} has no '{SPLITS[t]}' samples")

    def subset(self, tag: str, classes: np.ndarray | None = None):
        """Features and labels of one split, optionally restricted to classes."""
        mask = self.split == tag
        if classes is not None:
            mask &= np.isin(self.labels, classes)
        return self.features[mask], self.labels[mask]


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
    rows bitwise. Without drift the rows do not depend on the schedule;
    with drift each block is rotated by its own matrix product, and BLAS
    may round a product of a few rows at a wide ``feature_dim`` (OpenBLAS's
    small-matrix kernel) otherwise than one over more rows.
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
        x = x @ rot
    if not np.all(np.isfinite(x)):
        raise SpecError(f"the features drawn for classes {group.start}..{group.stop - 1} "
                        "overflow to non-finite values: center_scale or noise_scale is "
                        "too large")
    return StateBlock(x, np.repeat(np.arange(group.start, group.stop), len(rows)),
                      np.tile(tags, size))


@dataclass
class StateView:
    """The training set of one state: the samples of the classes new in it.

    In a stacked view each array carries a leading model axis, one slice
    per dataset: ``train_x`` is then (R, n, d) and ``train_y`` (R, n).
    """

    state: int
    train_x: np.ndarray
    train_y: np.ndarray


class _Rows:
    """Stacked features (count, size, d) and labels (count, size), filled
    block by block: each block's rows go after the previous block's, so
    the rows of the first k blocks are a prefix. ``size`` None holds one
    block, as many rows as the first dataset has."""

    def __init__(self, tag: str, count: int, size: int | None = None):
        self.tag, self.count, self.size = tag, count, size
        self.x = self.y = None
        self.ends = [0]  # rows held through each block

    def put(self, r: int, state: int, x: np.ndarray, y: np.ndarray) -> None:
        """Place dataset ``r``'s rows of ``state`` as the newest block;
        dataset 0 comes first."""
        if r == 0:
            if self.x is None:
                size = len(y) if self.size is None else self.size
                self.x = np.empty((self.count, size) + x.shape[1:])
                self.y = np.empty((self.count, size), dtype=y.dtype)
            self.ends.append(self.ends[-1] + len(y))
        start, stop = self.ends[-2:]
        if x.shape != (stop - start,) + self.x.shape[2:] or stop > self.x.shape[1]:
            raise ValueError(
                f"state {state} {self.tag} sets cannot be stacked: {len(y)} samples "
                f"in dataset {r}, {stop - start} in dataset 0")
        self.x[r, start:stop], self.y[r, start:stop] = x, y

    def through(self, blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the rows of the first ``blocks`` blocks."""
        stop = self.ends[blocks]
        return self.x[:, :stop], self.y[:, :stop]


class StackedSets:
    """What a lockstep run reads from R per-state draws, state by state,
    stacked on a leading model axis: features (R, n, d) and labels (R, n).

    A state's block is pulled from each draw only when that state is asked
    for, one draw at a time, and released once its rows are placed: its
    training set (the samples of the classes new in it) is stacked, and
    its rows of the evaluation sets named in ``sets`` ("validation",
    "test") are appended to one (R, n_final, d) array per set. A state's
    evaluation set is then a prefix view of it: the classes seen by then,
    group by group. Each state's training set can be taken once and is
    released then. The draws must share the schedule and have equal
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
        self._eval = {name: _Rows(name, len(draws), draws[0].sizes[name]) for name in sets}
        self._train: dict[int, _Rows] = {}  # drawn, not yet taken
        self._drawn = 0

    def _draw_through(self, state: int) -> None:
        self.schedule.classes_through(state)  # refuses a state outside 1..S
        while self._drawn < state:
            drawn = self._drawn + 1
            train = _Rows("train", len(self._blocks))
            for r, blocks in enumerate(self._blocks):
                block = next(blocks)
                train.put(r, drawn, *block.subset("train"))
                for name, rows in self._eval.items():
                    rows.put(r, drawn, *block.subset(name))
                del block  # before the next dataset's block is drawn
            self._train[drawn], self._drawn = train, drawn

    def train(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked training set of ``state``, released from here."""
        self._draw_through(state)
        if state not in self._train:
            raise ValueError(f"the state {state} training set was already taken")
        return self._train.pop(state).through(1)

    def evaluation(self, name: str, state: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``name`` set of ``state``: every class seen through it."""
        self._draw_through(state)
        return self._eval[name].through(state)
