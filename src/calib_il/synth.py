"""Synthetic incremental datasets: Gaussian class clusters at desk scale.

Each class is an isotropic Gaussian around a center drawn from the
dataset's seed, so datasets with distinct seeds share the generative family
but not the class geometry. An optional shared-rotation drift knob applies
one orthogonal rotation (Cayley transform of a seeded skew matrix, scaled
by ``drift_scale``) to the whole feature space, emulating domain shift
between datasets.

A dataset is drawn on the run's ``StateSchedule`` and keeps it;
``StackedSets`` is the one place that cuts datasets into their states.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

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
    """Feature matrix with labels, split tags and an incremental schedule."""

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


def _cayley_rotation(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal rotation (I - tA)^-1 (I + tA) for a seeded skew matrix A."""
    raw = rng.normal(0.0, 1.0, (dim, dim))
    skew = (raw - raw.T) / 2.0
    eye = np.eye(dim)
    return np.linalg.solve(eye - scale * skew, eye + scale * skew)


def gen_synthetic_dataset(spec: SynthSpec, schedule: StateSchedule,
                          name: str = "") -> IncrementalDataset:
    """Draw one cluster per class and tag train/validation/test samples;
    the dataset follows ``schedule``, which must cover the spec's classes.

    Determinism contract: the same spec always yields the same arrays
    bitwise, whatever the schedule.
    """
    if schedule.num_classes != spec.num_classes:
        raise ValueError(f"the schedule covers {schedule.num_classes} classes, "
                         f"the spec draws {spec.num_classes}")
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.center_scale, (spec.num_classes, spec.feature_dim))
    counts = (spec.train_per_class, spec.val_per_class, spec.test_per_class)
    per_class = sum(counts)
    # Samples lie class by class, each class's SPLITS in order. One draw
    # into the whole matrix takes the same ziggurat stream, sample for
    # sample, as one rng.normal(0, 1) draw per (class, split) block, and
    # scaling then shifting in place gives the bits of
    # centers[c] + noise_scale * noise with no second (N, d) array.
    x = rng.standard_normal((spec.num_classes * per_class, spec.feature_dim))
    blocks = x.reshape(spec.num_classes, per_class, spec.feature_dim)
    blocks *= spec.noise_scale
    blocks += centers[:, None]
    if spec.drift_scale > 0:
        rot = _cayley_rotation(spec.feature_dim, spec.drift_scale, rng)
        x = x @ rot.T
    return IncrementalDataset(
        features=x,
        labels=np.repeat(np.arange(spec.num_classes), per_class),
        split=np.tile(np.repeat(np.array(SPLITS, dtype=object), counts), spec.num_classes),
        schedule=schedule,
        name=name,
        seed=spec.seed,
    )


@dataclass
class StateView:
    """The training set of one state: the samples of the classes new in it.

    In a stacked view each array carries a leading model axis, one slice
    per dataset: ``train_x`` is then (R, n, d) and ``train_y`` (R, n).
    """

    state: int
    train_x: np.ndarray
    train_y: np.ndarray


class StackedSets:
    """What a lockstep run reads from R datasets, cut into the states of
    their schedule and stacked on a leading model axis per state: features
    (R, n, d) and labels (R, n).

    The datasets are read one at a time, so a caller that generates them
    lazily holds one dataset at most. Only the training set of each state
    (the samples of the classes new in it) and the final-state evaluation
    sets named in ``sets`` ("validation", "test") are kept: an earlier
    state's evaluation set is the final one cut to the classes seen by
    then, in the order of ``dataset.subset(name, seen)``. Each state's
    training set can be taken once and is released then. The datasets must
    share the schedule and have equal per-state sample counts, as the
    datasets generated from one spec do.
    """

    def __init__(self, datasets: Iterable[IncrementalDataset], sets: tuple[str, ...]):
        if not set(sets) <= {"validation", "test"}:
            raise ValueError(f"evaluation sets {sets} must be 'validation' or 'test'")
        self.schedule = None
        self._train: list[list | None] = []
        self._eval = {name: [] for name in sets}
        for dataset in datasets:
            if self.schedule is None:
                self.schedule = dataset.schedule
                self._train = [[] for _ in range(self.schedule.num_states)]
            elif dataset.schedule != self.schedule:
                raise ValueError("stacked sets need datasets with one schedule")
            for state, parts in enumerate(self._train, start=1):
                group = self.schedule.group_slice(state, state)
                parts.append(dataset.subset("train", np.arange(group.start, group.stop)))
            for name, parts in self._eval.items():
                parts.append(dataset.subset(name))
        if self.schedule is None:
            raise ValueError("stacked sets need at least one dataset")

    def train(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked training set of ``state``, released from here."""
        parts, self._train[state - 1] = self._train[state - 1], None
        if parts is None:
            raise ValueError(f"the state {state} training set was already taken")
        return _stack(parts, len(parts), state, "train")

    def evaluation(self, name: str, state: int) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``name`` set of ``state``: every class seen through it."""
        seen = self.schedule.classes_through(state)
        parts = self._eval[name]
        return _stack(((x[y < seen], y[y < seen]) for x, y in parts), len(parts), state, name)


def _stack(parts: Iterable[tuple[np.ndarray, np.ndarray]], count: int, state: int,
           tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Fill (count, n, d) features and (count, n) labels one part at a time."""
    xs = ys = None
    for r, (x, y) in enumerate(parts):
        if xs is None:
            xs = np.empty((count,) + x.shape)
            ys = np.empty((count,) + y.shape, dtype=y.dtype)
        elif x.shape != xs.shape[1:]:
            raise ValueError(
                f"state {state} {tag} sets cannot be stacked: {len(y)} samples "
                f"in dataset {r}, {ys.shape[1]} in dataset 0")
        xs[r], ys[r] = x, y
    return xs, ys


def halve_train_split(dataset: IncrementalDataset) -> IncrementalDataset:
    """Keep ceil(n/2) training samples per class; validation/test untouched."""
    keep = np.ones(len(dataset.labels), dtype=bool)
    train = dataset.split == "train"
    for c in range(dataset.schedule.num_classes):
        idx = np.flatnonzero((dataset.labels == c) & train)
        n_keep = (len(idx) + 1) // 2
        keep[idx[n_keep:]] = False
    return replace(
        dataset,
        features=dataset.features[keep],
        labels=dataset.labels[keep],
        split=dataset.split[keep],
        name=dataset.name + "-halved" if dataset.name else "halved",
    )
