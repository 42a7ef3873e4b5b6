"""Synthetic dataset generation, the per-state draw, state splitting and
halving."""

import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from calib_il.schedule import StateSchedule
from calib_il.synth import SPLITS, StackedSets, SynthSpec, _cayley_rotation, draw_states


def small_spec(**kw):
    base = dict(num_classes=4, feature_dim=3, train_per_class=10,
                val_per_class=5, test_per_class=5, seed=0)
    base.update(kw)
    return SynthSpec(**base)


def small_draw(num_states=2, **kw):
    """A per-state draw of ``small_spec(**kw)`` on an equal split."""
    spec = small_spec(**kw)
    return draw_states(spec, StateSchedule.equal_split(spec.num_classes, num_states))


def generate(num_states=2, **kw):
    """The whole dataset of ``small_draw(num_states, **kw)``."""
    return joined(small_draw(num_states, **kw))


def reference_dataset(spec, schedule):
    """The generator drawn block by block: one rng.normal call per (class,
    split), concatenated, with labels and tags built as lists. The oracle of
    ``draw_states``, whose blocks joined must give the same bits."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.center_scale, (spec.num_classes, spec.feature_dim))
    per_class = dict(zip(SPLITS, (spec.train_per_class, spec.val_per_class,
                                  spec.test_per_class)))
    features, labels, tags = [], [], []
    for c in range(spec.num_classes):
        for tag in SPLITS:
            n = per_class[tag]
            noise = rng.normal(0.0, 1.0, (n, spec.feature_dim))
            features.append(centers[c] + spec.noise_scale * noise)
            labels.extend([c] * n)
            tags.extend([tag] * n)
    x = np.concatenate(features, axis=0)
    if spec.drift_scale > 0:
        x = np.einsum("nd,de->ne", x, _cayley_rotation(spec.feature_dim, spec.drift_scale,
                                                       rng).T)
    return SimpleNamespace(features=x, labels=np.asarray(labels),
                           split=np.asarray(tags, dtype=object), schedule=schedule)


def halve_train_split(dataset):
    """Keep ceil(n/2) training samples per class, in dataset order, and
    every validation and test sample: the oracle of ``draw_states(...,
    halve=True)``, one class mask at a time over the whole dataset."""
    keep = np.ones(len(dataset.labels), dtype=bool)
    train = dataset.split == "train"
    for c in range(dataset.schedule.num_classes):
        idx = np.flatnonzero((dataset.labels == c) & train)
        keep[idx[(len(idx) + 1) // 2:]] = False
    return SimpleNamespace(features=dataset.features[keep], labels=dataset.labels[keep],
                           split=dataset.split[keep], schedule=dataset.schedule)


def joined(draw):
    """The blocks of a per-state draw, one after another, as one dataset's
    ``features``, ``labels`` and ``split`` arrays, with its ``schedule``."""
    blocks = list(draw.blocks)
    return SimpleNamespace(schedule=draw.schedule, **{
        field: np.concatenate([getattr(b, field) for b in blocks])
        for field in ("features", "labels", "split")})


def subset(data, tag, classes=None):
    """Features and labels of one split of a ``joined`` dataset, optionally
    restricted to ``classes``."""
    mask = data.split == tag
    if classes is not None:
        mask &= np.isin(data.labels, classes)
    return data.features[mask], data.labels[mask]


def assert_same_rows(got, want):
    """Equal feature and label bytes, split tags and dtypes."""
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.split.tolist() == want.split.tolist()
    for field in ("features", "labels", "split"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field


# (generator knobs, schedule) pairs: no drift and drift, equal and unequal
# states. The last one rotates a one-class block of 60 rows at feature_dim
# 64, a product that BLAS kernels may round otherwise than the whole draw's.
DRAWS = [
    (dict(), (2, 2)),
    (dict(seed=3), (1, 3)),
    (dict(train_per_class=7, noise_scale=0.4), (1, 2, 1)),
    (dict(drift_scale=0.3, seed=5), (2, 2)),
    (dict(feature_dim=1, drift_scale=1.5, seed=9), (3, 1)),
    (dict(num_classes=12, feature_dim=64, train_per_class=40, val_per_class=10,
          test_per_class=10, drift_scale=0.2, seed=2), (1, 5, 2, 4)),
]


class TestSynthSpec:
    @pytest.mark.parametrize("bad", [
        dict(num_classes=0), dict(feature_dim=0), dict(train_per_class=0),
        dict(val_per_class=0), dict(test_per_class=0), dict(center_scale=0.0),
        dict(noise_scale=-0.1), dict(drift_scale=-1.0), dict(seed=-1),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            small_spec(**bad)

    def test_zero_noise_allowed(self):
        small_spec(noise_scale=0.0)


class TestGeneration:
    def test_counts_per_class_and_split(self):
        data = generate()
        assert len(data.labels) == 4 * (10 + 5 + 5)
        assert data.features.shape == (80, 3)
        for c in range(4):
            for tag, n in (("train", 10), ("validation", 5), ("test", 5)):
                assert np.sum((data.labels == c) & (data.split == tag)) == n

    def test_deterministic(self):
        a = generate(seed=3)
        b = generate(seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_schedule_changes_no_sample(self):
        """The schedule only labels the states; the draws are the spec's."""
        a = generate(num_states=2)
        b = joined(draw_states(small_spec(), StateSchedule((1, 3))))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert list(a.split) == list(b.split)

    @pytest.mark.parametrize("knobs", [
        dict(),
        dict(drift_scale=0.3, seed=5),
        dict(noise_scale=0.0, center_scale=2.0),
        dict(train_per_class=3, val_per_class=7, test_per_class=1, noise_scale=0.4),
        dict(feature_dim=1, drift_scale=1.5, seed=9),
    ])
    def test_equals_the_block_by_block_reference(self, knobs):
        spec = small_spec(**knobs)
        schedule = StateSchedule.equal_split(spec.num_classes, 2)
        assert_same_rows(joined(draw_states(spec, schedule)), reference_dataset(spec, schedule))

    @pytest.mark.parametrize("knobs, sizes", DRAWS)
    def test_per_state_draw_equals_the_whole_draw(self, knobs, sizes):
        """Block s holds, bit for bit, the rows of the whole draw's classes
        new in state s; the rotation of a drifted draw is drawn after all
        the noise, as the whole draw draws it."""
        spec, schedule = small_spec(**knobs), StateSchedule(sizes)
        want = reference_dataset(spec, schedule)
        draw = draw_states(spec, schedule, name="d")
        assert (draw.schedule, draw.name, draw.seed) == (schedule, "d", spec.seed)
        blocks = list(draw.blocks)
        assert len(blocks) == schedule.num_states
        for state, block in enumerate(blocks, start=1):
            group = schedule.group_slice(state, state)
            rows = (want.labels >= group.start) & (want.labels < group.stop)
            assert_same_rows(block, SimpleNamespace(
                features=want.features[rows], labels=want.labels[rows], split=want.split[rows]))
        assert draw.sizes == {tag: int(np.sum(want.split == tag)) for tag in SPLITS}
        assert_same_rows(joined(draw_states(spec, schedule)), want)

    def test_seeds_give_different_geometry(self):
        a = generate(seed=1)
        b = generate(seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_zero_noise_collapses_to_centers(self):
        """With noise off, every sample of a class equals its center, so a
        nearest-center rule is exact."""
        data = generate(noise_scale=0.0)
        for c in range(4):
            x, _ = subset(data, "train", np.array([c]))
            assert np.all(x == x[0])
        x_all, y_all = subset(data, "train")
        centers = np.stack([subset(data, "train", np.array([c]))[0][0] for c in range(4)])
        nearest = np.argmin(((x_all[:, None] - centers) ** 2).sum(-1), axis=1)
        np.testing.assert_array_equal(nearest, y_all)

    def test_drift_preserves_norms(self):
        """Drift is a pure rotation: pairwise distances survive it."""
        still = generate(seed=5)
        moved = generate(seed=5, drift_scale=0.3)
        np.testing.assert_allclose(
            np.linalg.norm(still.features, axis=1),
            np.linalg.norm(moved.features, axis=1), rtol=1e-10)
        assert not np.allclose(still.features, moved.features)

    def test_cayley_matrix_is_orthogonal(self):
        rng = np.random.default_rng(0)
        rot = _cayley_rotation(6, 0.4, rng)
        np.testing.assert_allclose(rot @ rot.T, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(abs(np.linalg.det(rot)), 1.0, rtol=1e-12)


class TestSplitStates:
    def test_train_views_are_new_classes_only(self):
        data = small_draw()
        sets = StackedSets([data], ())
        assert data.schedule.classes_per_state == (2, 2)
        (x1,), (y1,) = sets.next_state()
        assert set(y1) == {0, 1}
        assert set(sets.next_state()[1][0]) == {2, 3}
        assert len(x1) == 20

    def test_val_and_test_are_cumulative(self):
        sets = StackedSets([small_draw()], ("validation", "test"))
        sets.next_state()
        assert set(sets.evaluation("validation")[1][0]) == {0, 1}
        sets.next_state()
        assert set(sets.evaluation("validation")[1][0]) == {0, 1, 2, 3}
        assert len(sets.evaluation("test")[0][0]) == 4 * 5

    def test_explicit_sizes(self):
        data = draw_states(small_spec(), StateSchedule((1, 3)))
        assert data.schedule.classes_per_state == (1, 3)
        sets = StackedSets([data], ())
        sets.next_state()
        assert set(sets.next_state()[1][0]) == {1, 2, 3}

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="covers 3 classes, the spec draws 4"):
            draw_states(small_spec(), StateSchedule((1, 2)))
        with pytest.raises(ValueError, match="split evenly"):
            StateSchedule.equal_split(4, 3)
        with pytest.raises(ValueError, match="split evenly"):
            StateSchedule.equal_split(4, 5)


class TestStackedSets:
    @pytest.mark.parametrize("knobs, sizes", DRAWS)
    def test_evaluation_prefixes_equal_the_dataset_subsets(self, knobs, sizes):
        """From per-state draws pulled in order, each state's training set is
        the new classes' training subset of the whole draw, and each state's
        evaluation set is ``subset(dataset, name, seen)`` of it: a prefix
        view of one array per set rather than a copy, which the later
        states leave as it was."""
        schedule = StateSchedule(sizes)
        specs = [small_spec(**dict(knobs, seed=seed)) for seed in (4, 5)]
        sets = StackedSets([draw_states(spec, schedule) for spec in specs],
                           ("validation", "test"))
        whole = [joined(draw_states(spec, schedule)) for spec in specs]
        views = []
        for state in range(1, schedule.num_states + 1):
            train = sets.next_state()
            for r, data in enumerate(whole):
                group = schedule.group_slice(state, state)
                x, y = subset(data, "train", np.arange(group.start, group.stop))
                assert train[0][r].tobytes() == x.tobytes()
                assert train[1][r].tobytes() == y.tobytes()
            views.append({name: sets.evaluation(name) for name in ("validation", "test")})
        for state, held in enumerate(views, start=1):
            seen = np.arange(schedule.classes_through(state))
            for name, (xs, ys) in held.items():
                final = views[-1][name]
                assert xs.base is final[0].base and ys.base is final[1].base
                for r, data in enumerate(whole):
                    x, y = subset(data, name, seen)
                    assert xs[r].tobytes() == x.tobytes() and ys[r].tobytes() == y.tobytes()

    def test_each_state_is_drawn_when_asked_for(self):
        """No block is drawn before its state is pulled, a block is drawn
        once, and reading an evaluation set draws nothing."""
        schedule = StateSchedule((1, 2, 1))
        drawn = []

        def counting(spec):
            draw = draw_states(spec, schedule)
            draw.blocks = (drawn.append(spec.seed) or block for block in draw.blocks)
            return draw

        sets = StackedSets([counting(small_spec(seed=1)), counting(small_spec(seed=2))],
                           ("validation",))
        assert drawn == []
        sets.next_state()
        assert drawn == [1, 2]
        sets.evaluation("validation")
        assert drawn == [1, 2]
        sets.next_state()
        sets.evaluation("validation")
        assert drawn == [1, 2, 1, 2]

    def test_unequal_sizes_rejected(self):
        sets = StackedSets([small_draw(), small_draw(train_per_class=4)], ())
        with pytest.raises(ValueError, match="cannot be stacked"):
            sets.next_state()

    def test_unequal_evaluation_sizes_rejected(self):
        sets = StackedSets([small_draw(), small_draw(val_per_class=4)], ("validation",))
        with pytest.raises(ValueError, match="state 1 validation sets cannot be stacked: "
                                             "8 samples in dataset 1, 10 in dataset 0"):
            sets.next_state()

    def test_training_set_is_held_by_nothing_once_returned(self):
        """Only the caller holds a state's training set, so it is freed
        when the caller drops it, while the evaluation sets stay."""
        sets = StackedSets([small_draw(), small_draw(seed=2)], ("test",))
        train_x, train_y = sets.next_state()
        dropped = weakref.ref(train_x)
        del train_x, train_y
        assert dropped() is None
        assert sets.evaluation("test")[0].shape[:2] == (2, 2 * 5)

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="'validation' or 'test'"):
            StackedSets([small_draw()], ("val",))

    def test_schedules_must_agree(self):
        other = draw_states(small_spec(), StateSchedule((1, 3)))
        with pytest.raises(ValueError, match="one schedule"):
            StackedSets([small_draw(), other], ())


# Prints the name of the OpenBLAS kernel numpy runs on, or nothing when no
# loaded OpenBLAS answers the query.
CORE_NAME = r"""
import ctypes, numpy
try:
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
except OSError:
    libs = []
for lib in libs:
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                   "openblas_get_corename64_", "openblas_get_corename"):
        query = getattr(ctypes.CDLL(lib), symbol, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_char_p
            print(query().decode())
            raise SystemExit
"""

DRAW_EQUALITY = [f"tests/test_synth.py::{test}" for test in (
    "TestGeneration::test_equals_the_block_by_block_reference",
    "TestGeneration::test_per_state_draw_equals_the_whole_draw",
    "TestStackedSets::test_evaluation_prefixes_equal_the_dataset_subsets")]


class TestOtherBlasKernel:
    def test_draw_equality_holds_under_the_prescott_kernel(self):
        """The draw-equality tests pass in a child process that runs
        OpenBLAS's Prescott kernel, which rounds a product of a few rows
        otherwise than this host's kernel may. Skipped when the child
        cannot confirm that its kernel switched, as with an OpenBLAS built
        without DYNAMIC_ARCH."""
        root = Path(__file__).resolve().parents[1]
        host = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        forced = dict(host, OPENBLAS_CORETYPE="Prescott")

        def core(env):
            return subprocess.run([sys.executable, "-c", CORE_NAME], env=env, check=True,
                                  capture_output=True, text=True).stdout.strip()

        default, prescott = core(host), core(forced)
        if not prescott or prescott == default:
            pytest.skip(f"OpenBLAS kernel did not switch ({default!r} -> {prescott!r})")
        child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *DRAW_EQUALITY], env=forced, cwd=root,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stdout[-3000:]
        assert " passed" in child.stdout and " skipped" not in child.stdout


class TestHalving:
    def test_keeps_ceil_half_of_train_only(self):
        spec = small_spec(train_per_class=7)
        draw = draw_states(spec, StateSchedule((2, 2)), halve=True)
        assert draw.sizes == {"train": 4 * 4, "validation": 4 * 5, "test": 4 * 5}
        halved = joined(draw)
        for c in range(4):
            assert np.sum((halved.labels == c) & (halved.split == "train")) == 4
            assert np.sum((halved.labels == c) & (halved.split == "validation")) == 5
            assert np.sum((halved.labels == c) & (halved.split == "test")) == 5

    def test_kept_samples_are_a_prefix(self):
        """The first training samples per class survive, so the halved set
        is a strict subset with unchanged values."""
        data = generate()
        halved = joined(draw_states(small_spec(), data.schedule, halve=True))
        full_x, _ = subset(data, "train", np.array([1]))
        half_x, _ = subset(halved, "train", np.array([1]))
        np.testing.assert_array_equal(half_x, full_x[:5])

    @pytest.mark.parametrize("knobs, sizes", DRAWS + [(dict(train_per_class=1), (2, 2))])
    def test_halved_draw_equals_the_halved_whole_draw(self, knobs, sizes):
        """Halving each block keeps, bit for bit, the rows that halving the
        whole draw keeps, in the same order."""
        spec, schedule = small_spec(**knobs), StateSchedule(sizes)
        want = halve_train_split(reference_dataset(spec, schedule))
        assert_same_rows(joined(draw_states(spec, schedule, halve=True)), want)
