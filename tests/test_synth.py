"""Synthetic dataset generation, the per-state draw, state splitting, and
halving."""

from types import SimpleNamespace

import numpy as np
import pytest

from calib_il.schedule import StateSchedule
from calib_il.synth import (SPLITS, IncrementalDataset, StackedSets, SynthSpec,
                            _cayley_rotation, draw_states)


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
        x = x @ _cayley_rotation(spec.feature_dim, spec.drift_scale, rng).T
    return IncrementalDataset(x, np.asarray(labels), np.asarray(tags, dtype=object),
                              schedule, seed=spec.seed)


def halve_train_split(dataset):
    """Keep ceil(n/2) training samples per class, in dataset order, and
    every validation and test sample: the oracle of ``draw_states(...,
    halve=True)``, one class mask at a time over the whole dataset."""
    keep = np.ones(len(dataset.labels), dtype=bool)
    train = dataset.split == "train"
    for c in range(dataset.schedule.num_classes):
        idx = np.flatnonzero((dataset.labels == c) & train)
        keep[idx[(len(idx) + 1) // 2:]] = False
    return IncrementalDataset(dataset.features[keep], dataset.labels[keep],
                              dataset.split[keep], dataset.schedule, seed=dataset.seed)


def joined(draw):
    """The blocks of a per-state draw, one after another, as one dataset."""
    blocks = list(draw.blocks)
    return IncrementalDataset(np.concatenate([b.features for b in blocks]),
                              np.concatenate([b.labels for b in blocks]),
                              np.concatenate([b.split for b in blocks]),
                              draw.schedule, draw.name, draw.seed)


def assert_same_rows(got, want):
    """Equal feature and label bytes, split tags and dtypes."""
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.split.tolist() == want.split.tolist()
    for field in ("features", "labels", "split"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field


# (generator knobs, schedule) pairs: no drift and drift, equal and unequal
# states; the drifted features are wide enough that every block takes the
# BLAS path a whole-dataset product takes (see README, drift_scale).
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
            x, _ = data.subset("train", np.array([c]))
            assert np.all(x == x[0])
        x_all, y_all = data.subset("train")
        centers = np.stack([data.subset("train", np.array([c]))[0][0] for c in range(4)])
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


class TestDatasetValidation:
    def test_missing_split_rejected(self):
        data = generate()
        keep = ~((data.labels == 2) & (data.split == "test"))
        with pytest.raises(ValueError, match="class 2 has no 'test'"):
            IncrementalDataset(data.features[keep], data.labels[keep],
                               data.split[keep], data.schedule)

    @pytest.mark.parametrize("gaps, first", [
        ([(3, "train"), (2, "test")], "class 2 has no 'test'"),
        ([(1, "test"), (1, "validation")], "class 1 has no 'validation'"),
    ])
    def test_first_missing_split_is_named(self, gaps, first):
        """With several gaps, the error names the lowest class and, in it,
        the first tag of SPLITS without samples."""
        data = generate()
        keep = np.ones(len(data.labels), dtype=bool)
        for c, tag in gaps:
            keep &= ~((data.labels == c) & (data.split == tag))
        with pytest.raises(ValueError, match=first):
            IncrementalDataset(data.features[keep], data.labels[keep],
                               data.split[keep], data.schedule)

    def test_unknown_tag_rejected(self):
        data = generate()
        tags = data.split.copy()
        tags[0] = "holdout"
        with pytest.raises(ValueError, match="unknown split tags"):
            IncrementalDataset(data.features, data.labels, tags, data.schedule)

    def test_non_finite_rejected(self):
        data = generate()
        features = data.features.copy()
        features[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            IncrementalDataset(features, data.labels, data.split, data.schedule)


class TestSplitStates:
    def test_train_views_are_new_classes_only(self):
        data = small_draw()
        sets = StackedSets([data], ())
        assert data.schedule.classes_per_state == (2, 2)
        (x1,), (y1,) = sets.train(1)
        assert set(y1) == {0, 1}
        assert set(sets.train(2)[1][0]) == {2, 3}
        assert len(x1) == 20

    def test_val_and_test_are_cumulative(self):
        sets = StackedSets([small_draw()], ("validation", "test"))
        assert set(sets.evaluation("validation", 1)[1][0]) == {0, 1}
        assert set(sets.evaluation("validation", 2)[1][0]) == {0, 1, 2, 3}
        assert len(sets.evaluation("test", 2)[0][0]) == 4 * 5

    def test_explicit_sizes(self):
        data = draw_states(small_spec(), StateSchedule((1, 3)))
        assert data.schedule.classes_per_state == (1, 3)
        assert set(StackedSets([data], ()).train(2)[1][0]) == {1, 2, 3}

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
        """From per-state draws, each state's evaluation set is
        ``dataset.subset(name, seen)`` of the whole draw, and a prefix view
        of one array per set rather than a copy."""
        schedule = StateSchedule(sizes)
        specs = [small_spec(**dict(knobs, seed=seed)) for seed in (4, 5)]
        sets = StackedSets([draw_states(spec, schedule) for spec in specs],
                           ("validation", "test"))
        whole = [joined(draw_states(spec, schedule)) for spec in specs]
        final = {name: sets.evaluation(name, schedule.num_states) for name in ("validation", "test")}
        for state in range(1, schedule.num_states + 1):
            seen = np.arange(schedule.classes_through(state))
            train = sets.train(state)
            for name in ("validation", "test"):
                xs, ys = sets.evaluation(name, state)
                assert xs.base is final[name][0].base and ys.base is final[name][1].base
                for r, data in enumerate(whole):
                    x, y = data.subset(name, seen)
                    assert xs[r].tobytes() == x.tobytes() and ys[r].tobytes() == y.tobytes()
            for r, data in enumerate(whole):
                group = schedule.group_slice(state, state)
                x, y = data.subset("train", np.arange(group.start, group.stop))
                assert train[0][r].tobytes() == x.tobytes()
                assert train[1][r].tobytes() == y.tobytes()

    def test_each_state_is_drawn_when_asked_for(self):
        """No block is drawn before its state is asked for, and a block is
        drawn once."""
        schedule = StateSchedule((1, 2, 1))
        drawn = []

        def counting(spec):
            draw = draw_states(spec, schedule)
            draw.blocks = (drawn.append(spec.seed) or block for block in draw.blocks)
            return draw

        sets = StackedSets([counting(small_spec(seed=1)), counting(small_spec(seed=2))],
                           ("validation",))
        assert drawn == []
        sets.train(1)
        assert drawn == [1, 2]
        sets.evaluation("validation", 2)
        assert drawn == [1, 2, 1, 2]
        sets.train(2)
        sets.evaluation("validation", 1)
        assert drawn == [1, 2, 1, 2]

    def test_training_set_is_taken_once(self):
        sets = StackedSets([small_draw(num_states=3, num_classes=6, seed=1)], ())
        sets.train(1)
        with pytest.raises(ValueError, match="already taken"):
            sets.train(1)

    def test_unequal_sizes_rejected(self):
        sets = StackedSets([small_draw(), small_draw(train_per_class=4)], ())
        with pytest.raises(ValueError, match="cannot be stacked"):
            sets.train(1)

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError, match="'validation' or 'test'"):
            StackedSets([small_draw()], ("val",))

    def test_schedules_must_agree(self):
        other = draw_states(small_spec(), StateSchedule((1, 3)))
        with pytest.raises(ValueError, match="one schedule"):
            StackedSets([small_draw(), other], ())


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
        full_x, _ = data.subset("train", np.array([1]))
        half_x, _ = halved.subset("train", np.array([1]))
        np.testing.assert_array_equal(half_x, full_x[:5])

    @pytest.mark.parametrize("knobs, sizes", DRAWS + [(dict(train_per_class=1), (2, 2))])
    def test_halved_draw_equals_the_halved_whole_draw(self, knobs, sizes):
        """Halving each block keeps, bit for bit, the rows that halving the
        whole draw keeps, in the same order."""
        spec, schedule = small_spec(**knobs), StateSchedule(sizes)
        want = halve_train_split(reference_dataset(spec, schedule))
        assert_same_rows(joined(draw_states(spec, schedule, halve=True)), want)
