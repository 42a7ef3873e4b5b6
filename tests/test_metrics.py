"""Accuracy bookkeeping, ``transfer.score_state``'s counts and
``RunMetrics``, checked against loop-and-count oracles."""

import math

import numpy as np
import pytest

from calib_il.logits import StateLogits
from calib_il.schedule import StateSchedule
from calib_il.transfer import RunMetrics, score_state
from oracles import mean_scores_by_group, per_state_accuracy, predict, run_metrics


def score_predictions(preds, labels, sched, state):
    """``score_state``'s raw row for scores whose top-1 classes are
    ``preds``: 1 at each row's predicted class and 0 elsewhere."""
    scores = np.zeros((len(labels), sched.classes_through(state)))
    scores[np.arange(len(labels)), preds] = 1.0
    return score_state(StateLogits(state, scores, labels, sched), [None])


class TestPredict:
    """Top-1 picks, seen through ``score_state``'s accuracy."""

    def test_argmax_rows(self):
        sched = StateSchedule((1, 2))
        scores = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.0]])
        for labels, accuracy in (([1, 0], 1.0), ([1, 1], 0.5), ([2, 2], 0.0)):
            logits = StateLogits(2, scores, np.array(labels), sched)
            assert score_state(logits, [None])[0] == accuracy

    def test_ties_take_lowest_index(self):
        sched = StateSchedule((1, 2))
        for label, accuracy in ((0, 1.0), (1, 0.0), (2, 0.0)):
            logits = StateLogits(2, np.array([[1.0, 1.0, 1.0]]), np.array([label]), sched)
            assert score_state(logits, [None])[0] == accuracy


class TestPerStateAccuracy:
    def test_loop_and_count_oracle(self):
        sched = StateSchedule((2, 3, 1))
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, 50)
        preds = rng.integers(0, 6, 50)
        overall, by_group = score_predictions(preds, labels, sched, 3)

        hits = total = 0
        group_hits = {1: 0, 2: 0, 3: 0}
        group_total = {1: 0, 2: 0, 3: 0}
        for p, y in zip(preds, labels):
            k = sched.class_to_state[y]
            total += 1
            group_total[k] += 1
            if p == y:
                hits += 1
                group_hits[k] += 1
        assert overall == hits / total
        assert len(by_group) == 3
        for k in (1, 2, 3):
            assert by_group[k - 1] == group_hits[k] / group_total[k]

    def test_empty_group_reports_nan(self):
        sched = StateSchedule((1, 1))
        labels = np.zeros(5, dtype=int)  # only group 1 present
        overall, by_group = score_predictions(labels, labels, sched, 2)
        assert overall == 1.0
        assert by_group[0] == 1.0
        assert math.isnan(by_group[1])

    def test_misaligned_rejected(self):
        """Scores and labels that do not align never reach the scorer, and
        an empty evaluation set is refused by it."""
        sched = StateSchedule((1, 1))
        with pytest.raises(ValueError, match="align"):
            StateLogits(2, np.zeros((3, 2)), np.zeros(4, dtype=int), sched)
        with pytest.raises(ValueError, match="empty evaluation set"):
            score_predictions(np.zeros(0, dtype=int), np.zeros(0, dtype=int), sched, 2)

    def test_overall_is_sample_weighted_group_mean(self):
        """Overall accuracy must equal the group accuracies weighted by the
        number of samples in each group."""
        sched = StateSchedule((2, 2))
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 37)
        preds = rng.integers(0, 4, 37)
        overall, by_group = score_predictions(preds, labels, sched, 2)
        counts = {k: sum(sched.class_to_state[y] == k for y in labels) for k in (1, 2)}
        weighted = sum(by_group[k - 1] * counts[k] for k in (1, 2)) / len(labels)
        np.testing.assert_allclose(overall, weighted, rtol=1e-14)

    def test_bincount_groups_bitwise_equal_per_mask_mean(self):
        """Each group entry has the bits of np.mean over that group's hits;
        a group without samples is nan."""
        rng = np.random.default_rng(2)
        empty = 0
        for trial in range(50):
            sched = StateSchedule(tuple(int(v) for v in rng.integers(1, 5, 4)))
            state = int(rng.integers(1, 5))
            cols = sched.classes_through(state)
            n = int(rng.integers(1, 300))
            labels = rng.integers(0, cols, n)
            if trial % 5 == 0 and state > 1:  # empty out the newest group
                labels = labels % sched.classes_through(state - 1)
            preds = np.where(rng.random(n) < rng.random(), labels, rng.integers(0, cols, n))
            overall, by_group = score_predictions(preds, labels, sched, state)
            hits = preds == labels
            label_groups = np.array([sched.class_to_state[y] for y in labels])
            assert overall == float(np.mean(hits))
            for k in range(1, state + 1):
                mask = label_groups == k
                if mask.any():
                    assert by_group[k - 1].tobytes() == np.float64(np.mean(hits[mask])).tobytes()
                else:
                    assert math.isnan(by_group[k - 1])
                    empty += 1
        assert empty > 0


class TestAverages:
    def test_drops_first_state(self):
        rows = [(0.9, [0.9]), (0.5, [0.4, 0.6]), (0.7, [0.7, 0.6, 0.8])]
        np.testing.assert_allclose(
            RunMetrics.from_rows(rows).average_incremental_accuracy, (0.5 + 0.7) / 2,
            rtol=1e-15)


class TestScoreStats:
    def test_blockwise_mean_and_population_std(self):
        sched = StateSchedule((1, 2))
        matrix = np.array([[1.0, 2.0, 3.0], [5.0, 4.0, 0.0]])
        logits = StateLogits(2, matrix, np.array([0, 1]), sched)
        stats = mean_scores_by_group(logits)
        block1 = [1.0, 5.0]
        block2 = [2.0, 3.0, 4.0, 0.0]
        for k, block in ((1, block1), (2, block2)):
            mean = sum(block) / len(block)
            var = sum((v - mean) ** 2 for v in block) / len(block)
            np.testing.assert_allclose(stats[k], (mean, math.sqrt(var)), rtol=1e-15)


def make_run_scores(seed, sizes, n=30):
    sched = StateSchedule(sizes)
    rng = np.random.default_rng(seed)
    scores, labels = [], []
    for s in range(1, sched.num_states + 1):
        cols = sched.classes_through(s)
        scores.append(rng.normal(0, 2, (n, cols)))
        labels.append(rng.integers(0, cols, n))
    return scores, labels, sched


class TestRunMetrics:
    def test_consistent_with_per_state_calls(self):
        scores, labels, sched = make_run_scores(0, (2, 1, 2))
        metrics = run_metrics(scores, labels, sched)
        for s in range(1, 4):
            overall, by_group = per_state_accuracy(
                predict(scores[s - 1]), labels[s - 1], sched, s)
            assert metrics.per_state_accuracy[s - 1] == overall
            np.testing.assert_array_equal(metrics.group_accuracy[s - 1, :s], by_group)
        np.testing.assert_allclose(
            metrics.average_incremental_accuracy,
            np.mean(metrics.per_state_accuracy[1:]), rtol=1e-15)

    def test_single_state_run(self):
        scores, labels, sched = make_run_scores(1, (3,))
        metrics = run_metrics(scores, labels, sched)
        assert len(metrics.per_state_accuracy) == 1
        assert math.isnan(metrics.average_incremental_accuracy)
        assert metrics.group_accuracy.shape == (1, 1)

    def test_state_count_mismatch_rejected(self):
        """Rows must be one per state 1..S, in order."""
        scores, labels, sched = make_run_scores(2, (2, 2))
        rows = [per_state_accuracy(predict(m), y, sched, s)
                for s, (m, y) in enumerate(zip(scores, labels), start=1)]
        for bad in (rows[1:], rows[::-1], rows + rows[:1], []):
            with pytest.raises(ValueError, match="one row per state"):
                RunMetrics.from_rows(bad)


class TestAccuracyMatrix:
    def test_lower_triangular_layout(self):
        scores, labels, sched = make_run_scores(3, (2, 2, 2))
        metrics = run_metrics(scores, labels, sched)
        matrix = metrics.group_accuracy
        assert matrix.shape == (3, 3)
        for s in range(1, 4):
            _, by_group = per_state_accuracy(predict(scores[s - 1]), labels[s - 1], sched, s)
            for k in range(1, 4):
                if k <= s:
                    value = by_group[k - 1]
                    if math.isnan(value):
                        assert math.isnan(matrix[s - 1, k - 1])
                    else:
                        assert matrix[s - 1, k - 1] == value
                else:
                    assert math.isnan(matrix[s - 1, k - 1])
