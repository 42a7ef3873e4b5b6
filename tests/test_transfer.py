"""Table averaging, the one-pass scorer, and the per-state oracle."""

import numpy as np
import pytest

from calib_il.calibration import CalibrationTable
from calib_il.logits import StateLogits
from calib_il.schedule import StateSchedule
from calib_il.transfer import RunMetrics, average_tables, score_state
from oracles import apply_table, identity_table, per_state_accuracy, predict, run_metrics


def random_table(seed, num_states):
    rng = np.random.default_rng(seed)
    entries = {}
    for s in range(2, num_states + 1):
        for k in range(1, s + 1):
            entries[(s, k)] = (float(rng.normal(1, 0.4)), float(rng.normal(0, 0.4)))
    return CalibrationTable.from_pairs(num_states, entries.items())


def assert_same_metrics(a: RunMetrics, b: RunMetrics):
    np.testing.assert_array_equal(a.per_state_accuracy, b.per_state_accuracy)
    np.testing.assert_array_equal(a.group_accuracy, b.group_accuracy)
    assert a.average_incremental_accuracy == b.average_incremental_accuracy


def score_run(run, tables):
    """A whole run's metrics, each state scored by ``score_state``."""
    return RunMetrics.from_rows([score_state(lg, tables) for lg in run])


def make_run(seed, sizes, n=25):
    """Per-state logits for a full run, one matrix per state 1..S."""
    sched = StateSchedule(sizes)
    rng = np.random.default_rng(seed)
    out = []
    for s in range(1, sched.num_states + 1):
        cols = sched.classes_through(s)
        matrix = rng.normal(0, 2, (n, cols))
        labels = rng.integers(0, cols, n)
        out.append(StateLogits(s, matrix, labels, sched))
    return out


def table_scalars(table: CalibrationTable) -> int:
    """The scalars a table serves: an alpha and a beta per (state, group)
    pair."""
    return 2 * sum(len(table.pairs_for_state(s)[0]) for s in range(2, table.num_states + 1))


class TestParamCount:
    """A table over S states holds 2*(2+3+...+S) = (S+2)(S-1) scalars."""

    def test_enumeration_oracle(self):
        """Count the (s, k) pairs directly, on tables built from them."""
        for S in range(2, 13):
            pairs = [(s, k) for s in range(2, S + 1) for k in range(1, s + 1)]
            table = CalibrationTable.from_pairs(S, ((key, (1.5, 0.5)) for key in pairs))
            assert table_scalars(table) == 2 * len(pairs) == (S + 2) * (S - 1)

    def test_reference_sizes(self):
        assert [table_scalars(identity_table(S)) for S in (5, 10, 20)] \
            == [28, 108, 418]

    def test_matches_identity_table(self):
        """The closed form also matches the pair count a table's repr shows."""
        for S in (2, 5, 10, 20):
            table = identity_table(S)
            assert table_scalars(table) == (S + 2) * (S - 1)
            assert f"pairs={table_scalars(table) // 2})" in repr(table)


class TestAverageTables:
    def test_elementwise_mean(self):
        """Each pair is bitwise the per-entry mean, at R=3 and at R=10;
        numpy reduces a stack along axis 0 in another order once R >= 8."""
        for num_tables in (3, 10):
            tables = [random_table(i, 3) for i in range(num_tables)]
            avg = average_tables(tables)
            for s in (2, 3):
                for k in range(1, s + 1):
                    assert avg.alpha[s - 2, k - 1] == float(
                        np.mean([t.alpha[s - 2, k - 1] for t in tables]))
                    assert avg.beta[s - 2, k - 1] == float(
                        np.mean([t.beta[s - 2, k - 1] for t in tables]))

    def test_single_table_unchanged(self):
        table = random_table(7, 4)
        assert average_tables([table]) == table

    def test_identity_average_stays_identity(self):
        tables = [identity_table(3)] * 5
        assert average_tables(tables) == identity_table(3)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError, match="same number of states"):
            average_tables([random_table(0, 2), random_table(1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_tables([])


class TestApplyTransfer:
    def test_corrected_scores_match_apply_table(self):
        run = make_run(0, (2, 2, 1))
        table = random_table(3, 3)
        scores = [run[0].matrix] + [apply_table(lg, table) for lg in run[1:]]
        assert_same_metrics(
            score_run(run, [table]),
            run_metrics(scores, [lg.labels for lg in run], run[0].schedule))

    def test_none_table_scores_raw_run(self):
        run = make_run(1, (2, 2))
        assert_same_metrics(
            score_run(run, [None]),
            run_metrics([lg.matrix for lg in run], [lg.labels for lg in run],
                        run[0].schedule))

    def test_identity_table_equals_raw(self):
        run = make_run(2, (2, 2, 2))
        assert_same_metrics(score_run(run, [None]),
                            score_run(run, [identity_table(3)]))

    def test_short_table_rejected(self):
        run = make_run(3, (2, 2, 2))
        with pytest.raises(ValueError, match="does not cover"):
            score_run(run, [identity_table(2)])

    def test_states_must_be_ordered(self):
        run = make_run(4, (2, 2))
        with pytest.raises(ValueError, match="one row per state 1..S, in order"):
            score_run(run[::-1], [None])
        with pytest.raises(ValueError, match="one row per state 1..S, in order"):
            score_run([], [None])


class TestOracle:
    def test_dominates_every_single_table(self):
        """Per state, the oracle accuracy equals the max over tables, so it
        is >= each individual table's accuracy with exact arithmetic."""
        run = make_run(5, (2, 1, 2), n=40)
        tables = [random_table(10 + i, 3) for i in range(6)]
        oracle = score_run(run, tables)
        for table in tables:
            single = score_run(run, [table])
            for s in range(2, 4):
                assert oracle.per_state_accuracy[s - 1] >= single.per_state_accuracy[s - 1]

    def test_picks_the_winning_table(self):
        """One table undoes a known corruption, the other worsens it; the
        oracle must choose the former."""
        sched = StateSchedule((2, 2))
        rng = np.random.default_rng(6)
        centers = np.array([[4.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0],
                            [0.0, 0.0, 4.0, 0.0], [0.0, 0.0, 0.0, 4.0]])
        labels = rng.integers(0, 4, 200)
        clean = centers[labels] + rng.normal(0, 0.5, (200, 4))
        corrupted = clean.copy()
        corrupted[:, 2:] = 0.25 * corrupted[:, 2:] - 3.0
        run = [
            StateLogits(1, clean[:, :2], np.clip(labels, 0, 1), sched),
            StateLogits(2, corrupted, labels, sched),
        ]
        repair = CalibrationTable.from_pairs(2, [((2, 1), (1.0, 0.0)), ((2, 2), (4.0, 12.0))])
        wreck = CalibrationTable.from_pairs(2, [((2, 1), (1.0, 0.0)), ((2, 2), (0.1, -5.0))])
        repaired = score_run(run, [repair])
        assert (repaired.per_state_accuracy[1]
                > score_run(run, [wreck]).per_state_accuracy[1])
        assert_same_metrics(score_run(run, [wreck, repair]), repaired)

    def test_ties_break_to_lowest_index(self):
        """Boosting group 1 fixes sample 0 and boosting group 2 fixes
        sample 1: both tables score 1/2 at state 2, with opposite group
        accuracies, so the oracle's group row is the first table's."""
        sched = StateSchedule((2, 2))
        run = [
            StateLogits(1, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), sched),
            StateLogits(2, np.array([[1.0, 0.0, 1.5, 0.0], [1.5, 0.0, 1.0, 0.0]]),
                        np.array([0, 2]), sched),
        ]
        boost_old = CalibrationTable.from_pairs(2, [((2, 1), (1.0, 1.0)), ((2, 2), (1.0, 0.0))])
        boost_new = CalibrationTable.from_pairs(2, [((2, 1), (1.0, 0.0)), ((2, 2), (1.0, 1.0))])
        for first, second, row in ((boost_old, boost_new, [1.0, 0.0]),
                                   (boost_new, boost_old, [0.0, 1.0])):
            oracle = score_run(run, [first, second])
            assert oracle.per_state_accuracy[1] == 0.5
            np.testing.assert_array_equal(oracle.group_accuracy[1], row)
            assert_same_metrics(oracle, score_run(run, [first]))

    def test_empty_tables_rejected(self):
        run = make_run(9, (2, 2))
        for logits in run:
            with pytest.raises(ValueError, match="at least one table"):
                score_state(logits, [])

    def test_tied_candidates_give_the_first_ones_groups(self):
        """Two tables tie on overall accuracy but split it differently over
        the groups: the row is the first table's overall accuracy and the
        first table's group breakdown, computed by the oracles."""
        found = 0
        for seed in range(200):
            run = make_run(seed, (2, 2, 2), n=8)
            tables = [random_table(1000 + 2 * seed + i, 3) for i in range(2)]
            for logits in run[1:]:
                first, second = (per_state_accuracy(predict(apply_table(logits, t)),
                                                    logits.labels, logits.schedule,
                                                    logits.state) for t in tables)
                if first[0] != second[0] or np.array_equal(first[1], second[1],
                                                           equal_nan=True):
                    continue
                found += 1
                for order, expected in ((tables, first), (tables[::-1], second)):
                    overall, groups = score_state(logits, order)
                    assert overall == expected[0]
                    np.testing.assert_array_equal(groups, expected[1])
        assert found >= 5, f"only {found} tied states with different breakdowns"

