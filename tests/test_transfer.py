"""Table averaging, transfer application, and the per-state oracle."""

import numpy as np
import pytest

from calib_il.calibration import CalibrationTable, apply_table
from calib_il.logits import StateLogits
from calib_il.schedule import StateSchedule
from calib_il.transfer import (apply_transfer, average_tables, oracle_select,
                               param_count)


def random_table(seed, num_states):
    rng = np.random.default_rng(seed)
    entries = {}
    for s in range(2, num_states + 1):
        for k in range(1, s + 1):
            entries[(s, k)] = (float(rng.normal(1, 0.4)), float(rng.normal(0, 0.4)))
    return CalibrationTable.from_pairs(num_states, entries.items())


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


class TestParamCount:
    def test_enumeration_oracle(self):
        """Count the stored scalars directly: two per (s, k) pair."""
        for S in range(2, 13):
            pairs = sum(1 for s in range(2, S + 1) for _ in range(1, s + 1))
            assert param_count(S) == 2 * pairs

    def test_reference_sizes(self):
        assert param_count(5) == 28
        assert param_count(10) == 108
        assert param_count(20) == 418

    def test_matches_identity_table(self):
        for S in (2, 5, 10, 20):
            table = CalibrationTable.identity(S)
            pairs = sum(len(table.pairs_for_state(s)[0]) for s in range(2, S + 1))
            assert param_count(S) == 2 * pairs

    def test_small_states_rejected(self):
        with pytest.raises(ValueError):
            param_count(1)


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
        tables = [CalibrationTable.identity(3)] * 5
        assert average_tables(tables) == CalibrationTable.identity(3)

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
        result = apply_transfer(run, table)
        np.testing.assert_array_equal(result.corrected[0], run[0].matrix)
        for lg, scores in zip(run[1:], result.corrected[1:]):
            np.testing.assert_array_equal(scores, apply_table(lg, table))

    def test_none_table_scores_raw_run(self):
        run = make_run(1, (2, 2))
        result = apply_transfer(run, None, method="raw")
        for lg, scores in zip(run, result.corrected):
            np.testing.assert_array_equal(scores, lg.matrix)
        assert result.metrics.method == "raw"

    def test_identity_table_equals_raw(self):
        run = make_run(2, (2, 2, 2))
        raw = apply_transfer(run, None)
        ident = apply_transfer(run, CalibrationTable.identity(3))
        assert raw.metrics.per_state_accuracy == ident.metrics.per_state_accuracy
        for p, q in zip(raw.predictions, ident.predictions):
            np.testing.assert_array_equal(p, q)

    def test_short_table_rejected(self):
        run = make_run(3, (2, 2, 2))
        with pytest.raises(ValueError, match="does not cover"):
            apply_transfer(run, CalibrationTable.identity(2))

    def test_states_must_be_ordered(self):
        run = make_run(4, (2, 2))
        with pytest.raises(ValueError, match="states 1..S in order"):
            apply_transfer(run[::-1], None)
        with pytest.raises(ValueError):
            apply_transfer([], None)


class TestOracle:
    def test_dominates_every_single_table(self):
        """Per state, the oracle accuracy equals the max over tables, so it
        is >= each individual table's accuracy with exact arithmetic."""
        run = make_run(5, (2, 1, 2), n=40)
        tables = [random_table(10 + i, 3) for i in range(6)]
        oracle = oracle_select(tables, run)
        for table in tables:
            single = apply_transfer(run, table)
            for s in range(2, 4):
                assert (oracle.metrics.per_state_accuracy[s - 1]
                        >= single.metrics.per_state_accuracy[s - 1])

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
        oracle = oracle_select([wreck, repair], run)
        assert oracle.chosen == {2: 1}

    def test_ties_break_to_lowest_index(self):
        run = make_run(7, (2, 2))
        table = random_table(20, 2)
        oracle = oracle_select([table, table, table], run)
        assert oracle.chosen == {2: 0}

    def test_flagged_not_deployable(self):
        run = make_run(8, (1, 1))
        oracle = oracle_select([CalibrationTable.identity(2)], run)
        assert oracle.metrics.notes["deployable"] is False
        assert oracle.metrics.method == "oracle"

    def test_empty_tables_rejected(self):
        run = make_run(9, (2, 2))
        with pytest.raises(ValueError):
            oracle_select([], run)
