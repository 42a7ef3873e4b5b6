"""Serialization round-trips and located failure reporting.

Every reader must either return values bit-identical to what was written
or raise a DataFileError subtype that names the offending file.
"""

import json
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from calib_il import storage
from calib_il.calibration import CalibrationTable
from calib_il.errors import MetadataError, SchemaError
from calib_il.logits import StateLogits
from calib_il.schedule import StateSchedule
from calib_il.storage import (read_fingerprint, read_logits, read_metrics_rows,
                              read_table, write_dataset, write_logits,
                              write_metrics, write_table)
from calib_il.synth import SPLITS, StateBlock, StateDraw, SynthSpec, draw_states
from oracles import identity_table, read_dataset, run_metrics
from test_synth import assert_same_rows, joined


def one_block_draw(features, labels, split, name, seed=0):
    """A one-state draw over the classes of ``labels`` that holds one block."""
    schedule = StateSchedule((int(labels.max()) + 1,))
    return StateDraw(schedule, {tag: int(np.sum(split == tag)) for tag in SPLITS},
                     iter([StateBlock(features, labels, split)]), name, seed)


def expect_of(logits: StateLogits) -> tuple:
    """What ``read_logits`` checks a file of ``logits`` against: the
    ``(dataset, seed, state, schedule, rows)`` of the spec that made it."""
    return logits.dataset, logits.seed, logits.state, logits.schedule, len(logits.labels)


def tricky_logits():
    """Values chosen to break naive float formatting: a decimal that has no
    exact binary form, a repeating fraction, and a subnormal-ish tiny."""
    sched = StateSchedule((2, 2))
    matrix = np.array([[0.1, -0.2, 1e-17, 3.5],
                       [1 / 3, 2 / 3, -1.0, 12345.6789]])
    return StateLogits(2, matrix, np.array([0, 3]), sched,
                       dataset="ref_0", backbone="ftplus", seed=4)


TRICKY = expect_of(tricky_logits())

# Edits to the two data rows of a ``tricky_logits`` file, each row with its
# line end, with the error both parses must report (None: both return the
# written bits).
BODY_MUTATIONS = {
    "clean": (lambda rows: rows, None),
    "bad-id": (lambda rows: ["a" + rows[0], rows[1]], None),
    "blank-line": (lambda rows: [rows[0], "\n", rows[1]], "row 3: expected 6 fields, got 0"),
    "trailing-blank-line": (lambda rows: [*rows, "\n"], "row 4: expected 6 fields, got 0"),
    "no-final-newline": (lambda rows: [rows[0], rows[1].rstrip("\n")], None),
    "hash": (lambda rows: [rows[0].replace("3.5", "3.5#x"), rows[1]],
             "row 2 column c3: '3.5#x' is not a number"),
    "quoted": (lambda rows: [rows[0].replace("0.1", '"0.1"'), rows[1]], None),
    "crlf": (lambda rows: [row.replace("\n", "\r\n") for row in rows], None),
    "ragged": (lambda rows: [rows[0], rows[1].rsplit(",", 1)[0] + "\n"],
               "row 3: expected 6 fields, got 5"),
    "header-only": (lambda rows: [], "no data rows"),
    "trailing-spaces": (lambda rows: [row.replace("\n", "  \n") for row in rows], None),
    "label-2.0": (lambda rows: [rows[0].replace("0,0,", "0,0.0,", 1), rows[1]], None),
    "label-2.5": (lambda rows: [rows[0].replace("0,0,", "0,2.5,", 1), rows[1]],
                  "row 2 label: '2.5' is not an integer"),
    "label-past-state": (lambda rows: [rows[0].replace("0,0,", "0,4,", 1), rows[1]],
                         "row 2 label: '4' outside the schedule's 0..3"),
    "label-huge": (lambda rows: [rows[0].replace("0,0,", "0,1e300,", 1), rows[1]],
                   "row 2 label: '1e300' outside the schedule's 0..3"),
    "nan-score": (lambda rows: [rows[0].replace("0.1", "nan"), rows[1]],
                  "row 2 column c0: non-finite value 'nan'"),
}


class TestLogitsRoundTrip:
    def test_bit_exact(self, tmp_path):
        path = tmp_path / "lg.csv"
        logits = tricky_logits()
        write_logits(path, logits)
        back = read_logits(path, expect_of(logits))
        assert back.matrix.tobytes() == logits.matrix.tobytes()
        np.testing.assert_array_equal(back.labels, logits.labels)
        assert back.state == 2
        assert back.schedule == logits.schedule
        assert (back.dataset, back.backbone, back.seed) == ("ref_0", "ftplus", 4)

    def test_sidecar_written_next_to_csv(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        meta = json.loads((tmp_path / "lg.csv.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["class_to_state"] == [1, 1, 2, 2]

    def test_missing_sidecar_is_metadata_error(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        os.unlink(tmp_path / "lg.csv.meta.json")
        with pytest.raises(MetadataError, match="missing logits metadata"):
            read_logits(path, TRICKY)

    def test_invalid_sidecar_json(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        (tmp_path / "lg.csv.meta.json").write_text("{not json")
        with pytest.raises(MetadataError, match="invalid JSON"):
            read_logits(path, TRICKY)

    def test_sidecar_without_version(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        (tmp_path / "lg.csv.meta.json").write_text("{}")
        with pytest.raises(MetadataError, match="schema_version"):
            read_logits(path, TRICKY)

    def test_header_protocol_mismatch(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[0] = "id,label,c0,c1,c2"  # one score column short
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="sidecar protocol"):
            read_logits(path, TRICKY)

    def test_short_row_locates_line(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[2] = "1,3,0.5,0.5,0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_logits(path, TRICKY)

    def test_non_numeric_score_locates_cell(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.1", "zero.one")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 2 column c0"):
            read_logits(path, TRICKY)

    def test_non_finite_score_rejected(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.1", "inf")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="non-finite"):
            read_logits(path, TRICKY)

    def test_sidecar_state_count_disagreement(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        sidecar = tmp_path / "lg.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["num_states"] = 3
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match="sidecar num_states 3 is not the spec's 2"):
            read_logits(path, TRICKY)

    def test_uneven_schedule_round_trips(self, tmp_path):
        path = tmp_path / "lg.csv"
        schedule = StateSchedule((3, 1, 2))
        logits = StateLogits(3, np.zeros((2, 6)), np.array([0, 5]), schedule,
                             dataset="d", backbone="b", seed=0)
        write_logits(path, logits)
        assert read_logits(path, expect_of(logits)).schedule == schedule

    @pytest.mark.parametrize("class_to_state", [
        [1, 1, 3, 3], [2, 2, 1, 1], [2, 2, 3, 3], [1, 2, 1, 2], [],
    ], ids=["skipped-state", "unordered", "start-2", "interleaved", "empty"])
    def test_class_to_state_of_no_schedule_is_refused(self, tmp_path, class_to_state):
        """A list that is not the spec's schedule is refused without
        being printed."""
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        sidecar = tmp_path / "lg.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["class_to_state"] = class_to_state
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match="sidecar class_to_state differs from the "
                                                "spec's$"):
            read_logits(path, TRICKY)

    def test_many_states_read_in_linear_time(self, tmp_path):
        """A 20,000-state sidecar is checked in one pass over its list."""
        path = tmp_path / "lg.csv"
        schedule = StateSchedule((1,) * 20_000)
        logits = StateLogits(2, np.zeros((3, 2)), np.array([0, 1, 0]), schedule,
                             dataset="d", backbone="b", seed=0)
        write_logits(path, logits)
        start = time.perf_counter()
        back = read_logits(path, expect_of(logits))
        elapsed = time.perf_counter() - start
        assert back.schedule == schedule
        assert elapsed < 0.5, f"{elapsed:.2f} s"

    def test_error_carries_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(MetadataError) as err:
            read_logits(path, TRICKY)
        assert str(tmp_path) in err.value.path

    @pytest.mark.parametrize("key,value", [
        ("state", "two"), ("seed", [1]), ("num_states", None),
    ])
    def test_uncoercible_sidecar_field_is_metadata_error(self, tmp_path, key, value):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        sidecar = tmp_path / "lg.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match=key) as err:
            read_logits(path, TRICKY)
        assert err.value.path == str(sidecar)

    def test_bulk_parse_equals_cell_by_cell(self, tmp_path, monkeypatch):
        """The one-call parse and the per-cell parse agree on every file in
        ``BODY_MUTATIONS``: the written bits, or the same located error. A
        file whose id column does not parse takes the per-cell path, which
        ignores ids. Neither path warns."""
        logits = tricky_logits()
        for name, (mutate, error) in BODY_MUTATIONS.items():
            path = tmp_path / f"{name}.csv"
            write_logits(path, logits)
            header, *rows = path.read_text().splitlines(keepends=True)
            path.write_bytes("".join([header, *mutate(rows)]).encode())

            def outcome():
                try:
                    back = read_logits(path, expect_of(logits))
                except SchemaError as exc:
                    return str(exc)
                assert back.matrix.flags.c_contiguous
                return back.matrix.tobytes(), back.labels.tobytes()

            with warnings.catch_warnings(), monkeypatch.context() as patch:
                warnings.simplefilter("error")
                bulk = outcome()
                patch.setattr(storage, "_bulk_logits", lambda *args: None)
                cells = outcome()
            assert bulk == cells, name
            if error is None:
                assert bulk == (logits.matrix.tobytes(), logits.labels.tobytes()), name
            else:
                assert error in bulk and str(path) in bulk, (name, bulk)

    def test_read_peaks_below_three_and_a_half_times_the_file(self, tmp_path):
        """A 1000x100 logits file is parsed without a copy of its text
        wider than the text itself (a StringIO holds four bytes per
        character); the first read warms numpy's parser."""
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        logits = StateLogits(1, rng.normal(size=(1000, 100)), rng.integers(0, 100, 1000),
                             StateSchedule.equal_split(100, 1))
        write_logits(path, logits)
        read_logits(path, expect_of(logits))
        tracemalloc.start()
        try:
            back = read_logits(path, expect_of(logits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.matrix.shape == (1000, 100)
        assert peak <= 3.5 * path.stat().st_size

    def test_read_holds_no_copy_of_the_text(self, tmp_path):
        """The lines are streamed into the parser, so a read holds the
        parser's cell array and the score matrix but not the text (2 MB
        here, 2.5 score matrices); the first read warms numpy's parser."""
        rng = np.random.default_rng(0)
        path = tmp_path / "wide.csv"
        logits = StateLogits(1, rng.normal(size=(1000, 100)), rng.integers(0, 100, 1000),
                             StateSchedule.equal_split(100, 1))
        write_logits(path, logits)
        read_logits(path, expect_of(logits))
        tracemalloc.start()
        try:
            back = read_logits(path, expect_of(logits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * back.matrix.nbytes

    def test_well_formed_body_takes_the_bulk_path(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        body = path.read_text().split("\n", 1)[1]
        labels, matrix = storage._bulk_logits(body.splitlines(keepends=True), 4)
        assert matrix.tobytes() == tricky_logits().matrix.tobytes()
        assert labels.tolist() == [0, 3]


class TestPinnedBytes:
    """The writers render each float with its shortest round-trip repr."""

    EDGES = np.array([[-0.0, 5e-324], [1e16, 1e-05], [1.7976931348623157e308, 3.0]])

    def test_logits_bytes(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, StateLogits(1, self.EDGES, np.array([1, 0, 1]), StateSchedule((2,))))
        assert path.read_bytes() == (b"id,label,c0,c1\n"
                                     b"0,1,-0.0,5e-324\n"
                                     b"1,0,1e+16,1e-05\n"
                                     b"2,1,1.7976931348623157e+308,3.0\n")

    def test_dataset_bytes(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, one_block_draw(self.EDGES, np.zeros(3, dtype=np.int64),
                                           np.array(SPLITS, dtype=object), "edges"))
        assert path.read_bytes() == (b"x0,x1,label,split\n"
                                     b"-0.0,5e-324,0,train\n"
                                     b"1e+16,1e-05,0,validation\n"
                                     b"1.7976931348623157e+308,3.0,0,test\n")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_repr_of_each_value(self, tmp_path, seed):
        """Magnitudes from 1e-300 to 1e300 and some -0.0 cells, over many
        chunks of rows, so that cells the vectorized path writes and cells
        left to repr share rows."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 10.0 ** rng.integers(-300, 300, (300, 64)), (300, 64))
        matrix[rng.random((300, 64)) < 0.02] = -0.0
        labels = np.arange(300) % 64
        split = np.array(SPLITS * 100, dtype=object)
        write_logits(tmp_path / "lg.csv", StateLogits(1, matrix, labels, StateSchedule((64,))))
        rows = (tmp_path / "lg.csv").read_text().splitlines()[1:]
        assert rows == [f"{i},{labels[i]}," + ",".join(repr(float(v)) for v in matrix[i])
                        for i in range(300)]
        write_dataset(tmp_path / "d.csv", one_block_draw(matrix, labels, split, "r", seed))
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert rows == [",".join(repr(float(v)) for v in matrix[i]) + f",{labels[i]},{split[i]}"
                        for i in range(300)]


def write_peak(write) -> int:
    """Peak traced bytes of ``write()``."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedWrites:
    def test_logits_peak_does_not_grow_with_rows(self, tmp_path):
        """Rows are rendered a chunk at a time: four times the rows raise
        the peak by at most a tenth; the first write warms the kernel."""
        rng = np.random.default_rng(0)

        def peak(num_rows):
            logits = StateLogits(1, rng.normal(size=(num_rows, 100)),
                                 rng.integers(0, 100, num_rows), StateSchedule.equal_split(100, 1))
            return write_peak(lambda: write_logits(tmp_path / "lg.csv", logits))

        peak(10)
        assert peak(4000) <= 1.1 * peak(1000)

    def test_dataset_holds_one_block_at_a_time(self, tmp_path):
        """Each block is dropped before the next is drawn. With blocks of
        2.15 MB the peak stays under one and a half blocks; holding the
        previous block while drawing the next takes two."""
        spec = SynthSpec(num_classes=20, feature_dim=64, train_per_class=400, seed=7)

        def draw():
            return draw_states(spec, StateSchedule((10, 10)), name="big")

        block = next(draw().blocks).features.nbytes
        warm = one_block_draw(np.ones((2, 2)), np.zeros(2, dtype=np.int64),
                              np.array(SPLITS[:2], dtype=object), "warm")
        write_dataset(tmp_path / "warm.csv", warm)
        assert write_peak(lambda: write_dataset(tmp_path / "d.csv", draw())) <= 1.5 * block


class TestFingerprint:
    def test_written_only_when_given(self, tmp_path):
        write_logits(tmp_path / "a.csv", tricky_logits())
        write_logits(tmp_path / "b.csv", tricky_logits(), "abc")
        write_table(tmp_path / "t.json", identity_table(3), "def")
        assert "fingerprint" not in json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert read_fingerprint(tmp_path / "b.csv.meta.json") == "abc"
        assert read_fingerprint(tmp_path / "t.json") == "def"
        assert read_logits(tmp_path / "b.csv", TRICKY).matrix.tobytes() \
            == tricky_logits().matrix.tobytes()
        assert read_table(tmp_path / "t.json", 3) == identity_table(3)

    def test_missing_fingerprint_names_the_file(self, tmp_path):
        write_table(tmp_path / "t.json", identity_table(2))
        with pytest.raises(MetadataError, match="no spec fingerprint") as err:
            read_fingerprint(tmp_path / "t.json")
        assert err.value.path == str(tmp_path / "t.json")


class TestTableRoundTrip:
    def test_values_and_entry_count(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = {(s, k): (float(rng.normal(1, 0.3)), float(rng.normal(0, 0.3)))
                   for s in range(2, 6) for k in range(1, s + 1)}
        table = CalibrationTable.from_pairs(5, entries.items())
        path = tmp_path / "t.table.json"
        write_table(path, table)
        payload = json.loads(path.read_text())
        assert len(payload["entries"]) == 14  # pairs for S=5: 2+3+4+5
        assert read_table(path, 5) == table

    def test_missing_pair_named(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, identity_table(3))
        payload = json.loads(path.read_text())
        payload["entries"] = [e for e in payload["entries"]
                              if not (e["s"] == 3 and e["k"] == 2)]
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match=r"missing pairs \[\(3, 2\)\]"):
            read_table(path, 3)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, identity_table(2))
        payload = json.loads(path.read_text())
        payload["entries"].append(dict(payload["entries"][0]))
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match="duplicate table entry"):
            read_table(path, 2)

    @pytest.mark.parametrize("mangle", [
        lambda p: p.update(entries=5),
        lambda p: p.update(entries={"s": 2}),
        lambda p: p.update(num_states="three"),
        lambda p: p["entries"][0].update(alpha="oops"),
        lambda p: p["entries"][0].update(beta=[0.0]),
        lambda p: p["entries"][0].update(s="two"),
        lambda p: p["entries"][0].update(k=None),
        lambda p: p["entries"].__setitem__(0, 5),
    ], ids=["entries-int", "entries-object", "num-states-str", "alpha-str",
            "beta-list", "s-str", "k-null", "entry-int"])
    def test_unparseable_fields_rejected(self, tmp_path, mangle):
        path = tmp_path / "t.table.json"
        write_table(path, identity_table(2))
        payload = json.loads(path.read_text())
        mangle(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError):
            read_table(path, 2)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, identity_table(2))
        payload = json.loads(path.read_text())
        del payload["entries"][0]["alpha"]
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match="malformed table entry"):
            read_table(path, 2)


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("drift_scale, halve", [(0.0, False), (0.3, False), (0.0, True)],
                             ids=["plain", "drift", "halved"])
    def test_bit_exact(self, tmp_path, drift_scale, halve):
        """The rows that a plain CSV parser reads back are the draw's rows,
        bit for bit, and the sidecar holds its schedule, name and seed."""
        spec = SynthSpec(num_classes=6, feature_dim=5, train_per_class=7, val_per_class=3,
                         test_per_class=2, drift_scale=drift_scale, seed=4)
        schedule = StateSchedule((1, 3, 2))
        path = tmp_path / "d.csv"
        write_dataset(path, draw_states(spec, schedule, "d", halve=halve))
        back = read_dataset(path)
        assert_same_rows(back, joined(draw_states(spec, schedule, "d", halve=halve)))
        assert back.meta == {"schema_version": 1, "num_states": 3, "name": "d", "seed": 4,
                             "class_to_state": [1, 2, 2, 2, 3, 3]}


class TestMetricsFile:
    def make_metrics(self, sizes=(2, 2, 2)):
        sched = StateSchedule(sizes)
        rng = np.random.default_rng(1)
        scores = [rng.normal(0, 2, (20, sched.classes_through(s)))
                  for s in range(1, len(sizes) + 1)]
        labels = [rng.integers(0, sched.classes_through(s), 20)
                  for s in range(1, len(sizes) + 1)]
        return run_metrics(scores, labels, sched)

    def test_triangular_rows_plus_summary(self, tmp_path):
        metrics = self.make_metrics()
        path = tmp_path / "m.csv"
        write_metrics(path, metrics)
        S = 3
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + S * (S + 1) // 2 + 1
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{s},{k}" for s in range(1, S + 1) for k in range(1, s + 1)] + ["0,0"]
        assert lines[-1] == f"0,0,{metrics.average_incremental_accuracy!r}"
        matrix = read_metrics_rows(path, S)
        assert np.asarray(matrix).tobytes() == metrics.group_accuracy.tobytes()

    def test_empty_group_round_trips_as_nan(self, tmp_path):
        sched = StateSchedule((1, 1))
        scores = [np.zeros((3, 1)), np.zeros((3, 2))]
        labels = [np.zeros(3, dtype=int)] * 2  # group 2 has no samples
        metrics = run_metrics(scores, labels, sched)
        path = tmp_path / "m.csv"
        write_metrics(path, metrics)
        assert "2,2,nan" in path.read_text()
        assert path.read_text().endswith("\n0,0,1.0\n")
        matrix = read_metrics_rows(path, 2)
        np.testing.assert_array_equal(matrix, [[1.0, np.nan], [1.0, np.nan]])

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines + ["0,0,0.5"], "row 6: expected end of file, got 0,0"),
        (lambda lines: lines[:2] + lines[3:], "row 3: expected 2,1, got 2,2"),
        (lambda lines: lines[:3] + lines[4:], "row 4: expected 2,2, got 0,0"),
        (lambda lines: lines[:-1], "row 5: expected 0,0, got end of file"),
        (lambda lines: lines[:2] + ["2,1,inf"] + lines[3:],
         "row 3 accuracy: non-finite value 'inf'"),
    ], ids=["row-after-summary", "missing-cell", "early-summary", "no-summary", "inf"])
    def test_anything_but_the_triangle_and_summary_rejected(self, tmp_path, edit, message):
        path = tmp_path / "m.csv"
        write_metrics(path, self.make_metrics(sizes=(1, 1)))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(SchemaError, match=message):
            read_metrics_rows(path, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(path, self.make_metrics())
        lines = path.read_text().splitlines()
        lines[0] = "s,g,a"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="metrics header"):
            read_metrics_rows(path, 3)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        write_logits(tmp_path / "a.csv", tricky_logits())
        write_table(tmp_path / "b.table.json", identity_table(2))
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_failed_replace_cleans_up_and_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.csv"
        write_logits(path, tricky_logits())
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_logits(path, tricky_logits())
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_stream_leaves_no_file(self, tmp_path, existing):
        """A row iterable that raises midway leaves neither the target nor a
        temp file, and an existing target keeps its bytes."""
        path = tmp_path / "a.csv"
        if existing:
            path.write_text("old\n")

        def rows():
            yield "header\n"
            yield "1,2\n"
            raise RuntimeError("row 3 failed")

        with pytest.raises(RuntimeError, match="row 3 failed"):
            storage._atomic_write(path, rows())
        assert sorted(p.name for p in tmp_path.iterdir()) == (["a.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"

    def test_streamed_chunks_and_one_string_write_the_same_bytes(self, tmp_path):
        storage._atomic_write(tmp_path / "a.txt", iter(["x,1\n", "y,2\n"]))
        storage._atomic_write(tmp_path / "b.txt", "x,1\ny,2\n")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes() \
            == b"x,1\ny,2\n"

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_logits(a, tricky_logits())
        write_logits(b, tricky_logits())
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
            (tmp_path / "b.csv.meta.json").read_bytes()
