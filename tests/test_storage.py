"""Serialization round-trips and located failure reporting.

Every reader must either return values bit-identical to what was written
or raise a DataFileError subtype that names the offending file.
"""

import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from calib_il import storage
from calib_il.calibration import CalibrationTable
from calib_il.errors import MetadataError, SchemaError
from calib_il.logits import StateLogits
from calib_il.metrics import compute_run_metrics
from calib_il.schedule import StateSchedule
from calib_il.storage import (read_dataset, read_fingerprint, read_logits,
                              read_metrics_rows, read_table, write_dataset,
                              write_logits, write_metrics, write_table)
from calib_il.synth import SPLITS, StateBlock, StateDraw, SynthSpec, draw_states
from test_synth import joined


def one_block_draw(features, labels, split, name, seed=0):
    """A one-state draw over the classes of ``labels`` that holds one block."""
    schedule = StateSchedule((int(labels.max()) + 1,))
    return StateDraw(schedule, {tag: int(np.sum(split == tag)) for tag in SPLITS},
                     iter([StateBlock(features, labels, split)]), name, seed)


def tricky_logits():
    """Values chosen to break naive float formatting: a decimal that has no
    exact binary form, a repeating fraction, and a subnormal-ish tiny."""
    sched = StateSchedule((2, 2))
    matrix = np.array([[0.1, -0.2, 1e-17, 3.5],
                       [1 / 3, 2 / 3, -1.0, 12345.6789]])
    return StateLogits(2, matrix, np.array([0, 3]), sched,
                       dataset="ref_0", backbone="ftplus", seed=4)


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
        back = read_logits(path)
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
            read_logits(path)

    def test_invalid_sidecar_json(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        (tmp_path / "lg.csv.meta.json").write_text("{not json")
        with pytest.raises(MetadataError, match="invalid JSON"):
            read_logits(path)

    def test_sidecar_without_version(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        (tmp_path / "lg.csv.meta.json").write_text("{}")
        with pytest.raises(MetadataError, match="schema_version"):
            read_logits(path)

    def test_header_protocol_mismatch(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[0] = "id,label,c0,c1,c2"  # one score column short
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="sidecar protocol"):
            read_logits(path)

    def test_short_row_locates_line(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[2] = "1,3,0.5,0.5,0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_logits(path)

    def test_non_numeric_score_locates_cell(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.1", "zero.one")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 2 column c0"):
            read_logits(path)

    def test_non_finite_score_rejected(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0.1", "inf")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="non-finite"):
            read_logits(path)

    def test_sidecar_state_count_disagreement(self, tmp_path):
        path = tmp_path / "lg.csv"
        write_logits(path, tricky_logits())
        sidecar = tmp_path / "lg.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["num_states"] = 3
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match="disagrees"):
            read_logits(path)

    def test_error_carries_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(MetadataError) as err:
            read_logits(path)
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
            read_logits(path)
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
                    back = read_logits(path)
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
        write_logits(path, StateLogits(1, rng.normal(size=(1000, 100)),
                                       rng.integers(0, 100, 1000),
                                       StateSchedule.equal_split(100, 1)))
        read_logits(path)
        tracemalloc.start()
        try:
            back = read_logits(path)
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
        write_logits(path, StateLogits(1, rng.normal(size=(1000, 100)),
                                       rng.integers(0, 100, 1000),
                                       StateSchedule.equal_split(100, 1)))
        read_logits(path)
        tracemalloc.start()
        try:
            back = read_logits(path)
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
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0, 10.0 ** rng.integers(-300, 300, (9, 3)), (9, 3))
        matrix[0, 0] = -0.0
        labels = np.repeat(np.arange(3), 3)
        split = np.array(SPLITS * 3, dtype=object)
        write_logits(tmp_path / "lg.csv", StateLogits(1, matrix, labels, StateSchedule((3,))))
        rows = (tmp_path / "lg.csv").read_text().splitlines()[1:]
        assert rows == [f"{i},{labels[i]}," + ",".join(repr(float(v)) for v in matrix[i])
                        for i in range(9)]
        write_dataset(tmp_path / "d.csv", one_block_draw(matrix, labels, split, "r", seed))
        rows = (tmp_path / "d.csv").read_text().splitlines()[1:]
        assert rows == [",".join(repr(float(v)) for v in matrix[i]) + f",{labels[i]},{split[i]}"
                        for i in range(9)]


class TestFingerprint:
    def test_written_only_when_given(self, tmp_path):
        write_logits(tmp_path / "a.csv", tricky_logits())
        write_logits(tmp_path / "b.csv", tricky_logits(), "abc")
        write_table(tmp_path / "t.json", CalibrationTable.identity(3), "def")
        assert "fingerprint" not in json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert read_fingerprint(tmp_path / "b.csv.meta.json") == "abc"
        assert read_fingerprint(tmp_path / "t.json") == "def"
        assert read_logits(tmp_path / "b.csv").matrix.tobytes() \
            == tricky_logits().matrix.tobytes()
        assert read_table(tmp_path / "t.json") == CalibrationTable.identity(3)

    def test_missing_fingerprint_names_the_file(self, tmp_path):
        write_table(tmp_path / "t.json", CalibrationTable.identity(2))
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
        assert read_table(path) == table

    def test_missing_pair_named(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, CalibrationTable.identity(3))
        payload = json.loads(path.read_text())
        payload["entries"] = [e for e in payload["entries"]
                              if not (e["s"] == 3 and e["k"] == 2)]
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match=r"missing pairs \[\(3, 2\)\]"):
            read_table(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, CalibrationTable.identity(2))
        payload = json.loads(path.read_text())
        payload["entries"].append(dict(payload["entries"][0]))
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match="duplicate table entry"):
            read_table(path)

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
        write_table(path, CalibrationTable.identity(2))
        payload = json.loads(path.read_text())
        mangle(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError):
            read_table(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "t.table.json"
        write_table(path, CalibrationTable.identity(2))
        payload = json.loads(path.read_text())
        del payload["entries"][0]["alpha"]
        path.write_text(json.dumps(payload))
        with pytest.raises(MetadataError, match="malformed table entry"):
            read_table(path)


class TestDatasetRoundTrip:
    def make(self):
        spec = SynthSpec(num_classes=4, feature_dim=3, train_per_class=6,
                         val_per_class=2, test_per_class=2, seed=8)
        return draw_states(spec, StateSchedule((2, 2)), name="ref_1")

    def test_bit_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, self.make())
        data, back = joined(self.make()), read_dataset(path)
        assert back.features.tobytes() == data.features.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.split, data.split)
        assert back.schedule == data.schedule
        assert back.name == "ref_1" and back.seed == 8

    @pytest.mark.parametrize("key,value", [("seed", [1]), ("num_states", None)])
    def test_uncoercible_sidecar_field_is_metadata_error(self, tmp_path, key, value):
        path = tmp_path / "d.csv"
        write_dataset(path, self.make())
        sidecar = tmp_path / "d.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match=key):
            read_dataset(path)

    def test_label_outside_schedule_located(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, self.make())
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-2] = "9"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 2.*outside the schedule"):
            read_dataset(path)

    def test_unknown_split_tag_located(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, self.make())
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("train", "extra")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="row 4.*split tag"):
            read_dataset(path)

    def test_wrong_feature_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(path, self.make())
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("x0", "f0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="x0..x"):
            read_dataset(path)


class TestMetricsFile:
    def make_metrics(self, sizes=(2, 2, 2)):
        sched = StateSchedule(sizes)
        rng = np.random.default_rng(1)
        scores = [rng.normal(0, 2, (20, sched.classes_through(s)))
                  for s in range(1, len(sizes) + 1)]
        labels = [rng.integers(0, sched.classes_through(s), 20)
                  for s in range(1, len(sizes) + 1)]
        return compute_run_metrics(scores, labels, sched)

    def test_triangular_rows_plus_summary(self, tmp_path):
        metrics = self.make_metrics()
        path = tmp_path / "m.csv"
        write_metrics(path, metrics)
        S = 3
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + S * (S + 1) // 2 + 1
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{s},{k}" for s in range(1, S + 1) for k in range(1, s + 1)] + ["0,0"]
        matrix, average = read_metrics_rows(path)
        assert matrix.tobytes() == metrics.group_accuracy.tobytes()
        assert average == metrics.average_incremental_accuracy

    def test_empty_group_round_trips_as_nan(self, tmp_path):
        sched = StateSchedule((1, 1))
        scores = [np.zeros((3, 1)), np.zeros((3, 2))]
        labels = [np.zeros(3, dtype=int)] * 2  # group 2 has no samples
        metrics = compute_run_metrics(scores, labels, sched)
        path = tmp_path / "m.csv"
        write_metrics(path, metrics)
        assert "2,2,nan" in path.read_text()
        matrix, average = read_metrics_rows(path)
        np.testing.assert_array_equal(matrix, [[1.0, np.nan], [1.0, np.nan]])
        assert average == 1.0

    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines + ["0,0,0.5"], "row 6: a row after the 0,0 summary row"),
        (lambda lines: lines[:2] + lines[3:],
         "row 3: expected state 2 group 1 or the 0,0 summary row, got 2,2"),
        (lambda lines: lines[:3] + lines[4:], "row 4: expected state 2 group 2, got 0,0"),
        (lambda lines: lines[:-1],
         "row 5: expected state 3 group 1 or the 0,0 summary row, got end of file"),
        (lambda lines: lines[:2] + ["2,1,inf"] + lines[3:], "row 3: non-finite value 'inf'"),
    ], ids=["row-after-summary", "missing-cell", "early-summary", "no-summary", "inf"])
    def test_anything_but_the_triangle_and_summary_rejected(self, tmp_path, edit, message):
        path = tmp_path / "m.csv"
        write_metrics(path, self.make_metrics(sizes=(1, 1)))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(SchemaError, match=message):
            read_metrics_rows(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(path, self.make_metrics())
        lines = path.read_text().splitlines()
        lines[0] = "s,g,a"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match="metrics header"):
            read_metrics_rows(path)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        write_logits(tmp_path / "a.csv", tricky_logits())
        write_table(tmp_path / "b.table.json", CalibrationTable.identity(2))
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
