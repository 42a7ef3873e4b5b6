"""Serialization round-trips and located failure reporting.

Every reader must either return values bit-identical to what was written
or raise a DataFileError subtype that names the offending file.
"""

import json
import os

import numpy as np
import pytest

from calib_il.calibration import CalibrationTable
from calib_il.errors import MetadataError, SchemaError
from calib_il.logits import StateLogits
from calib_il.metrics import compute_run_metrics
from calib_il.schedule import StateSchedule
from calib_il.storage import (read_dataset, read_logits, read_metrics_rows,
                              read_table, write_dataset, write_logits,
                              write_metrics, write_table)
from calib_il.synth import SynthSpec, gen_synthetic_dataset, split_states


def tricky_logits():
    """Values chosen to break naive float formatting: a decimal that has no
    exact binary form, a repeating fraction, and a subnormal-ish tiny."""
    sched = StateSchedule((2, 2))
    matrix = np.array([[0.1, -0.2, 1e-17, 3.5],
                       [1 / 3, 2 / 3, -1.0, 12345.6789]])
    return StateLogits(2, matrix, np.array([0, 3]), sched,
                       dataset="ref_0", backbone="ftplus", seed=4)


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
        data = gen_synthetic_dataset(spec, name="ref_1")
        return split_states(data, 2).dataset

    def test_bit_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        data = self.make()
        write_dataset(path, data)
        back = read_dataset(path)
        assert back.features.tobytes() == data.features.tobytes()
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.split, data.split)
        assert back.schedule == data.schedule
        assert back.name == "ref_1" and back.seed == 8

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
        rows = read_metrics_rows(path)
        S = 3
        assert len(rows) == S * (S + 1) // 2 + 1
        for state, group, value in rows[:-1]:
            assert value == metrics.group_accuracy[(state, group)]
        assert rows[-1][:2] == (0, 0)
        assert rows[-1][2] == metrics.average_incremental_accuracy

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

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_logits(a, tricky_logits())
        write_logits(b, tricky_logits())
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == \
            (tmp_path / "b.csv.meta.json").read_bytes()
