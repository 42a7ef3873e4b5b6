"""Run-spec parsing, the subcommand flows, chart rendering, and the CLI.

Flow tests drive the cmd_* functions in-process on a deliberately tiny
spec; the CLI tests run real subprocesses to pin exit codes and the
byte-identical-rerun guarantee end to end.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from calib_il import cli
from calib_il.calibration import CalibrationTable
from calib_il.errors import SchemaError, SpecError
from calib_il.pipeline import (all_target_logits, build_all_references, cmd_gen,
                               cmd_plot, cmd_run_reference, cmd_run_target,
                               cmd_sweep, evaluate_target, kv, load_run_spec,
                               make_split, parse_run_spec, reference_seeds,
                               target_logits, target_seeds)
from calib_il.plots import Series, render_heat_grid, render_line_chart
from calib_il.storage import read_table, write_table
from calib_il.transfer import average_tables

TINY = {
    "seed": 3,
    "name": "tiny",
    "data": {"num_classes": 4, "feature_dim": 6, "train_per_class": 8,
             "val_per_class": 4, "test_per_class": 4,
             "num_references": 2, "num_targets": 2},
    "schedule": {"num_states": 2},
    "backbone": {"kind": "ftplus", "hidden_dim": 16, "epochs_initial": 8,
                 "epochs_incremental": 4},
    "calibration": {"epochs": 12},
    "sweep": {"r_values": [1, 2], "num_samplings": 3},
}

MINIMAL = {"seed": 1, "data": {"num_classes": 10, "feature_dim": 4},
           "schedule": {"num_states": 5}}


def tiny_spec(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return parse_run_spec(raw)


class TestParseRunSpec:
    def test_defaults_fill_in(self):
        spec = parse_run_spec(dict(MINIMAL))
        assert spec.name == "experiment"
        assert spec.synth.train_per_class == 40
        assert spec.synth.val_per_class == 10
        assert spec.synth.test_per_class == 10
        assert spec.num_references == 10 and spec.num_targets == 10
        assert spec.schedule.classes_per_state == (2,) * 5
        assert spec.backbone.kind == "ftplus"
        assert spec.calibration.epochs == 300
        assert spec.sweep_r_values == (1, 3, 5, 9, 10)
        assert spec.sweep_samplings == 10
        assert spec.sweep_halved is True

    def test_default_r_grid_dedupes_against_reference_count(self):
        raw = dict(MINIMAL)
        raw["data"] = dict(raw["data"], num_references=3)
        assert parse_run_spec(raw).sweep_r_values == (1, 3)

    def test_missing_seed_rejected(self):
        raw = dict(MINIMAL)
        del raw["seed"]
        with pytest.raises(SpecError, match="must state a seed"):
            parse_run_spec(raw)

    @pytest.mark.parametrize("mangle,message", [
        (lambda r: r.update(extra=1), "unknown keys"),
        (lambda r: r["data"].update(rows=5), "unknown keys"),
        (lambda r: r["data"].pop("num_classes"), "must state num_classes"),
        (lambda r: r.update(schedule={}), "num_states or classes_per_state"),
        (lambda r: r.update(schedule={"num_states": 3}), "split evenly"),
        (lambda r: r.update(schedule={"num_states": 1}), "at least 2 states"),
        (lambda r: r.update(schedule={"num_states": 2,
                                      "classes_per_state": [2, 2, 6]}), "disagrees"),
        (lambda r: r.update(sweep={"r_values": [1, 1]}), "distinct"),
        (lambda r: r.update(sweep={"r_values": [99]}), "exceed"),
        (lambda r: r.update(sweep={"num_samplings": 0}), ">= 1"),
        (lambda r: r.update(backbone={"kind": "replay"}), "backbone"),
        (lambda r: r.update(calibration={"epochs": 0}), "calibration"),
        (lambda r: r["data"].update(num_references=0), r"\[1, 500\]"),
    ])
    def test_invalid_specs_rejected(self, mangle, message):
        raw = json.loads(json.dumps(MINIMAL))
        mangle(raw)
        with pytest.raises(SpecError, match=message):
            parse_run_spec(raw)

    def test_explicit_classes_per_state(self):
        raw = dict(MINIMAL, schedule={"classes_per_state": [4, 3, 3]})
        assert parse_run_spec(raw).schedule.classes_per_state == (4, 3, 3)

    def test_seed_override_wins(self):
        spec = parse_run_spec(dict(MINIMAL), seed_override=9)
        assert spec.seed == 9
        assert reference_seeds(spec)[0] == 9000

    def test_config_seeds_default_to_spec_seed(self):
        spec = tiny_spec()
        assert spec.backbone.seed == 3
        assert spec.calibration.seed == 3
        raw = json.loads(json.dumps(TINY))
        raw["backbone"]["seed"] = 11
        assert parse_run_spec(raw).backbone.seed == 11

    def test_load_from_file_errors(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_run_spec(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_run_spec(bad)
        bad.write_text("[1, 2]")
        with pytest.raises(SpecError, match="JSON object"):
            load_run_spec(bad)


class TestSeedsAndSplits:
    def test_reference_and_target_seeds_disjoint(self):
        spec = tiny_spec()
        assert reference_seeds(spec) == [3000, 3001]
        assert target_seeds(spec) == [3500, 3501]
        assert not set(reference_seeds(spec)) & set(target_seeds(spec))

    def test_make_split_halving(self):
        spec = tiny_spec()
        full = make_split(spec, 3500, "t")
        half = make_split(spec, 3500, "t", halve=True)
        assert full.views[0].train_x.shape[0] == 2 * 8
        assert half.views[0].train_x.shape[0] == 2 * 4  # ceil(8/2) per class

    def test_kv_formatting(self):
        line = kv(event="fit", state=2, final_loss=0.5)
        assert line == "event=fit state=2 final_loss=0.5"


class TestEvaluateTarget:
    def test_identity_tables_reproduce_raw(self):
        spec = tiny_spec()
        logits = target_logits(spec, [0])[0]
        tables = [CalibrationTable.identity(2)] * 2
        results = evaluate_target(logits, tables, average_tables(tables))
        assert set(results) == {"raw", "bic", "adbic", "oracle"}
        for method in ("bic", "adbic", "oracle"):
            assert (results[method].per_state_accuracy
                    == results["raw"].per_state_accuracy)

    def test_jobs_do_not_change_results(self):
        """--jobs 2 splits each two-model stack into two one-model chunks;
        every table, fit and logits matrix must match the single stack
        bitwise, for references, targets and halved targets alike."""
        spec = tiny_spec()
        serial = build_all_references(spec, jobs=1)
        pooled = build_all_references(spec, jobs=2)
        assert [run.index for run in serial] == [run.index for run in pooled] == [0, 1]
        for a, b in zip(serial, pooled, strict=True):
            assert a.table == b.table
            assert ([(f.alpha.tobytes(), f.beta.tobytes(), f.initial_loss, f.final_loss)
                     for f in a.fits]
                    == [(f.alpha.tobytes(), f.beta.tobytes(), f.initial_loss, f.final_loss)
                        for f in b.fits])
            assert ([lg.matrix.tobytes() for lg in a.val_logits]
                    == [lg.matrix.tobytes() for lg in b.val_logits])
        for halve in (False, True):
            serial = all_target_logits(spec, jobs=1, halve=halve)
            pooled = all_target_logits(spec, jobs=2, halve=halve)
            assert len(serial) == len(pooled) == 2
            for a, b in zip(serial, pooled, strict=True):
                assert [lg.dataset for lg in a] == [lg.dataset for lg in b]
                assert [lg.matrix.tobytes() for lg in a] == [lg.matrix.tobytes() for lg in b]


@pytest.fixture(scope="module")
def flow_out(tmp_path_factory):
    """One completed run of every subcommand on the tiny spec."""
    out = tmp_path_factory.mktemp("flow")
    spec = tiny_spec()
    cmd_gen(spec, out)
    cmd_run_reference(spec, out)
    cmd_run_target(spec, out)
    cmd_sweep(spec, out)
    cmd_plot(spec, out)
    return out


class TestFlows:
    def test_gen_writes_every_dataset(self, flow_out):
        names = sorted(p.name for p in (flow_out / "data").glob("*.csv"))
        assert names == ["ref_0.csv", "ref_1.csv", "target_0.csv", "target_1.csv"]
        for name in names:
            assert (flow_out / "data" / (name + ".meta.json")).exists()

    def test_reference_outputs(self, flow_out):
        for i in range(2):
            table = read_table(flow_out / "tables" / f"ref_{i}.table.json")
            assert table.num_states == 2
            assert table != CalibrationTable.identity(2)
            for s in (1, 2):
                assert (flow_out / "logits" / f"ref_{i}_state_{s}.csv").exists()

    def test_averaged_table_is_the_mean(self, flow_out):
        tables = [read_table(flow_out / "tables" / f"ref_{i}.table.json")
                  for i in range(2)]
        averaged = read_table(flow_out / "tables" / "averaged.table.json")
        for k in (1, 2):
            assert averaged.alpha[0, k - 1] == float(
                np.mean([t.alpha[0, k - 1] for t in tables]))
            assert averaged.beta[0, k - 1] == float(
                np.mean([t.beta[0, k - 1] for t in tables]))

    def test_comparison_rows_and_gain_arithmetic(self, flow_out):
        lines = (flow_out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "target,method,avg_incremental_accuracy,gain"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 2 * 4  # two targets, four methods
        for j in range(2):
            rows = {m: (float(a), float(g)) for t, m, a, g in body
                    if t == f"target_{j}"}
            assert set(rows) == {"raw", "bic", "adbic", "oracle"}
            raw_acc = rows["raw"][0]
            assert rows["raw"][1] == 0.0
            for method in ("bic", "adbic", "oracle"):
                acc, gain = rows[method]
                assert gain == acc - raw_acc  # exact: same float op as the writer
            assert rows["oracle"][0] >= rows["adbic"][0]

    def test_per_state_rows(self, flow_out):
        lines = (flow_out / "per_state.csv").read_text().splitlines()
        assert lines[0] == "target,method,state,accuracy"
        assert len(lines) - 1 == 2 * 4 * 2  # targets x methods x states

    def test_metrics_files_per_target_and_method(self, flow_out):
        for j in range(2):
            for method in ("raw", "bic", "adbic", "oracle"):
                path = flow_out / "metrics" / f"target_{j}_{method}.csv"
                lines = path.read_text().splitlines()
                assert len(lines) - 1 == 3 + 1  # triangular cells + summary

    def test_sweep_table(self, flow_out):
        lines = (flow_out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "r,samplings,raw_mean,corrected_mean,corrected_std,gain_mean"
        rows = {int(p[0]): p for p in (line.split(",") for line in lines[1:])}
        assert set(rows) == {1, 2}
        assert int(rows[1][1]) == 3  # requested samplings below the full count
        assert int(rows[2][1]) == 1  # full-reference cell has one subset
        assert float(rows[2][4]) == 0.0  # ... so zero spread, exactly
        for row in rows.values():
            assert float(row[5]) == float(row[3]) - float(row[2])

    def test_halved_protocol_rows(self, flow_out):
        lines = (flow_out / "halved.csv").read_text().splitlines()
        assert lines[0] == "target,method,avg_incremental_accuracy,gain"
        assert len(lines) == 1 + 2 * 2 + 1
        mean_row = lines[-1].split(",")
        assert mean_row[:2] == ["mean", "adbic"] and mean_row[2] == ""
        gains = [float(line.split(",")[3]) for line in lines[1:-1]
                 if line.split(",")[1] == "adbic"]
        assert float(mean_row[3]) == float(np.mean(gains))

    def test_plot_outputs(self, flow_out):
        for j in range(2):
            chart = (flow_out / "plots" / f"accuracy_target_{j}.svg").read_text()
            assert 'stroke-dasharray="6 4"' in chart  # raw series dashed
            assert chart.startswith("<svg ")
            for method in ("raw", "adbic"):
                heat = (flow_out / "plots" /
                        f"heat_target_{j}_{method}.svg").read_text()
                assert heat.count('class="masked"') == 1  # S=2: one k>s cell

    def test_run_target_reuses_existing_tables(self, flow_out, tmp_path):
        """Pre-seeded identity tables must be picked up instead of refitting,
        which makes every correction a no-op against raw."""
        spec = tiny_spec()
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        CalibrationTable.identity(2))
        cmd_run_target(spec, tmp_path)
        for line in (tmp_path / "comparison.csv").read_text().splitlines()[1:]:
            target, method, acc, gain = line.split(",")
            if method in ("bic", "adbic"):
                assert gain == "0.0"

    def test_run_target_rebuilds_incomplete_tables(self, tmp_path):
        spec = tiny_spec()
        write_table(tmp_path / "tables" / "ref_0.table.json",
                    CalibrationTable.identity(2))
        cmd_run_target(spec, tmp_path)
        assert (tmp_path / "tables" / "ref_1.table.json").exists()
        assert read_table(tmp_path / "tables" / "ref_0.table.json") \
            != CalibrationTable.identity(2)

    def test_plot_without_inputs_raises_located_error(self, tmp_path):
        with pytest.raises(SchemaError, match="missing input file"):
            cmd_plot(tiny_spec(), tmp_path)


class TestRenderers:
    def test_line_chart_is_deterministic(self):
        series = [Series("raw", (1, 2, 3), (0.9, 0.6, 0.4), dashed=True),
                  Series("adbic", (1, 2, 3), (0.9, 0.7, 0.6))]
        a = render_line_chart("t", series)
        assert a == render_line_chart("t", series)
        assert a.count('stroke-dasharray="6 4"') == 2  # polyline + legend swatch

    def test_line_chart_escapes_markup(self):
        chart = render_line_chart("a<b & c", [Series("s", (1,), (0.5,))])
        assert "a&lt;b &amp; c" in chart

    def test_line_chart_rejects_bad_series(self):
        with pytest.raises(ValueError):
            render_line_chart("t", [])
        with pytest.raises(ValueError, match="lengths differ"):
            render_line_chart("t", [Series("s", (1, 2), (0.5,))])

    def test_heat_grid_masks_upper_triangle(self):
        matrix = np.array([[0.5, np.nan, np.nan],
                           [0.4, 0.6, np.nan],
                           [0.2, 0.3, 0.9]])
        grid = render_heat_grid("t", matrix)
        assert grid.count('class="masked"') == 3
        assert "90.0" in grid  # cell values rendered as percentages

    def test_heat_grid_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            render_heat_grid("t", np.zeros((2, 3)))


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "run.json"
    path.write_text(json.dumps(TINY))
    return path


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("CALIB_IL_SEED", None)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "calib_il.cli", *args],
                          capture_output=True, text=True, env=env)


class TestCLI:
    def test_missing_spec_file_exits_2(self, tmp_path):
        res = run_cli("gen", "--spec", str(tmp_path / "no.json"),
                      "--out", str(tmp_path))
        assert res.returncode == 2
        assert "event=error kind=spec" in res.stdout

    def test_bad_env_seed_exits_2(self, spec_file, tmp_path):
        res = run_cli("gen", "--spec", str(spec_file), "--out", str(tmp_path),
                      env_extra={"CALIB_IL_SEED": "not-a-number"})
        assert res.returncode == 2
        assert "CALIB_IL_SEED" in res.stdout

    @pytest.mark.parametrize("mangle", [
        lambda r: r.update(seed="abc"),
        lambda r: r.update(seed=None),
        lambda r: r["data"].update(num_references="ten"),
        lambda r: r["data"].update(num_classes=[4]),
        lambda r: r.update(schedule={"classes_per_state": 5}),
        lambda r: r.update(schedule={"num_states": "two"}),
        lambda r: r.update(sweep={"r_values": 5}),
        lambda r: r.update(sweep={"num_samplings": "x"}),
        lambda r: r.update(sweep=5),
        lambda r: r.update(data="abc"),
    ], ids=["seed-str", "seed-null", "num-references-str", "num-classes-list",
            "classes-per-state-int", "num-states-str", "r-values-int",
            "num-samplings-str", "sweep-int", "data-str"])
    def test_uncoercible_spec_values_exit_2(self, mangle, tmp_path):
        raw = json.loads(json.dumps(TINY))
        mangle(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        res = run_cli("gen", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=spec")

    def test_corrupt_table_exits_3(self, spec_file, tmp_path):
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        CalibrationTable.identity(2))
        path = tmp_path / "tables" / "ref_0.table.json"
        payload = json.loads(path.read_text())
        payload["entries"][0]["alpha"] = "oops"
        path.write_text(json.dumps(payload))
        res = run_cli("run-target", "--spec", str(spec_file), "--out", str(tmp_path))
        assert res.returncode == 3, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=data")

    def test_plot_before_run_target_exits_3(self, spec_file, tmp_path):
        res = run_cli("plot", "--spec", str(spec_file), "--out", str(tmp_path))
        assert res.returncode == 3
        assert "event=error kind=data" in res.stdout

    def test_env_seed_override_changes_data(self, spec_file, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli("gen", "--spec", str(spec_file), "--out", str(a)).returncode == 0
        assert run_cli("gen", "--spec", str(spec_file), "--out", str(b),
                       env_extra={"CALIB_IL_SEED": "8"}).returncode == 0
        assert run_cli("gen", "--spec", str(spec_file), "--out", str(c),
                       env_extra={"CALIB_IL_SEED": "3"}).returncode == 0
        ref0 = "data/ref_0.csv"
        assert (a / ref0).read_bytes() != (b / ref0).read_bytes()
        assert (a / ref0).read_bytes() == (c / ref0).read_bytes()

    def test_full_chain_reruns_byte_identical(self, spec_file, tmp_path):
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            for command in ("gen", "run-reference", "run-target", "sweep", "plot"):
                res = run_cli(command, "--spec", str(spec_file), "--out", str(out))
                assert res.returncode == 0, res.stdout + res.stderr
                assert f"event=done command={command}" in res.stdout
        files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                         if p.is_file())
        assert files_a == files_b and len(files_a) > 20
        for rel in files_a:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


class TestSeedOverrideHelper:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("CALIB_IL_SEED", raising=False)
        assert cli._seed_override() is None
        monkeypatch.setenv("CALIB_IL_SEED", "42")
        assert cli._seed_override() == 42
        monkeypatch.setenv("CALIB_IL_SEED", "4.5")
        with pytest.raises(SpecError):
            cli._seed_override()
