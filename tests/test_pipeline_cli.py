"""Run-spec parsing, the subcommand flows, chart rendering, and the CLI.

Flow tests drive the cmd_* functions in-process on a deliberately tiny
spec; the CLI tests run real subprocesses to pin exit codes and the
byte-identical-rerun guarantee end to end.
"""

import ast
import dataclasses
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calib_il import cli, flows
from calib_il.calibration import CalibrationTable
from calib_il.config import KINDS, BackboneConfig, CalibConfig
from calib_il.errors import MetadataError, SchemaError, SpecError
from calib_il.flows import cmd_gen, cmd_run_reference, cmd_run_target, cmd_sweep, make_dataset
from calib_il.pipeline import (kv, load_run_spec, parse_run_spec, reference_seeds,
                               spec_fingerprint, target_seeds)
from calib_il.plots import Series, cmd_plot, render_heat_grid, render_line_chart
from calib_il.storage import read_logits, read_table, write_table
from calib_il.transfer import RunMetrics, average_tables, score_state
from oracles import identity_table

TINY = {
    "seed": 3,
    "name": "tiny",
    "data": {"num_classes": 4, "feature_dim": 6, "train_per_class": 8,
             "val_per_class": 4, "test_per_class": 4,
             "num_references": 2, "num_targets": 2},
    "schedule": {"num_states": 2},
    "backbone": {"kind": "ftplus", "hidden_dim": 16, "epochs_initial": 8,
                 "epochs_incremental": 4},
    "sweep": {"r_values": [1, 2], "num_samplings": 3},
}

MINIMAL = {"seed": 1, "data": {"num_classes": 10, "feature_dim": 4},
           "schedule": {"num_states": 5}}


# TINY with every key of every section written out, so each can be mutated.
FULL = json.loads(json.dumps(dict(
    TINY,
    data=dict(TINY["data"], center_scale=1.0, noise_scale=1.0, drift_scale=0.0),
    schedule={"num_states": 2, "classes_per_state": [2, 2]},
    backbone=dataclasses.asdict(BackboneConfig(**TINY["backbone"], seed=3)),
    calibration=dataclasses.asdict(CalibConfig()),
    sweep=dict(TINY["sweep"], halved=True),
)))
FULL_PATHS = ([(key,) for key in FULL]
              + [(section, key) for section, body in FULL.items()
                 if isinstance(body, dict) for key in body]
              + [("schedule", "classes_per_state", 0), ("sweep", "r_values", 1)])

SPEC_VALUES = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from(["1", "55", "nan", "false", "Infinity"]),
    st.integers(-3, 40), st.integers(-3, 40).map(float),
    st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()),
    # Index-sized counts are valid ints; a huge class or sample count is
    # refused by the dataset size cap, so parsing materializes nothing.
    st.integers(2**31, 2**62),
    st.floats(1e20, 1e308), st.floats(-1e308, -1e20),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(-1, 4), max_size=3),
    st.lists(st.lists(st.integers(0, 4), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 4), max_size=1),
)

_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def assert_declared_types(obj):
    """Every field of a (nested) spec dataclass holds exactly its declared type."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            assert_declared_types(value)
        elif f.type == "tuple[int, ...]":
            assert type(value) is tuple and all(type(v) is int for v in value), (f.name, value)
        else:
            assert type(value) is _SCALARS[f.type], (f.name, value)


def tiny_spec(**overrides):
    raw = json.loads(json.dumps(TINY))
    raw.update(overrides)
    return parse_run_spec(raw)


def fit_references(spec, indices, out):
    """The references ``indices`` trained as one stack, their validation
    logits written under ``out``; each one's per-state fits (None at
    state 1)."""
    return flows._stack(spec, indices, "reference", partial(flows._fit, spec.calibration), out)


class TestParseRunSpec:
    def test_defaults_fill_in(self):
        spec = parse_run_spec(dict(MINIMAL))
        assert spec.synth.train_per_class == 40
        assert spec.synth.val_per_class == 10
        assert spec.synth.test_per_class == 10
        assert spec.num_references == 10 and spec.num_targets == 10
        assert spec.schedule.classes_per_state == (2,) * 5
        assert spec.backbone.kind == "ftplus"
        assert spec.calibration == CalibConfig(l2_alpha=5e-3, l2_beta=5e-2)
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
        (lambda r: r.update(sweep={"r_values": []}), "at least one"),
        (lambda r: r.update(sweep={"num_samplings": 0}), ">= 1"),
        (lambda r: r.update(backbone={"kind": "replay"}), "backbone"),
        (lambda r: r.update(calibration={"l2_alpha": -1.0}), "calibration"),
        (lambda r: r["data"].update(num_references=0), r"\[1, 500\]"),
        (lambda r: r.update(name=5), "name must be str"),
    ])
    def test_invalid_specs_rejected(self, mangle, message):
        raw = json.loads(json.dumps(MINIMAL))
        mangle(raw)
        with pytest.raises(SpecError, match=message):
            parse_run_spec(raw)

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(st.lists(st.tuples(st.sampled_from(FULL_PATHS), SPEC_VALUES),
                    min_size=1, max_size=3))
    def test_mutated_values_are_refused_or_read_as_declared(self, mutations):
        """Parsing only: a mutated spec never reaches training."""
        raw = json.loads(json.dumps(FULL))
        for path, value in mutations:
            node = raw
            try:
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation replaced the container
        raw = json.loads(json.dumps(raw))
        try:
            spec = parse_run_spec(raw)
        except SpecError:
            return
        assert_declared_types(spec)

    @pytest.mark.parametrize("section,key,value,read", [
        ("backbone", "batch_size", 4.0, lambda spec: spec.backbone.batch_size == 4),
        ("data", "num_classes", 4.0, lambda spec: spec.synth.num_classes == 4),
        ("backbone", "learning_rate", 1, lambda spec: spec.backbone.learning_rate == 1.0),
        ("sweep", "r_values", [1.0, 2], lambda spec: spec.sweep_r_values == (1, 2)),
    ])
    def test_numbers_are_read_as_the_declared_type(self, section, key, value, read):
        raw = json.loads(json.dumps(FULL))
        raw[section][key] = value
        spec = parse_run_spec(raw)
        assert read(spec)
        assert_declared_types(spec)

    @pytest.mark.parametrize("section,key,a,b", [
        ("backbone", "learning_rate", 1, 1.0),
        ("backbone", "hidden_dim", 64, 64.0),
        ("calibration", "l2_beta", 1, 1.0),
        ("data", "center_scale", 2, 2.0),
    ])
    def test_number_spellings_fingerprint_alike(self, section, key, a, b):
        specs = []
        for value in (a, b):
            raw = json.loads(json.dumps(FULL))
            raw[section][key] = value
            specs.append(parse_run_spec(raw))
        assert specs[0] == specs[1]
        for calibration in (False, True):
            assert (spec_fingerprint(specs[0], calibration=calibration)
                    == spec_fingerprint(specs[1], calibration=calibration))

    def test_huge_class_count_parses_in_constant_memory(self):
        """The schedule stores one size per state, not one entry per class."""
        raw = json.loads(json.dumps(MINIMAL))
        raw["data"]["num_classes"] = 2_000_000
        tracemalloc.start()
        try:
            spec = parse_run_spec(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.schedule.classes_per_state == (400_000,) * 5
        assert peak < 2**20

    def test_seed_must_be_an_integer(self):
        with pytest.raises(SpecError, match="seed must be int"):
            parse_run_spec(dict(MINIMAL, seed="abc"))
        assert parse_run_spec(dict(MINIMAL, seed=2.0)).seed == 2

    def test_explicit_classes_per_state(self):
        raw = dict(MINIMAL, schedule={"classes_per_state": [4, 3, 3]})
        assert parse_run_spec(raw).schedule.classes_per_state == (4, 3, 3)

    def test_config_seeds_default_to_spec_seed(self):
        spec = tiny_spec()
        assert spec.backbone.seed == 3
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

    def test_make_dataset_halving(self):
        spec = tiny_spec()
        full = make_dataset(spec, 3500, "t")
        half = make_dataset(spec, 3500, "t", halve=True)
        assert full.schedule == half.schedule == spec.schedule
        assert (full.sizes["train"], half.sizes["train"]) == (4 * 8, 4 * 4)
        # state 1 introduces two classes; ceil(8/2) training samples each
        assert next(full.blocks).subset("train")[1].shape[0] == 2 * 8
        assert next(half.blocks).subset("train")[1].shape[0] == 2 * 4

    def test_kv_formatting(self):
        line = kv(event="fit", state=2, final_loss=0.5)
        assert line == "event=fit state=2 final_loss=0.5"

    def test_kv_quotes_text_that_could_pass_for_two_fields(self):
        """Text with whitespace, '=' or a quote becomes a string literal;
        any other text, a path included, stays bare."""
        texts = ["o sp/data/ref_0.csv", "a\tb", "k=v", "it's", 'say "x"', "both ' and \""]
        for text in texts:
            for value in (text, Path(text)):
                rendered = kv(value=value).removeprefix("value=")
                assert rendered == repr(str(value))
                assert ast.literal_eval(rendered) == str(value)
        assert kv(path=Path("out/data/ref_0.csv"), message="missing") == \
            "path=out/data/ref_0.csv message=missing"


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestEvaluateTarget:
    def test_identity_tables_reproduce_raw(self, tmp_path):
        """With identity reference tables under --out, every method scores
        each target exactly as the raw run does."""
        spec = tiny_spec()
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        identity_table(2), spec_fingerprint(spec, calibration=True))
        cmd_run_target(spec, tmp_path)
        for j in range(2):
            raw = (tmp_path / "metrics" / f"target_{j}_raw.csv").read_bytes()
            for method in ("bic", "adbic", "oracle"):
                assert (tmp_path / "metrics" / f"target_{j}_{method}.csv").read_bytes() == raw

    def test_jobs_do_not_change_results(self, tmp_path):
        """--jobs 2 splits each two-model stack into two one-model chunks;
        every written logits file, table, fit and per-method metrics must
        match the single stack bitwise, for references, targets and
        halved targets alike."""
        spec = tiny_spec()
        outs = {jobs: tmp_path / f"jobs_{jobs}" for jobs in (1, 2)}
        serial, pooled = (flows._stacks(spec, "reference", partial(flows._fit, spec.calibration),
                                        out, jobs)
                          for jobs, out in outs.items())
        assert len(serial) == len(pooled) == 2
        for a_fits, b_fits in zip(serial, pooled, strict=True):
            assert a_fits[0] is b_fits[0] is None
            assert (CalibrationTable.from_fits(a_fits[1:])
                    == CalibrationTable.from_fits(b_fits[1:]))
            assert ([(f.alpha.tobytes(), f.beta.tobytes(), f.initial_loss, f.final_loss)
                     for f in a_fits[1:]]
                    == [(f.alpha.tobytes(), f.beta.tobytes(), f.initial_loss, f.final_loss)
                        for f in b_fits[1:]])
        tables = [CalibrationTable.from_fits(fits[1:]) for fits in serial]
        methods = {"raw": [None], "adbic": [average_tables(tables)], "oracle": tables}
        for halve in (False, True):
            serial, pooled = (flows._stacks(spec, "target", partial(flows._score, methods),
                                            None if halve else out, jobs, halve)
                              for jobs, out in outs.items())
            assert len(serial) == len(pooled) == 2
            for a, b in zip(serial, pooled, strict=True):
                for method in methods:
                    got, want = (RunMetrics.from_rows([row[method] for row in rows])
                                 for rows in (a, b))
                    assert got.per_state_accuracy.tobytes() == want.per_state_accuracy.tobytes()
                    assert got.group_accuracy.tobytes() == want.group_accuracy.tobytes()
        assert len(tree_bytes(outs[1])) == 2 * 2 * 2 * 2  # refs+targets x states x sidecar
        assert tree_bytes(outs[1]) == tree_bytes(outs[2])


class TestStreamedLogits:
    """No subcommand holds every state's logits: each state is written,
    fitted or scored before the next one trains. In these specs one
    evaluation set's logits dominate the run's memory (two features, a
    hidden layer of four), and the last state holds a sixth (16 states)
    or a fourteenth (40 states) of them; a fit holds a few copies of its
    state's logits at once."""

    @staticmethod
    def spec(num_states, num_classes, **per_class):
        return parse_run_spec({
            "seed": 5,
            "data": {"num_classes": num_classes, "feature_dim": 2, "train_per_class": 2,
                     "val_per_class": 2, "test_per_class": 2, **per_class,
                     "num_references": 1, "num_targets": 1},
            "schedule": {"num_states": num_states},
            "backbone": {"hidden_dim": 4, "epochs_initial": 1, "epochs_incremental": 1}})

    @staticmethod
    def all_logits_bytes(spec, per_class):
        return sum(8 * per_class * spec.schedule.classes_through(s) ** 2
                   for s in range(1, spec.schedule.num_states + 1))

    @staticmethod
    def peak(command, spec, out):
        command(tiny_spec(), out / "warm")  # lazy imports and first-call caches
        tracemalloc.start()
        try:
            command(spec, out / "run")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run_target_holds_one_state_of_test_logits(self, tmp_path):
        spec = self.spec(16, 32, test_per_class=100)
        total = self.all_logits_bytes(spec, 100)
        peak = self.peak(cmd_run_target, spec, tmp_path)
        assert peak < total / 2, (peak, total)

    def test_run_reference_holds_one_state_of_validation_logits(self, tmp_path):
        spec = self.spec(40, 80, val_per_class=8)
        total = self.all_logits_bytes(spec, 8)
        peak = self.peak(cmd_run_reference, spec, tmp_path)
        assert peak < total / 2, (peak, total)


    def test_reference_models_are_scored_one_at_a_time(self, tmp_path):
        """Each reference of a stack is scored only once the previous one's
        logits are written and fitted, so a second reference adds less
        than half a last-state validation matrix to the peak. In this spec
        the scores dwarf the features: 200 classes of four features."""
        spec = parse_run_spec({
            "seed": 5,
            "data": {"num_classes": 200, "feature_dim": 4, "train_per_class": 4,
                     "val_per_class": 10, "test_per_class": 1,
                     "num_references": 2, "num_targets": 1},
            "schedule": {"num_states": 4},
            "backbone": {"hidden_dim": 8, "epochs_initial": 1, "epochs_incremental": 1}})
        matrix = 8 * (200 * 10) * 200  # bytes of one last-state validation matrix
        fit_references(tiny_spec(), range(2), tmp_path / "warm")
        peaks = []
        for count in (1, 2):
            tracemalloc.start()
            try:
                fit_references(spec, range(count), tmp_path / f"run_{count}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < matrix / 2, (peaks, matrix)


class TestStreamedDraws:
    def test_references_hold_one_state_of_training_data(self, tmp_path):
        """Each dataset is drawn one state at a time, so a stack holds one
        state's training set (a tenth here), not every state's. In this
        spec the training sets dominate the datasets: 400 training samples
        per class against 2 validation and 2 test samples."""
        spec = parse_run_spec({
            "seed": 5,
            "data": {"num_classes": 20, "feature_dim": 16, "train_per_class": 400,
                     "val_per_class": 2, "test_per_class": 2,
                     "num_references": 2, "num_targets": 1},
            "schedule": {"num_states": 10},
            "backbone": {"hidden_dim": 4, "epochs_initial": 1, "epochs_incremental": 1,
                         "batch_size": 64}})
        training = 2 * 20 * 400 * 16 * 8  # bytes of both references' training features
        fit_references(tiny_spec(), range(2), tmp_path / "warm")
        tracemalloc.start()
        try:
            fit_references(spec, range(2), tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < training / 2, (peak, training)


class TestEveryUpdateRule:
    """Each of the four update rules runs every subcommand end to end, and
    --jobs 2, which splits each two-model stack in two, writes the tree
    that --jobs 1 writes."""

    SPEC = {"seed": 7, "name": "rules",
            "data": {"num_classes": 6, "feature_dim": 8,
                     "num_references": 2, "num_targets": 2},
            "schedule": {"num_states": 3},
            "backbone": {"hidden_dim": 16, "epochs_initial": 10, "epochs_incremental": 5,
                         "learning_rate": 0.03},
            "sweep": {"num_samplings": 2}}

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_subcommand_for_either_job_count(self, kind, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            dict(self.SPEC, backbone=dict(self.SPEC["backbone"], kind=kind))))
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            for command in ("gen", "run-reference", "run-target", "sweep", "plot"):
                code = cli.main([command, "--spec", str(path), "--out", str(out), "--jobs", jobs])
                assert code == 0, (command, jobs)
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]


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
            table = read_table(flow_out / "tables" / f"ref_{i}.table.json", 2)
            assert table.num_states == 2
            assert table != identity_table(2)
            for s in (1, 2):
                assert (flow_out / "logits" / f"ref_{i}_state_{s}.csv").exists()

    def test_averaged_table_is_the_mean(self, flow_out):
        tables = [read_table(flow_out / "tables" / f"ref_{i}.table.json", 2)
                  for i in range(2)]
        averaged = read_table(flow_out / "tables" / "averaged.table.json", 2)
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

    def test_oracle_at_least_each_single_table_per_state(self, flow_out):
        """The oracle picks, per state, the best single reference table, so
        it scores at least what each one scores alone on the written target
        logits. (The averaged table is no single table: it can beat the
        oracle.)"""
        spec = tiny_spec()
        tables = [read_table(flow_out / "tables" / f"ref_{i}.table.json", 2) for i in range(2)]
        lines = (flow_out / "per_state.csv").read_text().splitlines()[1:]
        oracle = [line.split(",") for line in lines if ",oracle," in line]
        assert len(oracle) == 2 * 2  # targets x states
        for target, _, state, acc in oracle:
            j, s = int(target.removeprefix("target_")), int(state)
            logits = read_logits(flow_out / "logits" / f"{target}_state_{s}.csv", (
                target, target_seeds(spec)[j], s, spec.schedule,
                spec.synth.test_per_class * spec.schedule.classes_through(s)))
            for table in tables:
                assert float(acc) >= score_state(logits, [table])[0]

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
        """Pre-seeded identity tables that carry the spec's fingerprint must
        be picked up instead of refitting, which makes every correction a
        no-op against raw."""
        spec = tiny_spec()
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        identity_table(2),
                        spec_fingerprint(spec, calibration=True))
        cmd_run_target(spec, tmp_path)
        for line in (tmp_path / "comparison.csv").read_text().splitlines()[1:]:
            target, method, acc, gain = line.split(",")
            if method in ("bic", "adbic"):
                assert gain == "0.0"

    def test_run_target_rebuilds_incomplete_tables(self, tmp_path):
        spec = tiny_spec()
        write_table(tmp_path / "tables" / "ref_0.table.json",
                    identity_table(2))
        cmd_run_target(spec, tmp_path)
        assert (tmp_path / "tables" / "ref_1.table.json").exists()
        assert read_table(tmp_path / "tables" / "ref_0.table.json", 2) \
            != identity_table(2)

    def test_plot_without_inputs_raises_located_error(self, tmp_path):
        with pytest.raises(SchemaError, match="missing input file"):
            cmd_plot(tiny_spec(), tmp_path)


def tiny_variant(**sections):
    """TINY with some spec sections' keys replaced, as a parsed spec."""
    raw = json.loads(json.dumps(TINY))
    for key, value in sections.items():
        if isinstance(value, dict):
            raw[key] = {**raw.get(key, {}), **value}
        else:
            raw[key] = value
    return parse_run_spec(raw)


def cache_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("event=cache")]


class TestArtifactCache:
    def test_fingerprint_covers_what_makes_the_artifacts(self):
        base = tiny_spec()
        same = [
            tiny_variant(name="other"),
            tiny_variant(sweep={"r_values": [2], "num_samplings": 5, "halved": False}),
            tiny_variant(data={"num_references": 3, "num_targets": 1}),
            tiny_variant(backbone={"learning_rate": 0.05, "momentum": 0.9},
                         calibration={"l2_alpha": 5e-3}),
        ]
        for spec in same:
            for calibration in (False, True):
                assert spec_fingerprint(spec, calibration) == \
                    spec_fingerprint(base, calibration)
        for spec in (tiny_variant(backbone={"learning_rate": 0.01}),
                     tiny_variant(data={"noise_scale": 1.5}),
                     tiny_variant(seed=4),
                     tiny_variant(schedule={"classes_per_state": [3, 1]})):
            assert spec_fingerprint(spec) != spec_fingerprint(base)
        penalised = tiny_variant(calibration={"l2_beta": 0.5})
        assert spec_fingerprint(penalised) == spec_fingerprint(base)
        assert spec_fingerprint(penalised, True) != spec_fingerprint(base, True)
        assert len(spec_fingerprint(base)) == 64

    def test_sweep_after_run_target_trains_only_the_halved_stack(
            self, flow_out, tmp_path, monkeypatch):
        """sweep reads run-target's logits: one target stack (the halved
        one) trains, and its CSVs equal those of a sweep into a fresh
        --out, which trains references, targets and halved targets."""
        spec = tiny_spec()
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        shutil.copytree(flow_out, out)
        stacks = []
        real = flows.run_incremental_stack

        def counting(config, draws, sets=("validation", "test")):
            draws = list(draws)
            stacks.append(tuple(draw.name for draw in draws))
            return real(config, draws, sets)

        monkeypatch.setattr(flows, "run_incremental_stack", counting)
        cmd_sweep(spec, out)
        assert stacks == [("target_0", "target_1")]
        cmd_sweep(spec, fresh)
        assert len(stacks) == 4
        for name in ("sweep.csv", "halved.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
            assert (out / name).read_bytes() == (flow_out / name).read_bytes()

    def test_irrelevant_changes_reuse_and_relevant_ones_rebuild(
            self, flow_out, tmp_path, caplog):
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        caplog.set_level("INFO", logger="calib_il")
        cmd_run_target(tiny_variant(name="renamed", sweep={"num_samplings": 9}), out)
        assert cache_lines(caplog) == [
            "event=cache artifact=tables action=reuse",
            "event=cache artifact=target_logits action=reuse"]
        for rel in ("comparison.csv", "per_state.csv"):
            assert (out / rel).read_bytes() == (flow_out / rel).read_bytes()
        for changed in (tiny_variant(backbone={"learning_rate": 0.02}),
                        tiny_variant(data={"noise_scale": 1.5})):
            caplog.clear()
            cmd_run_target(changed, out)
            assert cache_lines(caplog) == [
                "event=cache artifact=tables action=rebuild reason=fingerprint",
                "event=cache artifact=target_logits action=rebuild reason=fingerprint"]
            table = out / "tables" / "ref_0.table.json"
            sidecar = out / "logits" / "target_1_state_2.csv.meta.json"
            assert json.loads(table.read_text())["fingerprint"] == \
                spec_fingerprint(changed, calibration=True)
            assert json.loads(sidecar.read_text())["fingerprint"] == \
                spec_fingerprint(changed)

    def test_missing_files_are_logged_as_missing(self, tmp_path, caplog):
        caplog.set_level("INFO", logger="calib_il")
        cmd_run_target(tiny_spec(), tmp_path)
        assert cache_lines(caplog) == [
            "event=cache artifact=tables action=rebuild reason=missing",
            "event=cache artifact=target_logits action=rebuild reason=missing"]

    def test_sidecar_without_fingerprint_is_a_data_error(self, flow_out, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        sidecar = out / "logits" / "target_1_state_2.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta["fingerprint"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match="no spec fingerprint") as err:
            cmd_sweep(tiny_spec(), out)
        assert err.value.path == str(sidecar)

    def test_reused_sidecar_seed_checked_against_the_spec(self, flow_out, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        sidecar = out / "logits" / "target_0_state_1.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["seed"] = target_seeds(tiny_spec())[1]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(MetadataError, match="sidecar seed 3501 is not the spec's 3500") \
                as err:
            cmd_sweep(tiny_spec(), out)
        assert err.value.path == str(sidecar)


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


def run_cli(*args, env_extra=None, **run_options):
    env = os.environ.copy()
    # The subprocess imports the package this test imported, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "calib_il.cli", *args],
                          capture_output=True, text=True, env=env, **run_options)


def limit_address_space():
    """Cap the child's address space at 1.5 GB, so that an allocation a
    spec should never reach fails at once instead of loading the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def logged_paths(stdout: str) -> list[str]:
    """Each ``path=`` value of a run's log, read back from its string
    literal, or taken as it stands when it is bare."""
    pattern = r"(?:^| )path=('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\S+)"
    return [ast.literal_eval(value) if value[0] in "'\"" else value
            for value in re.findall(pattern, stdout, re.MULTILINE)]


class TestCLI:
    def test_paths_with_a_space_are_logged_as_literals(self, spec_file, tmp_path):
        """Every path a run logs under an --out with a space reads back, by
        ast.literal_eval, as the file the run wrote."""
        out = tmp_path / "o sp"
        logged = []
        for command in ("gen", "run-reference", "run-target", "plot"):
            res = run_cli(command, "--spec", str(spec_file), "--out", str(out))
            assert res.returncode == 0, res.stdout + res.stderr
            logged += logged_paths(res.stdout)
            assert res.stdout.count("path=") == len(logged_paths(res.stdout))
        assert len(logged) == 2 + 2 + 2 + 3 * 2  # datasets, tables, plots
        for path in logged:
            assert path.startswith(str(out) + os.sep) and Path(path).is_file(), path

    def test_missing_spec_file_exits_2(self, tmp_path):
        res = run_cli("gen", "--spec", str(tmp_path / "no.json"),
                      "--out", str(tmp_path))
        assert res.returncode == 2
        message = f"run-spec file {tmp_path / 'no.json'} does not exist"
        assert res.stdout.splitlines()[-1] == f"event=error kind=spec message={message!r}"

    @pytest.mark.parametrize("args", [
        ["plot", "--out", "x"],
        ["run-target", "--spec", "run.json", "--out", "x", "--jobs", "two"],
    ], ids=["no-spec", "jobs-two"])
    def test_argument_errors_exit_2(self, tmp_path, args):
        """A missing or unparseable argument is a spec error like any bad
        input, and nothing is written."""
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=spec message=")
        assert args[0] in res.stdout.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    def test_the_seed_comes_from_the_spec_alone(self, spec_file, tmp_path):
        """An environment variable that once overrode the seed changes
        nothing."""
        trees = []
        for name, env in (("plain", None), ("env", {"CALIB_IL_SEED": "not-a-number"})):
            res = run_cli("gen", "--spec", str(spec_file), "--out", str(tmp_path / name),
                          env_extra=env)
            assert res.returncode == 0, res.stdout + res.stderr
            trees.append(tree_bytes(tmp_path / name))
        assert trees[0] == trees[1]

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
        lambda r: r["backbone"].update(batch_size=4.5),
        lambda r: r["sweep"].update(halved="false"),
        lambda r: r["backbone"].update(hidden_dim=8.5),
        lambda r: r["backbone"].update(seed=1.5),
        lambda r: r["data"].update(center_scale="nan"),
        lambda r: r["data"].update(noise_scale=float("inf")),
        lambda r: r["data"].update(num_classes=4.9),
        lambda r: r["data"].update(feature_dim=True),
        lambda r: r.update(schedule={"classes_per_state": "22"}),
        lambda r: r["sweep"].update(r_values="12"),
        lambda r: r["data"].update(drift_scale=float("nan")),
    ], ids=["seed-str", "seed-null", "num-references-str", "num-classes-list",
            "classes-per-state-int", "num-states-str", "r-values-int",
            "num-samplings-str", "sweep-int", "data-str", "batch-size-4.5",
            "halved-str", "hidden-dim-8.5", "backbone-seed-1.5", "center-scale-str",
            "noise-scale-1e400", "num-classes-4.9", "feature-dim-true",
            "classes-per-state-str", "r-values-str", "drift-scale-nan"])
    def test_uncoercible_spec_values_exit_2(self, mangle, tmp_path):
        raw = json.loads(json.dumps(TINY))
        mangle(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        res = run_cli("gen", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=spec")

    @pytest.mark.parametrize("command, sections", [
        pytest.param("gen", {"data": {"num_classes": 2**40, "feature_dim": 4},
                             "schedule": {"num_states": n}}, id=str(n))
        for n in (2, 2**40)
    ] + [pytest.param("run-reference", {"backbone": {"hidden_dim": 10**15}}, id="hidden_dim")])
    def test_a_spec_too_large_to_build_exits_2(self, tmp_path, command, sections):
        """2**40 classes, or 10**15 hidden units, pass every per-value
        rule; the size cap refuses them before a dataset, a model or the
        schedule's per-state tuple is built, even when the address space
        could not hold it."""
        raw = dict(MINIMAL, **sections)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        res = run_cli(command, "--spec", str(path), "--out", str(tmp_path / "out"),
                      env_extra={"OPENBLAS_NUM_THREADS": "1"},
                      preexec_fn=limit_address_space)
        assert res.returncode == 2, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=spec") and "exceeds 536870912 floats" in last
        assert not (tmp_path / "out").exists()

    def test_corrupt_table_exits_3(self, spec_file, tmp_path):
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        identity_table(2))
        path = tmp_path / "tables" / "ref_0.table.json"
        payload = json.loads(path.read_text())
        payload["entries"][0]["alpha"] = "oops"
        path.write_text(json.dumps(payload))
        res = run_cli("run-target", "--spec", str(spec_file), "--out", str(tmp_path))
        assert res.returncode == 3, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=data")

    def test_stale_tables_exit_3(self, tmp_path):
        """Complete tables of a 2-state run under --out do not cover a
        3-state spec: a data error before any target trains."""
        for i in range(2):
            write_table(tmp_path / "tables" / f"ref_{i}.table.json",
                        identity_table(2))
        raw = json.loads(json.dumps(TINY))
        raw["schedule"] = {"classes_per_state": [2, 1, 1]}
        path = tmp_path / "three.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-target", "--spec", str(path), "--out", str(tmp_path))
        assert res.returncode == 3, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=data")
        assert "ref_0.table.json" in res.stdout
        assert not (tmp_path / "logits").exists()

    def test_corrupt_target_sidecar_fails_sweep_with_exit_3(self, spec_file, tmp_path):
        """A reused sidecar whose fingerprint matches but whose state does
        not parse is a data error, not a traceback."""
        out = tmp_path / "out"
        for command in ("run-reference", "run-target"):
            assert run_cli(command, "--spec", str(spec_file), "--out",
                           str(out)).returncode == 0
        sidecar = out / "logits" / "target_0_state_2.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta["state"] = "two"
        sidecar.write_text(json.dumps(meta))
        res = run_cli("sweep", "--spec", str(spec_file), "--out", str(out))
        assert res.returncode == 3, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=data")
        assert "target_0_state_2.csv.meta.json" in last and "state must be" in last

    def test_tables_of_another_seed_are_rebuilt(self, spec_file, tmp_path):
        """run-reference at the spec seed, then run-target with a spec of
        seed 4 into the same --out: the tables are refitted, byte-equal to
        a fresh run-reference at seed 4."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        seed4 = tmp_path / "seed4.json"
        seed4.write_text(json.dumps(dict(TINY, seed=4)))
        assert run_cli("run-reference", "--spec", str(spec_file), "--out",
                       str(out)).returncode == 0
        res = run_cli("run-target", "--spec", str(seed4), "--out", str(out))
        assert res.returncode == 0, res.stdout + res.stderr
        assert "event=cache artifact=tables action=rebuild reason=fingerprint" in res.stdout
        fresh_run = run_cli("run-reference", "--spec", str(seed4), "--out", str(fresh))
        assert fresh_run.returncode == 0
        fits = [[line for line in r.stdout.splitlines() if line.startswith("event=fit ")]
                for r in (res, fresh_run)]
        assert fits[0] == fits[1] and len(fits[0]) == 2
        rels = [Path("tables") / f"ref_{i}.table.json" for i in range(2)]
        rels += [p.relative_to(fresh) for p in sorted((fresh / "logits").glob("ref_*"))]
        assert len(rels) == 2 + 2 * 2 * 2  # tables; 2 refs x 2 states x (csv, sidecar)
        for rel in rels:
            assert (out / rel).read_bytes() == (fresh / rel).read_bytes(), rel

    def test_tables_of_another_learning_rate_are_rebuilt_and_diverge(self, spec_file,
                                                                     tmp_path):
        """Tables fitted at lr 0.05 are not reused by a run-target at lr
        1e12: its refit cannot be certified, so it exits 4."""
        out = tmp_path / "out"
        assert run_cli("run-reference", "--spec", str(spec_file), "--out",
                       str(out)).returncode == 0
        raw = json.loads(json.dumps(TINY))
        raw["backbone"]["learning_rate"] = 1e12
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-target", "--spec", str(path), "--out", str(out))
        assert res.returncode == 4, res.stdout + res.stderr
        assert res.stdout.splitlines()[-1].startswith("event=error kind=numeric")

    @pytest.mark.parametrize("rel,row,column,value,message", [
        ("metrics/target_0_raw.csv", 1, 0, "x", "row 2: expected 1,1, got x,1"),
        ("metrics/target_0_adbic.csv", 2, 1, "k", "row 3: expected 2,1, got 2,k"),
        ("per_state.csv", 1, 2, "x", "row 2: expected target_0,raw,1, got target_0,raw,x"),
        ("per_state.csv", 3, 3, "oops", "row 4 accuracy: 'oops' is not a number"),
    ], ids=["metrics-state", "metrics-group", "per-state-state", "per-state-accuracy"])
    def test_unparseable_plot_inputs_exit_3(self, flow_out, spec_file, tmp_path, rel, row,
                                            column, value, message):
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        lines = (out / rel).read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        (out / rel).write_text("\n".join(lines) + "\n")
        res = run_cli("plot", "--spec", str(spec_file), "--out", str(out))
        assert res.returncode == 3, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=data")
        assert rel.rsplit("/", 1)[-1] in last and message in last

    @pytest.mark.parametrize("row,value", [
        (2, "1e300"), (2, "-5"), (2, "2.5"), (2, "0"), (2, "3"), (-1, "3"),
    ], ids=["huge", "negative", "non-integral", "zero", "past-last", "past-last-spec"])
    def test_plot_state_outside_the_schedule_exits_3(self, flow_out, spec_file, tmp_path,
                                                     row, value):
        """The tiny spec has 2 states; row 3 holds target_0's raw accuracy
        at state 2 and the last row target_1's oracle accuracy at state 2,
        the spec's last point."""
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        lines = (out / "per_state.csv").read_text().splitlines()
        cells = lines[row].split(",")
        key = ",".join(cells[:2])
        cells[2] = value
        lines[row] = ",".join(cells)
        (out / "per_state.csv").write_text("\n".join(lines) + "\n")
        res = run_cli("plot", "--spec", str(spec_file), "--out", str(out))
        assert res.returncode == 3, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=data")
        line_number = row % len(lines) + 1
        assert f"row {line_number}: expected {key},2, got {key},{value}" in last

    def test_header_only_target_logits_fail_sweep_with_exit_3(self, flow_out, spec_file,
                                                              tmp_path):
        out = tmp_path / "out"
        shutil.copytree(flow_out, out)
        path = out / "logits" / "target_0_state_2.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        res = run_cli("sweep", "--spec", str(spec_file), "--out", str(out))
        assert res.returncode == 3, res.stdout + res.stderr
        assert "Traceback" not in res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=data")
        assert "target_0_state_2.csv" in last and "no data rows" in last

    def test_diverging_backbone_exits_4(self, tmp_path):
        """The README demo spec with a huge learning rate drives the scores
        to infinity during state-1 training."""
        raw = {"seed": 7, "name": "demo",
               "data": {"num_classes": 20, "feature_dim": 32,
                        "num_references": 2, "num_targets": 2},
               "schedule": {"num_states": 5},
               "backbone": {"kind": "ftplus", "learning_rate": 1e6}}
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-reference", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 4, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=numeric")
        assert "'ref_0', state 1: ftplus" in last

    def test_diverging_backbone_with_finite_scores_exits_4(self, tmp_path):
        """With lr 1e12 the tiny spec's scores stay finite but reach ~1e278;
        no calibration fit on them can be certified."""
        raw = json.loads(json.dumps(TINY))
        raw["backbone"]["learning_rate"] = 1e12
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-reference", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 4, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=numeric")
        assert "'ref_0', state 2: calibration fit" in last

    @pytest.mark.parametrize("command", ["gen", "run-reference"])
    def test_features_that_overflow_exit_2(self, tmp_path, command):
        """A noise scale near the float range makes the drawn features
        infinite: a spec error, not a traceback."""
        raw = json.loads(json.dumps(TINY))
        raw["data"]["noise_scale"] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        res = run_cli(command, "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=spec")
        assert "overflow to non-finite values" in last

    def test_zero_beta_penalty_exits_2(self, tmp_path):
        """Without the beta penalty every calibration fit's Hessian is
        singular, so the spec is refused before anything is trained."""
        raw = json.loads(json.dumps(TINY))
        raw["calibration"] = {"l2_beta": 0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-reference", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=spec")
        assert "calibration.l2_beta" in last
        assert not (tmp_path / "out").exists()
        CalibConfig(l2_beta=0.0)  # the penalty itself may still be zero

    def test_removed_calibration_key_exits_2(self, tmp_path):
        raw = json.loads(json.dumps(TINY))
        raw["calibration"] = {"epochs": 12}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(raw))
        res = run_cli("run-reference", "--spec", str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2, res.stdout + res.stderr
        last = res.stdout.splitlines()[-1]
        assert last.startswith("event=error kind=spec")
        assert "unknown keys ['epochs'] in calibration" in last

    def test_plot_before_run_target_exits_3(self, spec_file, tmp_path):
        res = run_cli("plot", "--spec", str(spec_file), "--out", str(tmp_path))
        assert res.returncode == 3
        assert "event=error kind=data" in res.stdout

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

