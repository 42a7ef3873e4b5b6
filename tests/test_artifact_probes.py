"""Bad artifacts under --out end in exit 3 with a final event=error line.

Every probe runs ``cli.main`` in-process on a copy of one finished tiny
run: a mistyped table field, bytes that are not UTF-8, a directory or an
oversized cell where a file is read, a plain file where an output
directory goes, plot inputs whose rows are not exactly those that
run-target writes for the spec, and a logits file cut at a row boundary.
A run that fails part-way (exit 4) leaves nothing that a later command
reuses. A derandomized property then mutates one artifact at a time and
requires each consuming command to refuse it (exit 3) or to behave as on
the clean tree.
"""

import concurrent.futures
import json
import math
import shutil
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calib_il import cli, flows
from calib_il.errors import NumericError
from calib_il.flows import cmd_run_reference, cmd_run_target, cmd_sweep
from calib_il.pipeline import parse_run_spec
from calib_il.plots import cmd_plot

SPEC = {
    "seed": 3, "name": "probe",
    "data": {"num_classes": 6, "feature_dim": 6, "train_per_class": 8,
             "val_per_class": 4, "test_per_class": 4,
             "num_references": 2, "num_targets": 2},
    "schedule": {"num_states": 3},
    "backbone": {"kind": "ftplus", "hidden_dim": 16, "epochs_initial": 8,
                 "epochs_incremental": 4},
    "sweep": {"r_values": [1, 2], "num_samplings": 2},
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """The spec file and the --out tree after every subcommand but gen."""
    root = tmp_path_factory.mktemp("clean")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    spec, out = parse_run_spec(SPEC), root / "out"
    for command in (cmd_run_reference, cmd_run_target, cmd_sweep, cmd_plot):
        command(spec, out)
    return spec_path, out


@pytest.fixture
def run(caplog):
    """``run(command, out)``: the exit code of ``calib-il command --spec
    SPEC --out out`` and its log lines."""
    caplog.set_level("INFO", logger="calib_il")

    def run(command, spec_path, out):
        caplog.clear()
        code = cli.main([command, "--spec", str(spec_path), "--out", str(out)])
        return code, [r.getMessage() for r in caplog.records if r.name == "calib_il"]
    return run


@pytest.fixture
def out(clean, tmp_path):
    shutil.copytree(clean[1], tmp_path / "out")
    return tmp_path / "out"


def assert_data_error(code, lines, *parts):
    assert code == 3, lines[-3:]
    assert lines[-1].startswith("event=error kind=data"), lines[-1]
    for part in parts:
        assert part in lines[-1], (part, lines[-1])


def edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class TestMistypedJSON:
    @pytest.mark.parametrize("edit,message", [
        (lambda t: t["entries"][0].update(s=2.5), "s must be int, got 2.5"),
        (lambda t: t["entries"][1].update(alpha=True), "alpha must be float, got True"),
        (lambda t: t.update(num_states="3"), "num_states must be int, got '3'"),
        (lambda t: t["entries"][2].update(k=None), "k must be int, got None"),
        (lambda t: t.update(schema_version=2), "schema_version 2 is not 1"),
        (lambda t: t["entries"][0].update(gamma=1.0), "unknown keys ['gamma']"),
    ], ids=["s-2.5", "alpha-true", "num-states-str", "k-null", "version-2", "extra-key"])
    def test_table_field_exits_3(self, clean, out, run, edit, message):
        edit_json(out / "tables" / "ref_1.table.json", edit)
        assert_data_error(*run("run-target", clean[0], out), "ref_1.table.json", message)

    @pytest.mark.parametrize("key,value", [
        ("state", True), ("seed", 3500.5), ("class_to_state", [1, 1, 2, 2, 3, "3"]),
        ("dataset", 0),
    ])
    def test_logits_sidecar_field_exits_3(self, clean, out, run, key, value):
        edit_json(out / "logits" / "target_0_state_3.csv.meta.json",
                  lambda meta: meta.update({key: value}))
        assert_data_error(*run("sweep", clean[0], out), "target_0_state_3.csv.meta.json",
                          f"{key}")

    def test_a_huge_state_in_class_to_state_costs_no_memory(self, clean, out, run):
        edit_json(out / "logits" / "target_0_state_3.csv.meta.json",
                  lambda meta: meta.update(class_to_state=[1, 1, 2, 2, 3, 10**6]))
        tracemalloc.start()
        try:
            result = run("sweep", clean[0], out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_data_error(*result, "target_0_state_3.csv.meta.json",
                          "sidecar class_to_state differs from the spec's")
        assert peak < 2**22


# (artifact, command that reads it)
ARTIFACTS = [
    ("tables/ref_1.table.json", "run-target"),
    ("logits/target_0_state_2.csv", "sweep"),
    ("logits/target_1_state_3.csv.meta.json", "sweep"),
    ("metrics/target_0_adbic.csv", "plot"),
    ("per_state.csv", "plot"),
]


class TestUnreadableFiles:
    @pytest.mark.parametrize("rel,command", ARTIFACTS)
    def test_bytes_that_are_not_utf8_exit_3(self, clean, out, run, rel, command):
        with open(out / rel, "ab") as fh:
            fh.write(b"\xff\xfe")
        assert_data_error(*run(command, clean[0], out), rel.rsplit("/", 1)[-1])

    @pytest.mark.parametrize("rel,command", ARTIFACTS)
    def test_a_directory_in_place_of_the_file_exits_3(self, clean, out, run, rel, command):
        (out / rel).unlink()
        (out / rel).mkdir()
        assert_data_error(*run(command, clean[0], out), rel.rsplit("/", 1)[-1])

    def test_a_cell_past_the_csv_field_limit_exits_3(self, clean, out, run):
        path = out / "logits" / "target_0_state_2.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",", ',"' + "1" * 140_000 + '",', 1)
        path.write_text("\n".join(lines) + "\n")
        assert_data_error(*run("sweep", clean[0], out), "target_0_state_2.csv",
                          "field larger than field limit")

    def test_json_nested_past_the_recursion_limit_exits_3(self, clean, out, run):
        (out / "tables" / "ref_0.table.json").write_text("[" * 100_000 + "]" * 100_000)
        assert_data_error(*run("run-target", clean[0], out), "ref_0.table.json",
                          "invalid JSON")

    @pytest.mark.parametrize("content", [json.dumps(SPEC).encode() + b"\xff",
                                         b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "nested"])
    def test_an_unreadable_spec_exits_2(self, tmp_path, run, content):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(content)
        code, lines = run("gen", spec_path, tmp_path / "out")
        assert code == 2 and lines[-1].startswith("event=error kind=spec"), lines[-1]


class TestBlockedOutputs:
    @pytest.mark.parametrize("rel,command", [("plots", "plot"), ("tables", "run-reference"),
                                             ("metrics", "run-target")])
    def test_a_file_where_an_output_directory_goes_exits_3(self, clean, out, run, rel,
                                                           command):
        shutil.rmtree(out / rel)
        (out / rel).write_text("in the way\n")
        assert_data_error(*run(command, clean[0], out), rel, "cannot write")


    @pytest.mark.parametrize("rel,command", [("comparison.csv", "run-target"),
                                             ("plots/heat_target_0_raw.svg", "plot")])
    def test_a_directory_where_an_output_file_goes_exits_3(self, clean, out, run, rel,
                                                           command):
        (out / rel).unlink()
        (out / rel).mkdir()
        assert_data_error(*run(command, clean[0], out), rel, "cannot write")
        assert [p.name for p in (out / rel).parent.iterdir() if p.suffix == ".tmp"] == []


def decoy_traversal(out: Path, lines: list[str]) -> list[str]:
    """``lines`` with target_0 renamed to a name that climbs out of --out
    to metrics files that exist there: enough ".." to reach the root from
    any chart under out/plots."""
    trav = out.parent / "trav"
    trav.mkdir()
    for method in ("raw", "adbic"):
        shutil.copy(out / "metrics" / f"target_0_{method}.csv", trav / f"evil_{method}.csv")
    evil = "/" + "../" * len((out / "plots" / "heat_").parts) + str(trav / "evil")[1:]
    return [line.replace("target_0,", evil + ",") for line in lines]


def set_cell(row: int, column: int, value: str):
    def edit(out, lines):
        cells = lines[row].split(",")
        cells[column] = value
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return edit


# Edits of a file's lines, the header at 0.
def swap(out, lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


def drop(out, lines):
    return lines[:2] + lines[3:]


def duplicate(out, lines):
    return lines[:3] + lines[2:]


def repeat_last(out, lines):
    return lines + lines[-1:]


def header_only(out, lines):
    return lines[:1]


# (file, edit, message). The spec has 2 targets and 3 states: per_state.csv
# holds target_0's raw, bic, adbic and oracle rows for states 1..3 (rows
# 2-13), then target_1's; a metrics file holds rows 1,1 2,1 2,2 3,1 3,2 3,3,
# then the 0,0 summary.
PER_STATE, METRICS = "per_state.csv", "metrics/target_0_adbic.csv"
PLOT_INPUT_EDITS = {
    "per_state-swapped": (PER_STATE, swap, "row 2: expected target_0,raw,1, got target_0,raw,2"),
    "per_state-dropped": (PER_STATE, drop, "row 3: expected target_0,raw,2, got target_0,raw,3"),
    "per_state-duplicated": (PER_STATE, duplicate,
                             "row 4: expected target_0,raw,3, got target_0,raw,2"),
    "per_state-after-end": (PER_STATE, repeat_last,
                            "row 26: expected end of file, got target_1,oracle,3"),
    "per_state-header-only": (PER_STATE, header_only,
                              "row 2: expected target_0,raw,1, got end of file"),
    "per_state-state-1.0": (PER_STATE, set_cell(1, 2, "1.0"),
                            "row 2: expected target_0,raw,1, got target_0,raw,1.0"),
    "per_state-unknown-method": (PER_STATE, set_cell(4, 1, "bic2"),
                                 "row 5: expected target_0,bic,1, got target_0,bic2,1"),
    "per_state-target_01": (PER_STATE, set_cell(1, 0, "target_01"),
                            "row 2: expected target_0,raw,1, got target_01,raw,1"),
    "per_state-traversal": (PER_STATE, decoy_traversal, "row 2: expected target_0,raw,1, got /"),
    "metrics-swapped": (METRICS, swap, "row 2: expected 1,1, got 2,1"),
    "metrics-dropped": (METRICS, drop, "row 3: expected 2,1, got 2,2"),
    "metrics-duplicated": (METRICS, duplicate, "row 4: expected 2,2, got 2,1"),
    "metrics-after-summary": (METRICS, repeat_last, "row 9: expected end of file, got 0,0"),
    "metrics-header-only": (METRICS, header_only, "row 2: expected 1,1, got end of file"),
    "metrics-summary-only": (METRICS, lambda out, lines: lines[:1] + lines[-1:],
                             "row 2: expected 1,1, got 0,0"),
    "metrics-state-1.0": (METRICS, set_cell(1, 0, "1.0"), "row 2: expected 1,1, got 1.0,1"),
    "metrics-missing": (METRICS, None, "missing metrics file"),
}


class TestPlotInputRows:
    """plot reads exactly the rows that run-target writes for the spec, in
    its order; the spec alone names the targets and the states."""

    @pytest.mark.parametrize("case", PLOT_INPUT_EDITS)
    def test_unwritten_row_exits_3(self, clean, out, run, case):
        """Nothing outside --out is written either: a traversal name is
        refused before plot reads the files it names."""
        rel, edit, message = PLOT_INPUT_EDITS[case]
        path = out / rel
        if edit is None:
            path.unlink()
        else:
            path.write_text("\n".join(edit(out, path.read_text().splitlines())) + "\n")
        outside = sorted(p for p in out.parent.rglob("*") if out not in p.parents)
        assert_data_error(*run("plot", clean[0], out), path.name, message)
        assert sorted(p for p in out.parent.rglob("*") if out not in p.parents) == outside
        assert not (out / "plots").exists() or tree(out / "plots") == tree(clean[1] / "plots")

    def test_metrics_of_another_state_count_exits_3(self, clean, out, run):
        """A 2-state triangle where the spec has 3 states."""
        path = out / "metrics" / "target_0_raw.csv"
        path.write_text("state,group,accuracy\n1,1,0.5\n2,1,0.5\n2,2,0.5\n0,0,0.5\n")
        assert_data_error(*run("plot", clean[0], out), "target_0_raw.csv",
                          "row 5: expected 3,1, got 0,0")

    def test_per_state_without_a_spec_target_exits_3(self, clean, out, run):
        path = out / "per_state.csv"
        path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                if not line.startswith("target_1,")))
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "row 14: expected target_1,raw,1, got end of file")


def test_a_logits_file_cut_at_a_row_boundary_exits_3(clean, out, run):
    """The cut file is a well-formed smaller evaluation set; only the row
    count the spec implies (4 test samples x 6 classes) tells it apart."""
    path = out / "logits" / "target_0_state_3.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:12]))
    assert_data_error(*run("sweep", clean[0], out), "target_0_state_3.csv",
                      "11 data rows, but the spec makes 24")


def test_pool_size_is_bounded_by_the_chunks(monkeypatch, tmp_path):
    """A huge --jobs asks for one worker per chunk. The recording pool runs
    the chunks serially, so no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = parse_run_spec(SPEC)
    score = partial(flows._score, {"raw": [None]})
    pooled = flows._stacks(spec, "target", score, tmp_path / "pooled", jobs=10**9)
    assert sizes == [spec.num_targets]
    serial = flows._stacks(spec, "target", score, tmp_path / "serial", jobs=1)
    assert [[(row["raw"][0], row["raw"][1].tobytes()) for row in rows] for rows in pooled] == \
        [[(row["raw"][0], row["raw"][1].tobytes()) for row in rows] for rows in serial]
    assert tree(tmp_path / "pooled") == tree(tmp_path / "serial")


# ---------------------------------------------------------------------------
# a run that fails part-way


class TestFailedRuns:
    """Streaming writes the logits of states 1..s-1 before a failure at
    state s. Tables and results are written only after every state, so a
    failed run leaves nothing a later command may reuse: it rebuilds, and
    the finished tree equals a clean run's byte for byte."""

    def finish(self, run, spec_path, out, commands):
        for command in commands:
            code, lines = run(command, spec_path, out)
            assert code == 0, lines[-3:]

    def test_a_failed_reference_fit_leaves_no_table(self, clean, run, tmp_path, monkeypatch):
        out = tmp_path / "out"
        real = flows.fit_state

        def fit_state(logits, config):
            if logits.state == 3:
                raise NumericError(f"dataset {logits.dataset!r}, state 3: injected failure")
            return real(logits, config)

        monkeypatch.setattr(flows, "fit_state", fit_state)
        code, lines = run("run-reference", clean[0], out)
        assert code == 4 and lines[-1].startswith("event=error kind=numeric"), lines[-3:]
        assert (out / "logits" / "ref_0_state_3.csv").exists()
        assert not list(out.rglob("*.table.json"))
        monkeypatch.setattr(flows, "fit_state", real)
        code, lines = run("run-target", clean[0], out)
        assert code == 0, lines[-3:]
        assert "event=cache artifact=tables action=rebuild reason=missing" in lines
        self.finish(run, clean[0], out, ("sweep", "plot"))
        assert tree(out) == tree(clean[1])

    def test_a_failed_target_writes_no_results(self, clean, run, tmp_path, monkeypatch):
        out = tmp_path / "out"
        self.finish(run, clean[0], out, ("run-reference",))
        real = flows.run_incremental_stack

        def stream(config, draws, sets):
            for name, logits in real(config, draws, sets):
                if logits.state == 3 and logits.dataset.startswith("target"):
                    raise NumericError(f"dataset {logits.dataset!r}, state 3: "
                                       "injected divergence")
                yield name, logits

        monkeypatch.setattr(flows, "run_incremental_stack", stream)
        code, lines = run("run-target", clean[0], out)
        assert code == 4 and lines[-1].startswith("event=error kind=numeric"), lines[-3:]
        assert (out / "logits" / "target_1_state_2.csv").exists()
        assert not (out / "metrics").exists()
        assert not (out / "comparison.csv").exists() and not (out / "per_state.csv").exists()
        monkeypatch.setattr(flows, "run_incremental_stack", real)
        code, lines = run("run-target", clean[0], out)
        assert code == 0, lines[-3:]
        assert "event=cache artifact=target_logits action=rebuild reason=missing" in lines
        self.finish(run, clean[0], out, ("sweep", "plot"))
        assert tree(out) == tree(clean[1])


# ---------------------------------------------------------------------------
# mutated artifacts

OTHER_VALUES = [None, True, "x", [1], {"a": 1}, 2.5, 7]


def json_slots(node):
    """(container, key) of every value under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from json_slots(value)


def json_shape(node):
    """``node`` with every number replaced by one marker: a value the
    readers accept in place of the written one must have this shape."""
    if isinstance(node, dict):
        return {key: json_shape(value) for key, value in node.items()}
    if isinstance(node, list):
        return [json_shape(value) for value in node]
    return "<number>" if type(node) in (int, float) else node


def csv_shape(text):
    """Rows of cells with every finite number replaced by one marker."""
    def cell(text):
        try:
            return "<number>" if math.isfinite(float(text)) else text
        except ValueError:
            return text
    return [[cell(c) for c in line.split(",")] for line in text.split("\n") if line]


def same_shape(mutated: bytes, clean: bytes, is_json: bool) -> bool:
    """Whether ``mutated`` is a well-formed variant of ``clean``: the same
    structure with other numbers, or for a CSV a prefix of its rows."""
    try:
        text = mutated.decode("utf-8")
        if is_json:
            return json_shape(json.loads(text)) == json_shape(json.loads(clean))
    except ValueError:
        return False
    rows = csv_shape(text)
    return rows == csv_shape(clean.decode("utf-8"))[:len(rows)]


def mutate(data, path: Path):
    raw = path.read_bytes()
    kinds = ["flip", "truncate"] + (["swap"] if path.suffix == ".json" else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1:])
    elif kind == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    else:
        payload = json.loads(raw)
        slots = list(json_slots(payload))
        node, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        others = [v for v in OTHER_VALUES if type(v) is not type(node[key])]
        node[key] = data.draw(st.sampled_from(others), label="value")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def tree(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(ARTIFACTS), st.data())
def test_a_mutated_artifact_is_refused_or_harmless(clean, run, tmp_path_factory, artifact,
                                                   data):
    """One byte flipped, the file cut short, or one JSON value replaced by
    a value of another type. The consuming command exits 3 with a final
    event=error line, or exits 0 with every other file of --out equal to
    the clean run's; only a mutation that leaves a well-formed artifact of
    the same shape may change what the command writes."""
    rel, command = artifact
    out = tmp_path_factory.mktemp("mutated") / "out"
    shutil.copytree(clean[1], out)
    mutate(data, out / rel)
    mutated = (out / rel).read_bytes()
    code, lines = run(command, clean[0], out)
    if code == 3:
        assert lines[-1].startswith("event=error kind=data"), lines[-1]
    else:
        assert code == 0, lines[-3:]
        before, after = tree(clean[1]), tree(out)
        changed = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
        assert changed <= {Path(rel)} or same_shape(mutated, before[Path(rel)],
                                                    rel.endswith(".json")), changed
    shutil.rmtree(out.parent)
