"""Bad artifacts under --out end in exit 3 with a final event=error line.

Every probe runs ``cli.main`` in-process on a copy of one finished tiny
run: a mistyped table field, bytes that are not UTF-8, a directory or an
oversized cell where a file is read, a plain file where an output
directory goes, per_state.csv rows that name an unknown method, repeat a
point or leave points out, and a logits file cut at a row boundary. A run
that fails part-way (exit 4) leaves nothing that a later command reuses. A
derandomized property then mutates one artifact at a time and requires
each consuming command to refuse it (exit 3) or to behave as on the clean
tree.
"""

import concurrent.futures
import json
import math
import shutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from calib_il import backbones, cli, flows
from calib_il.errors import NumericError
from calib_il.flows import all_target_rows, cmd_run_reference, cmd_run_target, cmd_sweep
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
def run(caplog, monkeypatch):
    """``run(command, out)``: the exit code of ``calib-il command --spec
    SPEC --out out`` and its log lines."""
    monkeypatch.delenv("CALIB_IL_SEED", raising=False)
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
        assert_data_error(*result, "target_0_state_3.csv.meta.json", "consecutive")
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


class TestPerStateRows:
    def edit_row(self, out, row, edit):
        path = out / "per_state.csv"
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        edit(cells)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_unknown_method_exits_3(self, clean, out, run):
        self.edit_row(out, 4, lambda cells: cells.__setitem__(1, "bic2"))
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "row 5: unknown method 'bic2'")

    def test_duplicate_point_exits_3(self, clean, out, run):
        # Row 3 is target_0 raw state 2; make row 2 (state 1) repeat it.
        self.edit_row(out, 1, lambda cells: cells.__setitem__(2, "2"))
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "row 3: a second row for target_0 raw state 2")

    def test_duplicate_point_from_another_target_exits_3(self, clean, out, run):
        self.edit_row(out, 1, lambda cells: cells.__setitem__(0, "target_1"))
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "a second row for target_1 raw state 1")

    def test_missing_point_exits_3(self, clean, out, run):
        # Row 3 is target_0 raw state 2.
        path = out / "per_state.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "target_0 raw has no rows for states [2]")

    def test_missing_series_exits_3(self, clean, out, run):
        path = out / "per_state.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines
                                   if not line.startswith("target_0,oracle,")) + "\n")
        assert_data_error(*run("plot", clean[0], out), "per_state.csv",
                          "target_0 oracle has no rows for states [1, 2, 3]")


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
    pooled = all_target_rows(spec, {"raw": [None]}, tmp_path / "pooled", jobs=10**9)
    assert sizes == [spec.num_targets]
    serial = all_target_rows(spec, {"raw": [None]}, tmp_path / "serial", jobs=1)
    assert [[(acc, group.tobytes()) for acc, group in rows["raw"]] for rows in pooled] == \
        [[(acc, group.tobytes()) for acc, group in rows["raw"]] for rows in serial]
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
        real = backbones._stack_logits

        def stack_logits(model, x, labels, state, schedule, draws, *rest):
            if state == 3 and draws[0].name.startswith("target"):
                raise NumericError(f"dataset {draws[0].name!r}, state 3: injected divergence")
            return real(model, x, labels, state, schedule, draws, *rest)

        monkeypatch.setattr(backbones, "_stack_logits", stack_logits)
        code, lines = run("run-target", clean[0], out)
        assert code == 4 and lines[-1].startswith("event=error kind=numeric"), lines[-3:]
        assert (out / "logits" / "target_1_state_2.csv").exists()
        assert not (out / "metrics").exists()
        assert not (out / "comparison.csv").exists() and not (out / "per_state.csv").exists()
        monkeypatch.setattr(backbones, "_stack_logits", real)
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
