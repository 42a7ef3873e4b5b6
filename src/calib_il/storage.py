"""Bit-exact CSV/JSON serialization for logits, tables, datasets, metrics.

Floats are rendered with Python's shortest round-trip repr so that
write → read returns the same IEEE-754 bits. All writers go through a
temp-file rename, so a crashed run never leaves a half-written artifact.
UTF-8, LF line endings, '.' decimal point — no locale dependence.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .calibration import CalibrationTable
from .errors import MetadataError, SchemaError
from .logits import StateLogits
from .metrics import RunMetrics
from .schedule import StateSchedule
from .synth import SPLITS, IncrementalDataset

SCHEMA_VERSION = 1


def _fmt(value) -> str:
    # repr(float(...)) gives the shortest string that round-trips; plain
    # repr of a numpy scalar would render as 'np.float64(...)' on numpy 2.
    return repr(float(value))


def _atomic_write(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path, what: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise MetadataError(path, f"missing {what} metadata file")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise MetadataError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MetadataError(path, "metadata root must be a JSON object")
    if "schema_version" not in payload:
        raise MetadataError(path, "metadata lacks schema_version")
    return payload


def _require(payload: dict, keys: list[str], path: Path):
    missing = [k for k in keys if k not in payload]
    if missing:
        raise MetadataError(path, f"metadata missing keys {missing}")


def _sidecar(path) -> Path:
    return Path(str(path) + ".meta.json")


def _schedule_from_meta(meta: dict, path: Path) -> StateSchedule:
    raw = meta["class_to_state"]
    if not isinstance(raw, list):
        raise MetadataError(path, "class_to_state must be a list")
    try:
        schedule = StateSchedule.from_mapping({c: int(s) for c, s in enumerate(raw)})
    except ValueError as exc:
        raise MetadataError(path, str(exc)) from exc
    if schedule.num_states != int(meta["num_states"]):
        raise MetadataError(
            path,
            f"num_states {meta['num_states']} disagrees with the "
            f"class_to_state map ({schedule.num_states} states)")
    return schedule


def _parse_float(text: str, path: Path, where: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise SchemaError(path, f"{where}: {text!r} is not a number") from exc
    if not np.isfinite(value):
        raise SchemaError(path, f"{where}: non-finite value {text!r}")
    return value


def _read_csv_rows(path: Path, what: str):
    path = Path(path)
    if not path.exists():
        raise SchemaError(path, f"missing {what} file")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaError(path, f"empty {what} file")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# logits


def write_logits(path, logits: StateLogits):
    """CSV `id,label,c<j>...` plus a JSON sidecar with the protocol."""
    path = Path(path)
    cols = logits.matrix.shape[1]
    buf = io.StringIO()
    buf.write("id,label," + ",".join(f"c{j}" for j in range(cols)) + "\n")
    for i in range(logits.num_samples):
        scores = ",".join(_fmt(v) for v in logits.matrix[i])
        buf.write(f"{i},{int(logits.labels[i])},{scores}\n")
    _atomic_write(path, buf.getvalue())
    _write_json(_sidecar(path), {
        "schema_version": SCHEMA_VERSION,
        "state": logits.state,
        "num_states": logits.schedule.num_states,
        "class_to_state": list(logits.schedule.class_to_state),
        "dataset": logits.dataset,
        "backbone": logits.backbone,
        "seed": logits.seed,
    })


def read_logits(path) -> StateLogits:
    path = Path(path)
    meta = _read_json(_sidecar(path), "logits")
    _require(meta, ["state", "num_states", "class_to_state", "dataset",
                    "backbone", "seed"], _sidecar(path))
    schedule = _schedule_from_meta(meta, _sidecar(path))
    state = int(meta["state"])
    header, rows = _read_csv_rows(path, "logits")
    expect = schedule.classes_through(state) if 1 <= state <= schedule.num_states else -1
    want = ["id", "label"] + [f"c{j}" for j in range(max(expect, 0))]
    if expect < 0 or header != want:
        raise SchemaError(
            path,
            f"header {header[:4]}...({len(header) - 2} score columns) does not "
            f"match the sidecar protocol ({expect} classes through state {state})")
    labels = np.empty(len(rows), dtype=np.int64)
    matrix = np.empty((len(rows), expect))
    for i, row in enumerate(rows):
        if len(row) != len(want):
            raise SchemaError(path, f"row {i + 2}: expected {len(want)} fields, got {len(row)}")
        labels[i] = int(_parse_float(row[1], path, f"row {i + 2} label"))
        for j in range(expect):
            matrix[i, j] = _parse_float(row[2 + j], path, f"row {i + 2} column c{j}")
    try:
        return StateLogits(state=state, matrix=matrix, labels=labels,
                           schedule=schedule, dataset=str(meta["dataset"]),
                           backbone=str(meta["backbone"]), seed=int(meta["seed"]))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# calibration tables


def write_table(path, table: CalibrationTable):
    entries = [{"s": s, "k": k, "alpha": float(a), "beta": float(b)}
               for s in range(2, table.num_states + 1)
               for k, (a, b) in enumerate(zip(*table.pairs_for_state(s)), start=1)]
    _write_json(Path(path), {
        "schema_version": SCHEMA_VERSION,
        "num_states": table.num_states,
        "entries": entries,
    })


def read_table(path) -> CalibrationTable:
    path = Path(path)
    meta = _read_json(path, "calibration table")
    _require(meta, ["num_states", "entries"], path)
    if not isinstance(meta["entries"], list):
        raise MetadataError(path, "table entries must be a list")
    items = []
    for item in meta["entries"]:
        try:
            items.append(((int(item["s"]), int(item["k"])),
                          (float(item["alpha"]), float(item["beta"]))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MetadataError(path, f"malformed table entry {item!r}: {exc}") from exc
    try:
        return CalibrationTable.from_pairs(int(meta["num_states"]), items)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MetadataError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# datasets


def write_dataset(path, dataset: IncrementalDataset):
    path = Path(path)
    dim = dataset.features.shape[1]
    buf = io.StringIO()
    buf.write(",".join(f"x{j}" for j in range(dim)) + ",label,split\n")
    for i in range(len(dataset.labels)):
        feats = ",".join(_fmt(v) for v in dataset.features[i])
        buf.write(f"{feats},{int(dataset.labels[i])},{dataset.split[i]}\n")
    _atomic_write(path, buf.getvalue())
    _write_json(_sidecar(path), {
        "schema_version": SCHEMA_VERSION,
        "num_states": dataset.schedule.num_states,
        "class_to_state": list(dataset.schedule.class_to_state),
        "name": dataset.name,
        "seed": dataset.seed,
    })


def read_dataset(path) -> IncrementalDataset:
    path = Path(path)
    meta = _read_json(_sidecar(path), "dataset")
    _require(meta, ["num_states", "class_to_state", "name", "seed"], _sidecar(path))
    schedule = _schedule_from_meta(meta, _sidecar(path))
    header, rows = _read_csv_rows(path, "dataset")
    if len(header) < 3 or header[-2:] != ["label", "split"]:
        raise SchemaError(path, "dataset header must end with label,split")
    dim = len(header) - 2
    if header[:dim] != [f"x{j}" for j in range(dim)]:
        raise SchemaError(path, "dataset feature columns must be x0..x<d-1>")
    features = np.empty((len(rows), dim))
    labels = np.empty(len(rows), dtype=np.int64)
    split = np.empty(len(rows), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != dim + 2:
            raise SchemaError(path, f"row {i + 2}: expected {dim + 2} fields, got {len(row)}")
        for j in range(dim):
            features[i, j] = _parse_float(row[j], path, f"row {i + 2} feature x{j}")
        labels[i] = int(_parse_float(row[dim], path, f"row {i + 2} label"))
        if labels[i] < 0 or labels[i] >= schedule.num_classes:
            raise SchemaError(path, f"row {i + 2}: label {labels[i]} outside the schedule")
        if row[dim + 1] not in SPLITS:
            raise SchemaError(path, f"row {i + 2}: unknown split tag {row[dim + 1]!r}")
        split[i] = row[dim + 1]
    try:
        return IncrementalDataset(features=features, labels=labels, split=split,
                                  schedule=schedule, name=str(meta["name"]),
                                  seed=int(meta["seed"]))
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# metrics


def write_metrics(path, metrics: RunMetrics):
    """One `(state, group, accuracy)` row per matrix cell plus a summary row.

    The summary row uses group 0 and carries the average incremental
    accuracy over states 2..S.
    """
    buf = io.StringIO()
    buf.write("state,group,accuracy\n")
    schedule = metrics.schedule
    for s in range(1, schedule.num_states + 1):
        for k in range(1, s + 1):
            buf.write(f"{s},{k},{_fmt(metrics.group_accuracy[(s, k)])}\n")
    buf.write(f"0,0,{_fmt(metrics.average_incremental_accuracy)}\n")
    _atomic_write(Path(path), buf.getvalue())


def read_metrics_rows(path) -> list[tuple[int, int, float]]:
    path = Path(path)
    header, rows = _read_csv_rows(path, "metrics")
    if header != ["state", "group", "accuracy"]:
        raise SchemaError(path, f"unexpected metrics header {header}")
    out = []
    for i, row in enumerate(rows):
        if len(row) != 3:
            raise SchemaError(path, f"row {i + 2}: expected 3 fields")
        out.append((int(row[0]), int(row[1]), _parse_float(row[2], path, f"row {i + 2}")))
    return out
