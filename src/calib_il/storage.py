"""Bit-exact CSV/JSON serialization for logits, tables, datasets, metrics.

Floats are rendered with Python's shortest round-trip repr so that
write → read returns the same IEEE-754 bits. All writers stream their rows
into a temp file and rename it into place, so a crashed run never leaves a
half-written artifact. UTF-8, LF line endings, '.' decimal point — no
locale dependence.

Table JSONs and logits sidecars may carry a ``fingerprint``: a digest of
the spec sections that produced the artifact (see
``pipeline.spec_fingerprint``), which decides whether it may be reused.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import warnings
from itertools import chain
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


def _row(values: list) -> str:
    # repr of a Python float is the shortest string that round-trips; the
    # caller passes ``ndarray.tolist()`` so no numpy scalar is boxed per cell.
    return ",".join(map(repr, values))


def _atomic_write(path: Path, chunks):
    """Write ``chunks``, one str or an iterable of str streamed in order, to
    a temp file next to ``path`` and rename it over ``path``. If anything
    fails, the temp file is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
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


def _int_field(meta: dict, key: str, path: Path) -> int:
    try:
        return int(meta[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise MetadataError(path, f"{key} must be an integer, got {meta[key]!r}") from exc


def _with_fingerprint(payload: dict, fingerprint: str | None) -> dict:
    return payload if fingerprint is None else {**payload, "fingerprint": fingerprint}


def read_fingerprint(path) -> str:
    """The spec fingerprint stored in a table JSON or a logits sidecar; an
    artifact without one cannot be told apart from a stale one, so it is a
    ``MetadataError``."""
    path = Path(path)
    meta = _read_json(path, "artifact")
    if "fingerprint" not in meta:
        raise MetadataError(path, "artifact has no spec fingerprint, so it may be stale; "
                                  "remove it to rebuild")
    return str(meta["fingerprint"])


def _sidecar(path) -> Path:
    return Path(str(path) + ".meta.json")


def _schedule_from_meta(meta: dict, path: Path) -> StateSchedule:
    raw = meta["class_to_state"]
    if not isinstance(raw, list):
        raise MetadataError(path, "class_to_state must be a list")
    try:
        schedule = StateSchedule.from_mapping({c: int(s) for c, s in enumerate(raw)})
    except (TypeError, ValueError, OverflowError) as exc:
        raise MetadataError(path, f"class_to_state: {exc}") from exc
    if schedule.num_states != _int_field(meta, "num_states", path):
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


def _parse_int(text: str, path: Path, where: str, low: int, high: int) -> int:
    value = _parse_float(text, path, where)
    if not value.is_integer():
        raise SchemaError(path, f"{where}: {text!r} is not an integer")
    if not low <= value <= high:
        raise SchemaError(path, f"{where}: {text!r} outside the schedule's {low}..{high}")
    return int(value)


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


def write_logits(path, logits: StateLogits, fingerprint: str | None = None):
    """CSV `id,label,c<j>...` plus a JSON sidecar with the protocol and,
    when given, the spec fingerprint."""
    path = Path(path)
    cols = logits.matrix.shape[1]
    _atomic_write(path, chain(
        ["id,label," + ",".join(f"c{j}" for j in range(cols)) + "\n"],
        (f"{i},{label},{_row(scores.tolist())}\n"
         for i, (label, scores) in enumerate(zip(logits.labels.tolist(), logits.matrix)))))
    _write_json(_sidecar(path), _with_fingerprint({
        "schema_version": SCHEMA_VERSION,
        "state": logits.state,
        "num_states": logits.schedule.num_states,
        "class_to_state": list(logits.schedule.class_to_state),
        "dataset": logits.dataset,
        "backbone": logits.backbone,
        "seed": logits.seed,
    }, fingerprint))


def read_logits(path) -> StateLogits:
    path = Path(path)
    meta_path = _sidecar(path)
    meta = _read_json(meta_path, "logits")
    _require(meta, ["state", "num_states", "class_to_state", "dataset",
                    "backbone", "seed"], meta_path)
    schedule = _schedule_from_meta(meta, meta_path)
    state = _int_field(meta, "state", meta_path)
    seed = _int_field(meta, "seed", meta_path)
    if not path.exists():
        raise SchemaError(path, "missing logits file")
    with open(path, encoding="utf-8") as fh:  # '\r\n' and '\r' read as '\n'
        first, body = fh.readline(), fh.read()
    if not first:
        raise SchemaError(path, "empty logits file")
    header = next(csv.reader([first]))
    expect = schedule.classes_through(state) if 1 <= state <= schedule.num_states else -1
    if expect < 0 or header != ["id", "label"] + [f"c{j}" for j in range(expect)]:
        raise SchemaError(
            path,
            f"header {header[:4]}...({len(header) - 2} score columns) does not "
            f"match the sidecar protocol ({expect} classes through state {state})")
    # The last row may lack its newline.
    num_rows = body.count("\n") + (not body.endswith("\n") and bool(body))
    if num_rows == 0:
        raise SchemaError(path, "no data rows")
    labels, matrix = _bulk_logits(body, num_rows, expect) or _cell_logits(path, body, expect)
    try:
        return StateLogits(state=state, matrix=matrix, labels=labels,
                           schedule=schedule, dataset=str(meta["dataset"]),
                           backbone=str(meta["backbone"]), seed=seed)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _bulk_logits(body: str, num_rows: int, expect: int):
    """Labels and scores of a logits body parsed in one C call, or None
    unless that gives ``num_rows`` rows of ``expect`` finite scores and an
    in-range integral label each. ``comments=None``, or a cell like
    ``1.5#x`` would be cut at the '#'."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            cells = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    # loadtxt skips blank lines, so a short count means one was there.
    if cells.shape != (num_rows, expect + 2):
        return None
    labels, scores = cells[:, 1], cells[:, 2:]
    if not (np.all(np.isfinite(scores))
            and np.all((labels >= 0) & (labels < expect) & (labels == np.floor(labels)))):
        return None
    return labels.astype(np.int64), np.ascontiguousarray(scores)


def _cell_logits(path: Path, body: str, expect: int):
    """Labels and scores of a logits body cell by cell, so that an error
    names the first bad row and column."""
    rows = list(csv.reader(io.StringIO(body)))
    labels = np.empty(len(rows), dtype=np.int64)
    matrix = np.empty((len(rows), expect))
    for i, row in enumerate(rows):
        if len(row) != expect + 2:
            raise SchemaError(path, f"row {i + 2}: expected {expect + 2} fields, "
                                    f"got {len(row)}")
        labels[i] = _parse_int(row[1], path, f"row {i + 2} label", 0, expect - 1)
        for j in range(expect):
            matrix[i, j] = _parse_float(row[2 + j], path, f"row {i + 2} column c{j}")
    return labels, matrix


# ---------------------------------------------------------------------------
# calibration tables


def write_table(path, table: CalibrationTable, fingerprint: str | None = None):
    entries = [{"s": s, "k": k, "alpha": float(a), "beta": float(b)}
               for s in range(2, table.num_states + 1)
               for k, (a, b) in enumerate(zip(*table.pairs_for_state(s)), start=1)]
    _write_json(Path(path), _with_fingerprint({
        "schema_version": SCHEMA_VERSION,
        "num_states": table.num_states,
        "entries": entries,
    }, fingerprint))


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
    _atomic_write(path, chain(
        [",".join(f"x{j}" for j in range(dim)) + ",label,split\n"],
        (f"{_row(feats.tolist())},{label},{tag}\n"
         for feats, label, tag in zip(dataset.features, dataset.labels.tolist(),
                                      dataset.split.tolist()))))
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
    seed = _int_field(meta, "seed", _sidecar(path))
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
        labels[i] = _parse_int(row[dim], path, f"row {i + 2} label", 0,
                               schedule.num_classes - 1)
        if row[dim + 1] not in SPLITS:
            raise SchemaError(path, f"row {i + 2}: unknown split tag {row[dim + 1]!r}")
        split[i] = row[dim + 1]
    try:
        return IncrementalDataset(features=features, labels=labels, split=split,
                                  schedule=schedule, name=str(meta["name"]),
                                  seed=seed)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# metrics


def write_metrics(path, metrics: RunMetrics):
    """One `(state, group, accuracy)` row per lower-triangle cell of the
    group-accuracy matrix plus a summary row.

    The summary row uses group 0 and carries the average incremental
    accuracy over states 2..S.
    """
    _atomic_write(Path(path), chain(
        ["state,group,accuracy\n"],
        (f"{s},{k},{_fmt(row[k - 1])}\n"
         for s, row in enumerate(metrics.group_accuracy, start=1) for k in range(1, s + 1)),
        [f"0,0,{_fmt(metrics.average_incremental_accuracy)}\n"]))


def read_metrics_rows(path) -> tuple[np.ndarray, float]:
    """The (S, S) group-accuracy matrix and the average that ``write_metrics``
    wrote: rows (s, k) for 1 <= k <= s <= S in order, then one `0,0` summary
    row. An empty group's `nan` reads back as nan."""
    path = Path(path)
    header, rows = _read_csv_rows(path, "metrics")
    if header != ["state", "group", "accuracy"]:
        raise SchemaError(path, f"unexpected metrics header {header}")
    cells, s, k = [], 1, 1  # (s, k) is the cell the next row must hold
    for i, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise SchemaError(path, f"row {i}: expected 3 fields")
        where = (_parse_float(row[0], path, f"row {i} state"),
                 _parse_float(row[1], path, f"row {i} group"))
        value = float("nan") if row[2] == "nan" else _parse_float(row[2], path, f"row {i}")
        if where == (s, k):
            cells.append(value)
            s, k = (s, k + 1) if k < s else (s + 1, 1)
        elif where == (0, 0) and k == 1 and s > 1:
            if i <= len(rows):
                raise SchemaError(path, f"row {i + 1}: a row after the 0,0 summary row")
            matrix = np.full((s - 1, s - 1), np.nan)
            matrix[np.tril_indices(s - 1)] = cells
            return matrix, value
        else:
            raise SchemaError(path, f"row {i}: expected {_cell(s, k)}, got {row[0]},{row[1]}")
    raise SchemaError(path, f"row {len(rows) + 2}: expected {_cell(s, k)}, got end of file")


def _cell(s: int, k: int) -> str:
    return f"state {s} group {k}" + (" or the 0,0 summary row" if k == 1 and s > 1 else "")
