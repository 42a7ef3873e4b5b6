"""Every artifact format: bit-exact CSV/JSON for logits, tables, datasets,
metrics and the run's summary CSVs, and the one typed reader of JSON values.

Floats are rendered with Python's shortest round-trip repr so that
write → read returns the same IEEE-754 bits. All writers stream their rows
into a temp file and rename it into place, so a crashed run never leaves a
half-written artifact. UTF-8, LF line endings, '.' decimal point — no
locale dependence. Table JSONs and logits sidecars may carry a
``fingerprint``: a digest of the spec sections that produced the artifact
(see ``pipeline.spec_fingerprint``), which decides whether it may be reused.
A dataset is written block by block from its per-state draw, and
``read_dataset`` reads it back whole.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain, product
from pathlib import Path

import numpy as np

from .calibration import CalibrationTable
from .errors import DataFileError, MetadataError, SchemaError, SpecError
from .logits import StateLogits
from .metrics import RunMetrics
from .schedule import StateSchedule
from .synth import SPLITS, IncrementalDataset, StateDraw

SCHEMA_VERSION = 1

_EXACT_TYPES = {"int": int, "bool": bool, "str": str, "dict": dict}
_FLOAT_MAX = 1.7976931348623157e308

# The fields of each artifact's metadata; all but the fingerprint are required.
_SIDECAR = {"schema_version": "int", "num_states": "int", "class_to_state": "list[int]",
            "seed": "int"}
_LOGITS_META = {**_SIDECAR, "fingerprint": "str", "state": "int", "dataset": "str",
                "backbone": "str"}
_DATASET_META = {**_SIDECAR, "name": "str"}
_TABLE = {"schema_version": "int", "fingerprint": "str", "num_states": "int",
          "entries": "list[dict]"}
_TABLE_ENTRY = {"s": "int", "k": "int", "alpha": "float", "beta": "float"}


# ---------------------------------------------------------------------------
# typed JSON values


def _coerce(kind: str, value, where: str, error):
    if kind.startswith("list[") and type(value) is list:
        return tuple(_coerce(kind[5:-1], item, f"{where}[{i}]", error)
                     for i, item in enumerate(value))
    if kind == "int" and type(value) is float and value.is_integer():
        return int(value)
    # NaN fails both comparisons, and so does an int past the float range.
    if kind == "float" and type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    if type(value) is _EXACT_TYPES.get(kind):
        return value
    raise error(f"{where} must be {kind}, got {value!r}")


def read_fields(section: dict, where: str, types: dict[str, str], error=SpecError,
                required=()) -> dict:
    """``section`` with each value read as its type in ``types``: an int is
    an integer or an integral number, a float any finite number (so ``1``
    and ``1.0`` are one value), a bool, str or dict only itself, and a
    ``list[...]`` an array of such items, read as a tuple. Keys outside
    ``types`` and missing ``required`` keys raise ``error(message)`` too."""
    unknown = sorted(section.keys() - types)
    if unknown:
        raise error(f"unknown keys {unknown} in {where}; allowed: {sorted(types)}")
    missing = sorted(set(required) - section.keys())
    if missing:
        raise error(f"malformed {where}: missing keys {missing}")
    return {key: _coerce(types[key], value, f"{where}.{key}", error)
            for key, value in section.items()}


def load_json(path, what: str, error) -> dict:
    """The JSON object in file ``path``; a missing, unreadable or invalid
    file, or another root, raises ``error(message)``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise error(f"missing {what} file") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise error(f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {what} file: {exc}") from exc
    if type(payload) is not dict:
        raise error(f"{what} root must be a JSON object")
    return payload


def _meta_path(path: Path) -> Path:
    # A JSON artifact holds its own metadata; any other has a sidecar.
    return path if path.suffix == ".json" else Path(f"{path}.meta.json")


def _read_meta(path: Path, what: str, types: dict[str, str]) -> dict:
    error = partial(MetadataError, path)
    meta = read_fields(load_json(path, f"{what} metadata", error), "metadata", types, error,
                       required=types.keys() - {"fingerprint"})
    if meta["schema_version"] != SCHEMA_VERSION:
        raise error(f"schema_version {meta['schema_version']} is not {SCHEMA_VERSION}")
    return meta


def _write_meta(path: Path, fingerprint: str | None, **fields):
    """Write metadata JSON ``path``: ``fields``, schema version, fingerprint."""
    fields["schema_version"] = SCHEMA_VERSION
    if fingerprint is not None:
        fields["fingerprint"] = fingerprint
    _atomic_write(path, json.dumps(fields, indent=2, sort_keys=True) + "\n")


def read_fingerprint(path) -> str:
    """The spec fingerprint stored with the artifact at ``path`` (in a table
    JSON itself, in a logits file's sidecar); an artifact without one
    cannot be told apart from a stale one, so it is a ``MetadataError``."""
    meta_path = _meta_path(Path(path))
    error = partial(MetadataError, meta_path)
    meta = load_json(meta_path, "artifact metadata", error)
    if "fingerprint" not in meta:
        raise error("artifact has no spec fingerprint, so it may be stale; remove it to rebuild")
    return _coerce("str", meta["fingerprint"], "metadata.fingerprint", error)


def stale_reason(paths, fingerprint: str) -> str | None:
    """Why the artifacts at ``paths`` may not be reused by a spec with
    ``fingerprint``: "missing" (an artifact or its sidecar), "fingerprint"
    (one made from another spec; only fingerprints are read), or None."""
    paths = [Path(p) for p in paths]
    if not all(p.exists() and _meta_path(p).exists() for p in paths):
        return "missing"
    stored = [read_fingerprint(p) for p in paths]
    return None if all(fp == fingerprint for fp in stored) else "fingerprint"


def _schedule_from_meta(meta: dict, path: Path) -> StateSchedule:
    try:
        schedule = StateSchedule.from_mapping(dict(enumerate(meta["class_to_state"])))
    except ValueError as exc:
        raise MetadataError(path, f"class_to_state: {exc}") from exc
    if schedule.num_states != meta["num_states"]:
        raise MetadataError(path, f"num_states {meta['num_states']} disagrees with the "
                                  f"class_to_state map ({schedule.num_states} states)")
    return schedule


# ---------------------------------------------------------------------------
# CSV rows


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _integer(low: int, high: int):
    def parse(text: str) -> int:
        value = _number(text)
        if not value.is_integer():
            raise ValueError(f"{text!r} is not an integer")
        if not low <= value <= high:
            raise ValueError(f"{text!r} outside the schedule's {low}..{high}")
        return int(value)
    return parse


def _one_of(options, kind: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"unknown {kind} {text!r}")
        return text
    return parse


def _numeral(text: str) -> str:
    # A finite number, kept as written so that a message can quote it.
    _number(text)
    return text


@contextmanager
def _opened(path: Path, what: str, newline: str | None = None):
    """``path`` open for reading. A missing file is a SchemaError; one that
    cannot be read, decoded or split into CSV fields is a DataFileError."""
    if not path.exists():
        raise SchemaError(path, f"missing {what} file")
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataFileError(path, f"unreadable {what} file: {exc}") from exc


def _parse_cell(path: Path, row: int, label: str, parse, text: str):
    try:
        return parse(text)
    except ValueError as exc:
        where = f"row {row} {label}" if label else f"row {row}"
        raise SchemaError(path, f"{where}: {exc}") from None


def _read_csv(path: Path, what: str, columns) -> list[list]:
    """The data rows of CSV file ``path``, each cell parsed by its column.
    ``columns`` maps each header name, in order, to the column's label in
    messages and its parse function, which raises ValueError for a cell it
    refuses; it may also be a function of the header that returns that map
    or raises ValueError. Each refusal is a SchemaError naming the row."""
    with _opened(path, what, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(path, f"empty {what} file")
        try:
            columns = columns(header) if callable(columns) else columns
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
        if header != list(columns):
            raise SchemaError(path, f"unexpected {what} header {header}")
        parsers = list(columns.values())
        rows = []
        for i, cells in enumerate(reader, start=2):
            if len(cells) != len(parsers):
                raise SchemaError(path, f"row {i}: expected {len(parsers)} fields, "
                                        f"got {len(cells)}")
            rows.append([_parse_cell(path, i, label, parse, text)
                         for (label, parse), text in zip(parsers, cells)])
    return rows


def _cell(value) -> str:
    # repr(float(...)) gives the shortest string that round-trips; plain
    # repr of a numpy scalar would render as 'np.float64(...)' on numpy 2.
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_rows(path, header: list[str], rows):
    """Write CSV ``path``: the ``header`` names, then one line per row of
    ``rows``, a float cell in its shortest round-trip repr and any other
    cell as ``str``."""
    _atomic_write(Path(path), chain([",".join(header) + "\n"],
                                    (",".join(map(_cell, row)) + "\n" for row in rows)))


def _row(values: list) -> str:
    # repr of a Python float is the shortest string that round-trips; the
    # caller passes ``ndarray.tolist()`` so no numpy scalar is boxed per cell.
    return ",".join(map(repr, values))


def _atomic_write(path: Path, chunks):
    """Write ``chunks``, one str or an iterable of str streamed in order, to
    a temp file next to ``path`` and rename it over ``path``. If anything
    fails, the temp file is removed and ``path`` is left as it was; a
    directory that cannot be made, or one at ``path``, is a DataFileError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:
        raise DataFileError(path, f"cannot write: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, IsADirectoryError):
            raise DataFileError(path, f"cannot write: {exc}") from exc
        raise


write_svg = _atomic_write  # one SVG string, written like every other artifact


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
    _write_meta(_meta_path(path), fingerprint, state=logits.state,
                num_states=logits.schedule.num_states,
                class_to_state=list(logits.schedule.class_to_state),
                dataset=logits.dataset, backbone=logits.backbone, seed=logits.seed)


def read_logits(path, expect: tuple | None = None) -> StateLogits:
    """The logits at ``path``. ``expect``, when given, is the ``(dataset,
    seed, state, schedule, rows)`` the caller's spec makes; a sidecar that
    describes anything else is a MetadataError naming it, and a file with
    another number of data rows a SchemaError."""
    path = Path(path)
    meta_path = _meta_path(path)
    meta = _read_meta(meta_path, "logits", _LOGITS_META)
    schedule = _schedule_from_meta(meta, meta_path)
    state = meta["state"]
    if expect is not None and (meta["dataset"], meta["seed"], state, schedule) != expect[:4]:
        raise MetadataError(meta_path, (
            f"sidecar describes dataset {meta['dataset']!r} seed {meta['seed']} state "
            f"{state}, but the spec makes {expect[0]!r} seed {expect[1]} state "
            f"{expect[2]} on its own schedule"))
    if not 1 <= state <= schedule.num_states:
        raise MetadataError(meta_path, f"state {state} outside 1..{schedule.num_states}")
    cols = schedule.classes_through(state)
    names = ["id", "label"] + [f"c{j}" for j in range(cols)]
    with _opened(path, "logits") as fh:  # '\r\n' and '\r' read as '\n'
        parsed = _bulk_logits(fh, cols) if fh.readline() == ",".join(names) + "\n" else None
    if parsed is None:  # read cell by cell, so that an error names its row and column
        def columns(header):
            if header != names:
                raise ValueError(f"header {header[:4]}...({len(header) - 2} score columns) "
                                 f"does not match the sidecar protocol ({cols} classes "
                                 f"through state {state})")
            return dict(zip(names, [("", str), ("label", _integer(0, cols - 1)),
                                    *((f"column c{j}", _number) for j in range(cols))]))
        rows = _read_csv(path, "logits", columns)
        if not rows:
            raise SchemaError(path, "no data rows")
        parsed = [row[1] for row in rows], [row[2:] for row in rows]
    if expect is not None and len(parsed[0]) != expect[4]:
        raise SchemaError(path, f"{len(parsed[0])} data rows, but the spec makes {expect[4]}")
    try:
        return StateLogits(state=state, matrix=parsed[1], labels=parsed[0],
                           schedule=schedule, dataset=meta["dataset"],
                           backbone=meta["backbone"], seed=meta["seed"])
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _bulk_logits(lines, expect: int):
    """Labels and scores of the logits rows ``lines`` (an open file after
    its header) parsed in one C call, or None unless that gives one row of
    ``expect`` finite scores and an in-range integral label per line.
    ``comments=None``, or a cell like ``1.5#x`` would be cut at the '#'.
    The lines are streamed into the parser, so the text is never held
    whole."""
    num_rows = 0

    def counted():
        nonlocal num_rows
        for line in lines:  # the last line may lack its newline
            num_rows += 1
            yield line

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            cells = np.loadtxt(counted(), delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError:  # not UTF-8: a data-file error, not a cell to locate
        raise
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


# ---------------------------------------------------------------------------
# calibration tables


def write_table(path, table: CalibrationTable, fingerprint: str | None = None):
    entries = [{"s": s, "k": k, "alpha": float(a), "beta": float(b)}
               for s in range(2, table.num_states + 1)
               for k, (a, b) in enumerate(zip(*table.pairs_for_state(s)), start=1)]
    _write_meta(Path(path), fingerprint, num_states=table.num_states, entries=entries)


def read_table(path, num_states: int | None = None) -> CalibrationTable:
    """The table at ``path``; ``num_states``, when given, is the state count
    of the caller's spec, and a table of another is a MetadataError."""
    path = Path(path)
    meta = _read_meta(path, "calibration table", _TABLE)
    error = partial(MetadataError, path)
    if num_states is not None and meta["num_states"] != num_states:
        raise error(f"table covers {meta['num_states']} states but the spec's schedule "
                    f"has {num_states}")
    entries = [read_fields(entry, f"table entry {n}", _TABLE_ENTRY, error, required=_TABLE_ENTRY)
               for n, entry in enumerate(meta["entries"])]
    try:
        return CalibrationTable.from_pairs(meta["num_states"], [
            ((e["s"], e["k"]), (e["alpha"], e["beta"])) for e in entries])
    except ValueError as exc:
        raise MetadataError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# datasets


def write_dataset(path, draw: StateDraw):
    """CSV `x<j>...,label,split` plus a JSON sidecar, written block by
    block, each as it is drawn."""
    path = Path(path)

    def lines():
        for i, block in enumerate(draw.blocks):
            if i == 0:
                yield ",".join(f"x{j}" for j in range(block.features.shape[1])) + ",label,split\n"
            yield from (f"{_row(feats.tolist())},{label},{tag}\n"
                        for feats, label, tag in zip(block.features, block.labels.tolist(),
                                                     block.split.tolist()))

    _atomic_write(path, lines())
    _write_meta(_meta_path(path), None, num_states=draw.schedule.num_states,
                class_to_state=list(draw.schedule.class_to_state),
                name=draw.name, seed=draw.seed)


def read_dataset(path) -> IncrementalDataset:
    path = Path(path)
    meta_path = _meta_path(path)
    meta = _read_meta(meta_path, "dataset", _DATASET_META)
    schedule = _schedule_from_meta(meta, meta_path)

    def columns(header):
        features = {f"x{j}": (f"feature x{j}", _number) for j in range(len(header) - 2)}
        if not features or header != [*features, "label", "split"]:
            raise ValueError("dataset header must be x0..x<d-1>,label,split")
        return {**features, "label": ("label", _integer(0, schedule.num_classes - 1)),
                "split": ("", _one_of(SPLITS, "split tag"))}

    rows = _read_csv(path, "dataset", columns)
    try:
        return IncrementalDataset(features=[row[:-2] for row in rows],
                                  labels=[row[-2] for row in rows],
                                  split=[row[-1] for row in rows], schedule=schedule,
                                  name=meta["name"], seed=meta["seed"])
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
    write_rows(path, ["state", "group", "accuracy"], chain(
        ((s, k, acc) for s, row in enumerate(metrics.group_accuracy.tolist(), start=1)
         for k, acc in enumerate(row[:s], start=1)),
        [(0, 0, metrics.average_incremental_accuracy)]))


# An empty group's accuracy is nan.
_METRICS_COLUMNS = {"state": ("state", _numeral), "group": ("group", _numeral),
                    "accuracy": ("", lambda text: math.nan if text == "nan" else _number(text))}


def read_metrics_rows(path) -> tuple[np.ndarray, float]:
    """The (S, S) group-accuracy matrix and the average that ``write_metrics``
    wrote: rows (s, k) for 1 <= k <= s <= S in order, then one `0,0` summary
    row. An empty group's `nan` reads back as nan."""
    path = Path(path)
    rows = _read_csv(path, "metrics", _METRICS_COLUMNS)
    cells, s, k = [], 1, 1  # (s, k) is the cell the next row must hold
    for i, (state, group, value) in enumerate(rows, start=2):
        where = (float(state), float(group))
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
            raise SchemaError(path, f"row {i}: expected {_expected(s, k)}, got {state},{group}")
    raise SchemaError(path, f"row {len(rows) + 2}: expected {_expected(s, k)}, got end of file")


def _expected(s: int, k: int) -> str:
    return f"state {s} group {k}" + (" or the 0,0 summary row" if k == 1 and s > 1 else "")


def read_per_state(path, methods, num_states) -> dict[tuple[str, str], list[tuple[int, float]]]:
    """The `(state, accuracy)` points of a ``per_state.csv`` by (target,
    method), in state order. A method outside ``methods``, a state that is
    not an integer in 1..``num_states(target)``, or a second row for one
    (target, method, state) is a SchemaError naming the row; a target
    without a row for each method and each of those states is one naming
    the states a method lacks."""
    path = Path(path)
    rows = _read_csv(path, "input", {
        "target": ("", str), "method": ("", _one_of(methods, "method")),
        "state": ("", str), "accuracy": ("accuracy", _number)})
    points: dict[tuple[str, str], dict[int, float]] = {}
    for i, (target, method, state, accuracy) in enumerate(rows, start=2):
        s = _parse_cell(path, i, "state", _integer(1, num_states(target)), state)
        series = points.setdefault((target, method), {})
        if s in series:
            raise SchemaError(path, f"row {i}: a second row for {target} {method} state {s}")
        series[s] = accuracy
    for target, method in product(dict.fromkeys(target for target, _ in points), methods):
        missing = sorted(set(range(1, num_states(target) + 1))
                         - points.get((target, method), {}).keys())
        if missing:
            raise SchemaError(path, f"{target} {method} has no rows for states {missing}")
    return {key: sorted(series.items()) for key, series in points.items()}
