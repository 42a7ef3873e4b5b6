"""Every artifact format: bit-exact CSV/JSON for logits, tables, datasets,
metrics and the run's summary CSVs. JSON values are read by the one typed
reader, ``config.read_fields``.

Floats are rendered as the exact bytes of Python's shortest round-trip
repr, so that write → read returns the same IEEE-754 bits; logits and
dataset rows take them from ``floats.rows``, which falls back to ``repr``
for the cells it does not certify. All writers stream their rows
into a temp file and rename it into place, so a crashed run never leaves a
half-written artifact. UTF-8, LF line endings, '.' decimal point — no
locale dependence. Table JSONs and logits sidecars may carry a
``fingerprint``: a digest of the spec sections that produced the artifact
(see ``pipeline.spec_fingerprint``), which decides whether it may be reused.
Each reader checks its file against what the caller's spec makes: a
logits sidecar against the dataset, seed, state and schedule, a table
against the state count, and a metrics or ``per_state.csv`` file against
the rows that run-target writes, one by one.
A dataset is written block by block from its per-state draw. It is output
only: every command draws its datasets again from the spec, so no reader
of the dataset format exists.
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
from itertools import chain, product, zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from .config import SCHEMA_VERSION, _coerce, load_json, read_fields
from .errors import DataFileError, MetadataError, SchemaError

if TYPE_CHECKING:  # annotations only; each reader imports the type it builds
    from .calibration import CalibrationTable
    from .logits import StateLogits
    from .synth import StateDraw
    from .transfer import RunMetrics

# The fields of each artifact's metadata; all but the fingerprint are required.
_LOGITS_META = {"schema_version": "int", "fingerprint": "str", "num_states": "int",
                "class_to_state": "list[int]", "seed": "int", "state": "int",
                "dataset": "str", "backbone": "str"}
_TABLE = {"schema_version": "int", "fingerprint": "str", "num_states": "int",
          "entries": "list[dict]"}
_TABLE_ENTRY = {"s": "int", "k": "int", "alpha": "float", "beta": "float"}


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
    # Imported here: loading it and building its tables take ~5 ms, which
    # the CLI's start-up and plot never need.
    from .floats import rows

    path = Path(path)
    cols = logits.matrix.shape[1]
    _atomic_write(path, chain(
        ["id,label," + ",".join(f"c{j}" for j in range(cols)) + "\n"],
        (f"{i},{label},{scores}\n"
         for i, (label, scores) in enumerate(zip(logits.labels.tolist(), rows(logits.matrix))))))
    _write_meta(_meta_path(path), fingerprint, state=logits.state,
                num_states=logits.schedule.num_states,
                class_to_state=list(logits.schedule.class_to_state),
                dataset=logits.dataset, backbone=logits.backbone, seed=logits.seed)


def read_logits(path, expect: tuple) -> StateLogits:
    """The logits at ``path``, which must be the ``(dataset, seed, state,
    schedule, rows)`` of ``expect``, as the caller's spec makes them. A
    sidecar field that differs from the spec's is a MetadataError naming
    the first such field, and a file with another number of data rows a
    SchemaError."""
    # Imported here, as numpy is: plot and the CLI's start-up read no logits.
    from .logits import StateLogits

    path = Path(path)
    dataset, seed, state, schedule, num_rows = expect
    meta_path = _meta_path(path)
    meta = _read_meta(meta_path, "logits", _LOGITS_META)
    for key, value in {"dataset": dataset, "seed": seed, "state": state,
                       "num_states": schedule.num_states,
                       "class_to_state": schedule.class_to_state}.items():
        if meta[key] != value:
            raise MetadataError(meta_path, f"sidecar {key} " + (
                "differs from the spec's" if key == "class_to_state"
                else f"{meta[key]!r} is not the spec's {value!r}"))
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
    if len(parsed[0]) != num_rows:
        raise SchemaError(path, f"{len(parsed[0])} data rows, but the spec makes {num_rows}")
    try:
        return StateLogits(state=state, matrix=parsed[1], labels=parsed[0], schedule=schedule,
                           dataset=dataset, backbone=meta["backbone"], seed=seed)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _bulk_logits(lines, expect: int):
    """Labels and scores of the logits rows ``lines`` (an open file after
    its header) parsed in one C call, or None unless that gives one row of
    ``expect`` finite scores and an in-range integral label per line.
    ``comments=None``, or a cell like ``1.5#x`` would be cut at the '#'.
    The lines are streamed into the parser, so the text is never held
    whole."""
    import numpy as np

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


def read_table(path, num_states: int) -> CalibrationTable:
    """The table at ``path``; ``num_states`` is the state count of the
    caller's spec, and a table of another is a MetadataError."""
    # Imported here: it loads numpy, which plot and the CLI's start-up never need.
    from .calibration import CalibrationTable

    path = Path(path)
    meta = _read_meta(path, "calibration table", _TABLE)
    error = partial(MetadataError, path)
    if meta["num_states"] != num_states:
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
    block, each as it is drawn; a block is dropped before the next is
    drawn."""
    # Imported here: loading it and building its tables take ~5 ms, which
    # the CLI's start-up and plot never need.
    from .floats import rows

    path = Path(path)

    def lines():
        block = next(draw.blocks, None)
        if block is not None:
            yield ",".join(f"x{j}" for j in range(block.features.shape[1])) + ",label,split\n"
        while block is not None:
            yield from (f"{feats},{label},{tag}\n" for feats, label, tag in
                        zip(rows(block.features), block.labels.tolist(), block.split.tolist()))
            del block
            block = next(draw.blocks, None)

    _atomic_write(path, lines())
    _write_meta(_meta_path(path), None, num_states=draw.schedule.num_states,
                class_to_state=list(draw.schedule.class_to_state),
                name=draw.name, seed=draw.seed)


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


def _keyed_values(path: Path, what: str, header: list[str], keys, parse) -> list:
    """The last cell of each data row of CSV ``path``, read by ``parse``.
    The other cells of the rows must hold exactly ``keys``, in order, as
    run-target writes them; any other row is a SchemaError naming the row,
    the key expected and what the row held, or "end of file"."""
    rows = _read_csv(path, what, dict.fromkeys(header, ("", str)))
    values = []
    for i, (key, row) in enumerate(zip_longest(keys, rows), start=2):
        key = ",".join(map(str, key)) if key else "end of file"
        held = ",".join(row[:-1]) if row else "end of file"
        if held != key:
            raise SchemaError(path, f"row {i}: expected {key}, got {held}")
        values.append(_parse_cell(path, i, header[-1], parse, row[-1]))
    return values


def read_metrics_rows(path, num_states: int) -> list[list[float]]:
    """The (S, S) group-accuracy matrix of a metrics file of ``num_states``
    states, as S lists of S floats with nan above the diagonal: rows (s, k)
    for 1 <= k <= s <= S in order, then the `0,0` summary row, which is
    read but not returned. An empty group's `nan` reads back as nan."""
    states = range(1, num_states + 1)
    values = iter(_keyed_values(
        Path(path), "metrics", ["state", "group", "accuracy"],
        [*((s, k) for s in states for k in range(1, s + 1)), (0, 0)],
        lambda text: math.nan if text == "nan" else _number(text)))
    return [[next(values) if k <= s else math.nan for k in states] for s in states]


def read_per_state(path, targets, methods, num_states: int) -> dict[tuple[str, str], list[float]]:
    """The accuracy at states 1..``num_states`` of each (target, method) of
    ``targets`` and ``methods``, from the rows of a ``per_state.csv``:
    ``target,method,state`` for each target, method and state, in that
    order, as run-target writes them."""
    series = list(product(targets, methods))
    values = _keyed_values(Path(path), "input", ["target", "method", "state", "accuracy"],
                           [(*key, s) for key in series for s in range(1, num_states + 1)],
                           _number)
    return {key: values[n * num_states:(n + 1) * num_states] for n, key in enumerate(series)}
