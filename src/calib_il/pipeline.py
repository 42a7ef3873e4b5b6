"""End-to-end experiment flows behind the CLI subcommands.

One JSON run-spec file describes an experiment: synthetic data family,
incremental schedule, backbone, calibration settings and sweep grid. Every
flow regenerates what it needs from the spec's seeds, so each subcommand is
deterministic in isolation and reruns are byte-identical.

Reference datasets keep a validation memory and produce one fitted
calibration table each; targets are memoryless and receive the averaged
table. Dataset seeds are derived as ``seed*1000 + i`` for reference i and
``seed*1000 + 500 + j`` for target j, which keeps them disjoint for any
R, T <= 500.

Every table JSON and logits sidecar records ``spec_fingerprint`` of the
spec that made it. ``run-target`` and ``sweep`` reuse the reference tables
and the target logits under ``--out`` only when every file carries the
spec's fingerprint; otherwise they rebuild and overwrite them. Each
decision is logged as one ``event=cache`` line.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbones import BackboneConfig, run_incremental_stack
from .calibration import CalibConfig, CalibrationTable, fit_tables
from .errors import MetadataError, SchemaError, SpecError
from .logits import StateLogits
from .metrics import RunMetrics
from .plots import Series, render_heat_grid, render_line_chart, write_svg
from .schedule import StateSchedule
from .storage import (SCHEMA_VERSION, _atomic_write, _fmt, _parse_float, _parse_int,
                      _read_csv_rows, _sidecar, read_fingerprint, read_logits, read_metrics_rows,
                      read_table, write_dataset, write_logits, write_metrics, write_table)
from .synth import SynthSpec, StateSplit, gen_synthetic_dataset, halve_train_split, split_states
from .transfer import apply_transfer, average_tables, oracle_select

log = logging.getLogger("calib_il")

METHODS = ("raw", "bic", "adbic", "oracle")

# Types of the keys no dataclass declares; the data, backbone and
# calibration keys take theirs from SynthSpec, BackboneConfig and CalibConfig.
_TOP_TYPES = {"seed": "int", "name": "str", "data": "dict", "schedule": "dict",
              "backbone": "dict", "calibration": "dict", "sweep": "dict"}
_COUNT_TYPES = {"num_references": "int", "num_targets": "int"}
_SCHEDULE_TYPES = {"num_states": "int", "classes_per_state": "list[int]"}
_SWEEP_TYPES = {"r_values": "list[int]", "num_samplings": "int", "halved": "bool"}
_EXACT_TYPES = {"int": int, "bool": bool, "str": str, "dict": dict}
_FLOAT_MAX = 1.7976931348623157e308


def kv(**fields) -> str:
    """Render one key=value log record; floats use round-trip formatting."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={_fmt(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class RunSpec:
    """A fully validated experiment description."""

    seed: int
    name: str
    synth: SynthSpec
    num_references: int
    num_targets: int
    schedule: StateSchedule
    backbone: BackboneConfig
    calibration: CalibConfig
    sweep_r_values: tuple[int, ...]
    sweep_samplings: int
    sweep_halved: bool


def _coerce(kind: str, value, where: str):
    """The JSON ``value`` of spec key ``where`` as type ``kind``: an int is
    an integer or an integral number, a float any finite number (so ``1``
    and ``1.0`` are one value), a bool, str, list or dict only itself."""
    if kind == "list[int]" and type(value) is list:
        return tuple(_coerce("int", item, where) for item in value)
    if kind == "int" and type(value) is float and value.is_integer():
        return int(value)
    # NaN fails both comparisons, and so does an int past the float range.
    if kind == "float" and type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    if type(value) is _EXACT_TYPES.get(kind):
        return value
    raise SpecError(f"{where} must be {kind}, got {value!r}")


def _read(section: dict, where: str, types: dict[str, str]) -> dict:
    """``section`` with each value coerced by its type in ``types``; keys
    missing from ``types`` are refused."""
    unknown = sorted(section.keys() - types)
    if unknown:
        raise SpecError(f"unknown keys {unknown} in {where}; allowed: {sorted(types)}")
    return {key: _coerce(types[key], value, f"{where}.{key}") for key, value in section.items()}


def _field_types(cls, *skip: str) -> dict[str, str]:
    # The modules postpone annotations, so each type is its source spelling.
    return {f.name: f.type for f in dataclasses.fields(cls) if f.name not in skip}


def _build(cls, where: str, values: dict):
    missing = [f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING and f.name not in values]
    if missing:
        raise SpecError(f"{where} section must state {', '.join(missing)}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise SpecError(f"invalid {where} section: {exc}") from exc


def load_run_spec(path, seed_override: int | None = None) -> RunSpec:
    """Parse and validate a JSON run-spec file."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"run-spec file {path} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: run-spec root must be a JSON object")
    return parse_run_spec(raw, seed_override=seed_override)


def parse_run_spec(raw: dict, seed_override: int | None = None) -> RunSpec:
    top = _read(raw, "run-spec", _TOP_TYPES)
    if "seed" not in top:
        raise SpecError("run-spec must state a seed")
    seed = top["seed"] if seed_override is None else seed_override
    if seed < 0:
        raise SpecError("seed must be >= 0")

    data = _read(top.get("data", {}), "data", {**_field_types(SynthSpec, "seed"), **_COUNT_TYPES})
    num_references = data.pop("num_references", 10)
    num_targets = data.pop("num_targets", 10)
    if not 1 <= num_references <= 500 or not 1 <= num_targets <= 500:
        raise SpecError("num_references and num_targets must be in [1, 500]")
    synth = _build(SynthSpec, "data", data)

    sched = _read(top.get("schedule", {}), "schedule", _SCHEDULE_TYPES)
    try:
        if "classes_per_state" in sched:
            schedule = StateSchedule(sched["classes_per_state"])
            if "num_states" in sched and sched["num_states"] != schedule.num_states:
                raise SpecError("num_states disagrees with classes_per_state")
        elif "num_states" in sched:
            schedule = StateSchedule.equal_split(synth.num_classes, sched["num_states"])
        else:
            raise SpecError("schedule must state num_states or classes_per_state")
    except (ValueError, OverflowError) as exc:
        raise SpecError(f"invalid schedule section: {exc}") from exc
    if schedule.num_classes != synth.num_classes:
        raise SpecError("schedule classes disagree with data num_classes")
    if schedule.num_states < 2:
        raise SpecError("the pipeline needs at least 2 states")

    backbone = _build(BackboneConfig, "backbone", {
        "seed": seed, **_read(top.get("backbone", {}), "backbone", _field_types(BackboneConfig))})
    calibration = _build(CalibConfig, "calibration", _read(
        top.get("calibration", {}), "calibration", _field_types(CalibConfig)))

    sweep = _read(top.get("sweep", {}), "sweep", _SWEEP_TYPES)
    r_values = sweep.get("r_values", tuple(dict.fromkeys(
        r for r in (1, 3, 5, 9, num_references) if r <= num_references)))
    num_samplings = sweep.get("num_samplings", 10)
    if len(set(r_values)) != len(r_values) or any(r < 1 for r in r_values):
        raise SpecError("sweep r_values must be distinct positive integers")
    if any(r > num_references for r in r_values):
        raise SpecError(
            f"sweep r_values {r_values} exceed the {num_references} available references")
    if num_samplings < 1:
        raise SpecError("sweep num_samplings must be >= 1")

    return RunSpec(
        seed=seed,
        name=top.get("name", "experiment"),
        synth=synth,
        num_references=num_references,
        num_targets=num_targets,
        schedule=schedule,
        backbone=backbone,
        calibration=calibration,
        sweep_r_values=r_values,
        sweep_samplings=num_samplings,
        sweep_halved=sweep.get("halved", True),
    )


def spec_fingerprint(spec: RunSpec, calibration: bool = False) -> str:
    """SHA-256 of the canonical JSON of the validated spec sections that
    determine an artifact: schema version, seed, synthetic data, schedule
    and backbone, plus the calibration penalties when ``calibration`` (for
    tables). The name, the sweep grid and the reference and target counts
    change no artifact, so they are left out."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": spec.seed,
        "synth": dataclasses.asdict(spec.synth),
        "schedule": list(spec.schedule.classes_per_state),
        "backbone": dataclasses.asdict(spec.backbone),
    }
    if calibration:
        payload["calibration"] = dataclasses.asdict(spec.calibration)
    # Imported here: its OpenSSL binding adds ~5 ms to every process start,
    # and gen and plot never fingerprint.
    import hashlib

    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reference_seeds(spec: RunSpec) -> list[int]:
    return [spec.seed * 1000 + i for i in range(spec.num_references)]


def target_seeds(spec: RunSpec) -> list[int]:
    return [spec.seed * 1000 + 500 + j for j in range(spec.num_targets)]


def make_split(spec: RunSpec, seed: int, name: str, halve: bool = False) -> StateSplit:
    dataset = gen_synthetic_dataset(dataclasses.replace(spec.synth, seed=seed), name=name)
    if halve:
        dataset = halve_train_split(dataset)
    return split_states(dataset, spec.schedule.num_states,
                        list(spec.schedule.classes_per_state))


@dataclass
class ReferenceRun:
    index: int
    table: CalibrationTable
    val_logits: list
    fits: list


def reference_runs(spec: RunSpec, indices) -> list[ReferenceRun]:
    """Train the references ``indices`` as one stack and fit each one's
    table."""
    names = [f"ref_{i}" for i in indices]
    seeds = [reference_seeds(spec)[i] for i in indices]
    (val_logits,) = run_incremental_stack(
        spec.backbone, (make_split(spec, seed, name) for seed, name in zip(seeds, names)),
        names, seeds, sets=("val",))
    fitted = fit_tables([logits[1:] for logits in val_logits], spec.calibration)
    return [ReferenceRun(i, table, logits, fits)
            for i, logits, (table, fits) in zip(indices, val_logits, fitted)]


def target_logits(spec: RunSpec, indices, halve: bool = False) -> list[list]:
    """Per-state test logits of the targets ``indices``, trained as one stack."""
    names = [f"target_{j}" for j in indices]
    seeds = [target_seeds(spec)[j] for j in indices]
    (test_logits,) = run_incremental_stack(
        spec.backbone, (make_split(spec, seed, name, halve=halve)
                        for seed, name in zip(seeds, names)),
        names, seeds, sets=("test",))
    return test_logits


def _pool_map(fn, args_list, jobs: int):
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(args) for args in args_list]
    # Imported here: the pool machinery costs every --jobs 1 process ~1.6 MiB.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, args_list))


def _call(args):
    fn, *rest = args
    return fn(*rest)


def _in_chunks(fn, spec: RunSpec, count: int, jobs: int, *extra) -> list:
    """``fn(spec, indices, *extra)`` over ``range(count)`` split into
    ``jobs`` contiguous chunks, one stack per worker; results in index
    order."""
    k = min(jobs, count)
    bounds = [count * c // k for c in range(k + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    results = _pool_map(_call, [(fn, spec, chunk, *extra) for chunk in chunks], jobs)
    return [item for chunk in results for item in chunk]


def build_all_references(spec: RunSpec, jobs: int = 1) -> list[ReferenceRun]:
    """All reference runs, in index order regardless of pool scheduling."""
    return _in_chunks(reference_runs, spec, spec.num_references, jobs)


def all_target_logits(spec: RunSpec, jobs: int = 1, halve: bool = False):
    return _in_chunks(target_logits, spec, spec.num_targets, jobs, halve)


def evaluate_target(test_logits, tables: list[CalibrationTable],
                    averaged: CalibrationTable) -> dict[str, RunMetrics]:
    """Raw, single-pair, per-group and oracle metrics for one target;
    ``averaged`` is ``average_tables(tables)``."""
    return {
        "raw": apply_transfer(test_logits, None),
        "bic": apply_transfer(test_logits, averaged.collapse_to_single_pair()),
        "adbic": apply_transfer(test_logits, averaged),
        "oracle": oracle_select(tables, test_logits),
    }


# ---------------------------------------------------------------------------
# subcommand flows


def cmd_gen(spec: RunSpec, out: Path) -> list[Path]:
    """Materialize every reference and target dataset as CSV files."""
    out = Path(out)
    written = []
    for role, prefix, seeds in (("reference", "ref", reference_seeds(spec)),
                                ("target", "target", target_seeds(spec))):
        for index, seed in enumerate(seeds):
            name = f"{prefix}_{index}"
            path = out / "data" / f"{name}.csv"
            write_dataset(path, make_split(spec, seed, name).dataset)
            written.append(path)
            log.info(kv(event="gen", role=role, index=index, seed=seed, path=path))
    return written


def cmd_run_reference(spec: RunSpec, out: Path, jobs: int = 1) -> list[CalibrationTable]:
    """Train and fit every reference, log its fits, and write its logits and
    table; returns the tables in index order. ``run-target`` and ``sweep``
    rebuild stale tables with it too."""
    out = Path(out)
    logits_fp, table_fp = spec_fingerprint(spec), spec_fingerprint(spec, calibration=True)
    runs = build_all_references(spec, jobs=jobs)
    for run in runs:
        name = f"ref_{run.index}"
        for fit in run.fits:
            log.info(kv(event="fit", dataset=name, state=fit.state,
                        initial_loss=fit.initial_loss, final_loss=fit.final_loss,
                        iterations=fit.iterations, grad_norm=fit.grad_norm))
        for logits in run.val_logits:
            write_logits(out / "logits" / f"{name}_state_{logits.state}.csv", logits,
                         logits_fp)
        path = out / "tables" / f"{name}.table.json"
        write_table(path, run.table, table_fp)
        log.info(kv(event="table", dataset=name, path=path))
    return [run.table for run in runs]


def _reusable(artifact: str, files: list[Path], metas: list[Path], fingerprint: str) -> bool:
    """Whether the stored ``files`` of ``artifact`` were made from a spec
    with ``fingerprint``, read from their JSON ``metas``; logs the decision.
    A meta without a fingerprint is a data error (exit 3), and nothing but
    the fingerprints of a mismatched artifact is read."""
    if all(p.exists() for p in files):
        stored = [read_fingerprint(p) for p in metas]
        if all(fp == fingerprint for fp in stored):
            log.info(kv(event="cache", artifact=artifact, action="reuse"))
            return True
        reason = "fingerprint"
    else:
        reason = "missing"
    log.info(kv(event="cache", artifact=artifact, action="rebuild", reason=reason))
    return False


def _load_or_build_tables(spec: RunSpec, out: Path, jobs: int) -> list[CalibrationTable]:
    paths = [out / "tables" / f"ref_{i}.table.json" for i in range(spec.num_references)]
    if not _reusable("tables", paths, paths, spec_fingerprint(spec, calibration=True)):
        return cmd_run_reference(spec, out, jobs)
    tables = [read_table(p) for p in paths]
    for path, table in zip(paths, tables):
        if table.num_states != spec.schedule.num_states:
            raise MetadataError(path, f"table covers {table.num_states} states but the "
                                      f"spec's schedule has {spec.schedule.num_states}")
    return tables


def _read_target_logits(path: Path, spec: RunSpec, j: int, state: int) -> StateLogits:
    """One reused logits file, checked against what the spec would make."""
    logits = read_logits(path)
    want = (f"target_{j}", target_seeds(spec)[j], state, spec.schedule)
    if (logits.dataset, logits.seed, logits.state, logits.schedule) != want:
        raise MetadataError(_sidecar(path), (
            f"sidecar describes dataset {logits.dataset!r} seed {logits.seed} state "
            f"{logits.state}, but the spec makes {want[0]!r} seed {want[1]} state "
            f"{state} on its own schedule"))
    return logits


def _load_or_build_target_logits(spec: RunSpec, out: Path, jobs: int) -> list[list]:
    """Per-state test logits of every target: read from ``out/logits`` when
    they carry the spec's fingerprint, else trained and written there."""
    states = range(1, spec.schedule.num_states + 1)
    paths = [[out / "logits" / f"target_{j}_state_{s}.csv" for s in states]
             for j in range(spec.num_targets)]
    csvs = [p for per_target in paths for p in per_target]
    metas = [_sidecar(p) for p in csvs]
    fingerprint = spec_fingerprint(spec)
    if _reusable("target_logits", csvs + metas, metas, fingerprint):
        return [[_read_target_logits(p, spec, j, s) for s, p in zip(states, per_target)]
                for j, per_target in enumerate(paths)]
    all_logits = all_target_logits(spec, jobs=jobs)
    for per_target, test_logits in zip(paths, all_logits):
        for path, logits in zip(per_target, test_logits):
            write_logits(path, logits, fingerprint)
    return all_logits


def cmd_run_target(spec: RunSpec, out: Path, jobs: int = 1) -> Path:
    """Evaluate raw vs single-pair vs per-group vs oracle on every target."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    averaged = average_tables(tables)
    write_table(out / "tables" / "averaged.table.json", averaged,
                spec_fingerprint(spec, calibration=True))
    comparison = ["target,method,avg_incremental_accuracy,gain"]
    per_state = ["target,method,state,accuracy"]
    all_logits = _load_or_build_target_logits(spec, out, jobs)
    for j in range(spec.num_targets):
        name = f"target_{j}"
        test_logits = all_logits[j]
        results = evaluate_target(test_logits, tables, averaged)
        raw_acc = results["raw"].average_incremental_accuracy
        for method in METHODS:
            metrics = results[method]
            write_metrics(out / "metrics" / f"{name}_{method}.csv", metrics)
            gain = metrics.average_incremental_accuracy - raw_acc
            comparison.append(
                f"{name},{method},{_fmt(metrics.average_incremental_accuracy)},{_fmt(gain)}")
            for s, acc in enumerate(metrics.per_state_accuracy, start=1):
                per_state.append(f"{name},{method},{s},{_fmt(acc)}")
            log.info(kv(event="target", dataset=name, method=method,
                        avg_incremental_accuracy=metrics.average_incremental_accuracy,
                        gain=gain))
    path = out / "comparison.csv"
    _atomic_write(path, "\n".join(comparison) + "\n")
    _atomic_write(out / "per_state.csv", "\n".join(per_state) + "\n")
    return path


def _sampling_indices(spec: RunSpec, r: int) -> list[np.ndarray]:
    """Reference subsets for one sweep cell: ``spec.sweep_samplings`` draws
    without replacement, or the single full subset when r covers every
    reference."""
    if r == spec.num_references:
        return [np.arange(r)]
    rng = np.random.default_rng([spec.seed, 77, r])
    return [np.sort(rng.choice(spec.num_references, size=r, replace=False))
            for _ in range(spec.sweep_samplings)]


def cmd_sweep(spec: RunSpec, out: Path, jobs: int = 1) -> Path:
    """Ablation over the number of averaged references, plus the
    halved-training-data protocol on the targets."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    all_logits = _load_or_build_target_logits(spec, out, jobs)
    raw_accs = [apply_transfer(lg, None).average_incremental_accuracy for lg in all_logits]
    raw_mean = float(np.mean(raw_accs))

    rows = ["r,samplings,raw_mean,corrected_mean,corrected_std,gain_mean"]
    for r in spec.sweep_r_values:
        samples = []
        subsets = _sampling_indices(spec, r)
        for subset in subsets:
            averaged = average_tables([tables[i] for i in subset])
            accs = [apply_transfer(lg, averaged).average_incremental_accuracy
                    for lg in all_logits]
            samples.append(float(np.mean(accs)))
        mean = float(np.mean(samples))
        std = float(np.std(samples))
        rows.append(f"{r},{len(subsets)},{_fmt(raw_mean)},{_fmt(mean)},"
                    f"{_fmt(std)},{_fmt(mean - raw_mean)}")
        log.info(kv(event="sweep", r=r, samplings=len(subsets), corrected_mean=mean,
                    corrected_std=std, gain=mean - raw_mean))
    path = out / "sweep.csv"
    _atomic_write(path, "\n".join(rows) + "\n")

    if spec.sweep_halved:
        del all_logits  # free the full-data logits before the halved stack trains
        averaged = average_tables(tables)
        halved_logits = all_target_logits(spec, jobs=jobs, halve=True)
        lines = ["target,method,avg_incremental_accuracy,gain"]
        gains = []
        for j, test_logits in enumerate(halved_logits):
            raw = apply_transfer(test_logits, None)
            cor = apply_transfer(test_logits, averaged)
            gain = (cor.average_incremental_accuracy - raw.average_incremental_accuracy)
            gains.append(gain)
            lines.append(f"target_{j},raw,{_fmt(raw.average_incremental_accuracy)},{_fmt(0.0)}")
            lines.append(f"target_{j},adbic,{_fmt(cor.average_incremental_accuracy)},{_fmt(gain)}")
        lines.append(f"mean,adbic,,{_fmt(float(np.mean(gains)))}")
        _atomic_write(out / "halved.csv", "\n".join(lines) + "\n")
        log.info(kv(event="halved", gain_mean=float(np.mean(gains))))
    return path


def cmd_plot(spec: RunSpec, out: Path) -> list[Path]:
    """Render accuracy line charts and group-accuracy heat grids from the
    CSVs produced by run-target. Each state must be an integer in 1..S,
    with S from the spec's schedule or, without a spec, from the
    target's metrics files."""
    out = Path(out)
    path = out / "per_state.csv"
    header, rows = _read_csv_rows(path, "input")
    if header != ["target", "method", "state", "accuracy"] or any(len(r) != 4 for r in rows):
        raise SchemaError(path, f"expected columns target,method,state,accuracy, got {header}")
    targets = sorted({row[0] for row in rows})
    grids = {(target, method): read_metrics_rows(out / "metrics" / f"{target}_{method}.csv")[0]
             for target in targets for method in ("raw", "adbic")}
    by_target: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for i, (target, method, state, acc) in enumerate(rows, start=2):
        num_states = len(grids[target, "raw"]) if spec is None else spec.schedule.num_states
        by_target.setdefault(target, {}).setdefault(method, []).append(
            (_parse_int(state, path, f"row {i} state", 1, num_states),
             _parse_float(acc, path, f"row {i} accuracy")))
    written = []
    for target in targets:
        series = []
        for method in METHODS:
            if method not in by_target[target]:
                continue
            points = sorted(by_target[target][method])
            series.append(Series(
                label=method,
                x=tuple(p[0] for p in points),
                y=tuple(p[1] for p in points),
                dashed=(method == "raw"),
            ))
        markup = render_line_chart(f"{target}: accuracy per state", series)
        path = out / "plots" / f"accuracy_{target}.svg"
        write_svg(path, markup)
        written.append(path)

        for method in ("raw", "adbic"):
            markup = render_heat_grid(f"{target} {method}: group accuracy",
                                      grids[target, method])
            hpath = out / "plots" / f"heat_{target}_{method}.svg"
            write_svg(hpath, markup)
            written.append(hpath)
    for path in written:
        log.info(kv(event="plot", path=path))
    return written
