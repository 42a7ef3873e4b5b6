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

Each dataset is drawn one state at a time (``synth.draw_states``): a
stack of references or targets draws a state's block from each dataset
only when that state trains, and ``gen`` writes each block as it is
drawn, so no flow holds a whole dataset. The stack hands over each
state's logits as soon as the state is trained, and the flow writes,
fits or scores them before the next state trains, so no flow holds a
whole run's logits. Tables and results are written once every state is
done.

Every table JSON and logits sidecar records ``spec_fingerprint`` of the
spec that made it. ``run-target`` and ``sweep`` reuse the reference tables
and the target logits under ``--out`` only when every file carries the
spec's fingerprint; otherwise they rebuild and overwrite them. Each
decision is logged as one ``event=cache`` line.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbones import BackboneConfig, run_incremental_stack
from .calibration import CalibConfig, CalibrationTable, fit_state
from .errors import SpecError
from .metrics import RunMetrics
from .plots import Series, render_heat_grid, render_line_chart
from .schedule import StateSchedule
from .storage import (SCHEMA_VERSION, load_json, read_fields, read_logits, read_metrics_rows,
                      read_per_state, read_table, stale_reason, write_dataset,
                      write_logits, write_metrics, write_rows, write_svg, write_table)
from .synth import StateDraw, SynthSpec, draw_states
from .transfer import average_tables, score_state

log = logging.getLogger("calib_il")

METHODS = ("raw", "bic", "adbic", "oracle")

# Most features one dataset may hold (4 GiB of float64): a spec past it is
# refused before any array, or the schedule's per-state tuple, is built.
MAX_DATASET_FLOATS = 2**29

# Types of the keys no dataclass declares; the data, backbone and
# calibration keys take theirs from SynthSpec, BackboneConfig and CalibConfig.
_TOP_TYPES = {"seed": "int", "name": "str", "data": "dict", "schedule": "dict",
              "backbone": "dict", "calibration": "dict", "sweep": "dict"}
_COUNT_TYPES = {"num_references": "int", "num_targets": "int"}
_SCHEDULE_TYPES = {"num_states": "int", "classes_per_state": "list[int]"}
_SWEEP_TYPES = {"r_values": "list[int]", "num_samplings": "int", "halved": "bool"}


def kv(**fields) -> str:
    """Render one key=value log record; floats use round-trip formatting."""
    return " ".join(f"{key}={float(value)!r}" if isinstance(value, float) else f"{key}={value}"
                    for key, value in fields.items())


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
    raw = load_json(path, "run-spec", lambda message: SpecError(f"{path}: {message}"))
    return parse_run_spec(raw, seed_override=seed_override)


def parse_run_spec(raw: dict, seed_override: int | None = None) -> RunSpec:
    top = read_fields(raw, "run-spec", _TOP_TYPES)
    if "seed" not in top:
        raise SpecError("run-spec must state a seed")
    seed = top["seed"] if seed_override is None else seed_override
    if seed < 0:
        raise SpecError("seed must be >= 0")

    data = read_fields(top.get("data", {}), "data",
                       {**_field_types(SynthSpec, "seed"), **_COUNT_TYPES})
    num_references = data.pop("num_references", 10)
    num_targets = data.pop("num_targets", 10)
    if not 1 <= num_references <= 500 or not 1 <= num_targets <= 500:
        raise SpecError("num_references and num_targets must be in [1, 500]")
    synth = _build(SynthSpec, "data", data)
    per_class = synth.train_per_class + synth.val_per_class + synth.test_per_class
    if synth.num_classes * per_class * synth.feature_dim > MAX_DATASET_FLOATS:
        raise SpecError(f"a dataset of {synth.num_classes} classes x {per_class} samples x "
                        f"{synth.feature_dim} features exceeds {MAX_DATASET_FLOATS} floats")

    sched = read_fields(top.get("schedule", {}), "schedule", _SCHEDULE_TYPES)
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
        "seed": seed,
        **read_fields(top.get("backbone", {}), "backbone", _field_types(BackboneConfig))})
    calibration = _build(CalibConfig, "calibration", read_fields(
        top.get("calibration", {}), "calibration", _field_types(CalibConfig)))
    if calibration.l2_beta == 0:
        # Adding one constant to every group's beta leaves the softmax as
        # it is, so without this penalty every fit's Hessian is singular.
        raise SpecError("calibration.l2_beta must be > 0: without it every calibration "
                        "fit has a singular Hessian")

    sweep = read_fields(top.get("sweep", {}), "sweep", _SWEEP_TYPES)
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

    return RunSpec(seed=seed, name=top.get("name", "experiment"), synth=synth,
                   num_references=num_references, num_targets=num_targets, schedule=schedule,
                   backbone=backbone, calibration=calibration, sweep_r_values=r_values,
                   sweep_samplings=num_samplings, sweep_halved=sweep.get("halved", True))


def spec_fingerprint(spec: RunSpec, calibration: bool = False) -> str:
    """SHA-256 of the canonical JSON of the validated spec sections that
    determine an artifact: schema version, seed, synthetic data, schedule
    and backbone, plus the calibration penalties when ``calibration`` (for
    tables). The name, the sweep grid and the reference and target counts
    change no artifact, so they are left out."""
    payload = {"schema_version": SCHEMA_VERSION, "seed": spec.seed,
               "synth": dataclasses.asdict(spec.synth),
               "schedule": list(spec.schedule.classes_per_state),
               "backbone": dataclasses.asdict(spec.backbone)}
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


def make_dataset(spec: RunSpec, seed: int, name: str, halve: bool = False) -> StateDraw:
    """The dataset of ``seed`` on the spec's schedule, drawn one state at
    a time; ``halve`` keeps ceil(n/2) training samples of each class."""
    return draw_states(dataclasses.replace(spec.synth, seed=seed), spec.schedule, name=name,
                       halve=halve)


def _logits_path(out: Path, name: str, state: int) -> Path:
    return out / "logits" / f"{name}_state_{state}.csv"


def reference_runs(spec: RunSpec, indices, out: Path) -> list[tuple[CalibrationTable, list]]:
    """Train the references ``indices`` as one stack. Each state's
    validation logits are written under ``out`` and fitted as soon as the
    state is trained; returns each reference's table and fits."""
    names = [f"ref_{i}" for i in indices]
    seeds = [reference_seeds(spec)[i] for i in indices]
    fingerprint, fits = spec_fingerprint(spec), [[] for _ in indices]
    for state, by_set in run_incremental_stack(
            spec.backbone, [make_dataset(spec, seed, name) for seed, name in zip(seeds, names)],
            names, seeds, sets=("validation",)):
        for name, logits, per_ref in zip(names, by_set["validation"], fits):
            write_logits(_logits_path(out, name, state), logits, fingerprint)
            if state > 1:
                per_ref.append(fit_state(logits, spec.calibration))
        del by_set, logits  # before the next state trains
    return [(CalibrationTable.from_fits(per_ref), per_ref) for per_ref in fits]


def _score(logits, tables: dict, rows: dict):
    """Append ``logits``' row under each entry of ``tables`` (a list of
    tables each, see ``score_state``) to ``rows``."""
    for key, candidates in tables.items():
        rows[key].append(score_state(logits, candidates))


def target_rows(spec: RunSpec, indices, tables: dict, out: Path | None = None,
                halve: bool = False) -> list[dict]:
    """Train the targets ``indices`` as one stack. As soon as a state is
    trained, each target's test logits are written under ``out`` (unless it
    is None) and scored by every entry of ``tables``; returns, per target,
    each entry's per-state rows."""
    names = [f"target_{j}" for j in indices]
    seeds = [target_seeds(spec)[j] for j in indices]
    fingerprint, rows = spec_fingerprint(spec), [{key: [] for key in tables} for _ in indices]
    for state, by_set in run_incremental_stack(
            spec.backbone, [make_dataset(spec, seed, name, halve=halve)
                            for seed, name in zip(seeds, names)],
            names, seeds, sets=("test",)):
        for name, logits, per_target in zip(names, by_set["test"], rows):
            if out is not None:
                write_logits(_logits_path(out, name, state), logits, fingerprint)
            _score(logits, tables, per_target)
        del by_set, logits  # before the next state trains
    return rows


def _pool_map(fn, args_list):
    if len(args_list) <= 1:
        return [fn(args) for args in args_list]
    # Imported here: the pool machinery costs every --jobs 1 process ~1.6 MiB.
    from concurrent.futures import ProcessPoolExecutor

    # Under fork every worker is started up front, so start no idle one.
    with ProcessPoolExecutor(max_workers=len(args_list)) as pool:
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
    results = _pool_map(_call, [(fn, spec, chunk, *extra) for chunk in chunks])
    return [item for chunk in results for item in chunk]


def build_all_references(spec: RunSpec, out: Path, jobs: int = 1) -> list[tuple]:
    """Every reference's table and fits, in index order regardless of pool
    scheduling; their validation logits are written under ``out``."""
    return _in_chunks(reference_runs, spec, spec.num_references, jobs, out)


def all_target_rows(spec: RunSpec, tables: dict, out: Path | None = None, jobs: int = 1,
                    halve: bool = False) -> list[dict]:
    """``target_rows`` of every target, in index order regardless of pool
    scheduling."""
    return _in_chunks(target_rows, spec, spec.num_targets, jobs, tables, out, halve)


# ---------------------------------------------------------------------------
# subcommand flows


def cmd_gen(spec: RunSpec, out: Path):
    """Materialize every reference and target dataset as CSV files, each
    written state by state as it is drawn."""
    out = Path(out)
    for role, prefix, seeds in (("reference", "ref", reference_seeds(spec)),
                                ("target", "target", target_seeds(spec))):
        for index, seed in enumerate(seeds):
            name = f"{prefix}_{index}"
            path = out / "data" / f"{name}.csv"
            write_dataset(path, make_dataset(spec, seed, name))
            log.info(kv(event="gen", role=role, index=index, seed=seed, path=path))


def cmd_run_reference(spec: RunSpec, out: Path, jobs: int = 1) -> list[CalibrationTable]:
    """Train and fit every reference, log its fits, and write its logits and
    table; returns the tables in index order. ``run-target`` and ``sweep``
    rebuild stale tables with it too. A table is written only once every
    reference is fitted, so a failed run leaves none to reuse."""
    out = Path(out)
    table_fp = spec_fingerprint(spec, calibration=True)
    runs = build_all_references(spec, out, jobs=jobs)
    for i, (table, fits) in enumerate(runs):
        name = f"ref_{i}"
        for fit in fits:
            log.info(kv(event="fit", dataset=name, state=fit.state,
                        initial_loss=fit.initial_loss, final_loss=fit.final_loss,
                        iterations=fit.iterations, grad_norm=fit.grad_norm))
        path = out / "tables" / f"{name}.table.json"
        write_table(path, table, table_fp)
        log.info(kv(event="table", dataset=name, path=path))
    return [table for table, _ in runs]


def _reusable(artifact: str, paths: list[Path], fingerprint: str) -> bool:
    """Whether the stored ``artifact`` files at ``paths`` were made from a
    spec with ``fingerprint``; logs the decision. An artifact without a
    fingerprint is a data error (exit 3)."""
    reason = stale_reason(paths, fingerprint)
    log.info(kv(event="cache", artifact=artifact, action="reuse") if reason is None else
             kv(event="cache", artifact=artifact, action="rebuild", reason=reason))
    return reason is None


def _load_or_build_tables(spec: RunSpec, out: Path, jobs: int) -> list[CalibrationTable]:
    paths = [out / "tables" / f"ref_{i}.table.json" for i in range(spec.num_references)]
    if not _reusable("tables", paths, spec_fingerprint(spec, calibration=True)):
        return cmd_run_reference(spec, out, jobs)
    return [read_table(p, num_states=spec.schedule.num_states) for p in paths]


def _target_rows(spec: RunSpec, out: Path, jobs: int, tables: dict) -> list[dict]:
    """``target_rows`` of every target on its test logits: read from
    ``out/logits`` one state at a time when they carry the spec's
    fingerprint, else trained and written there."""
    states = range(1, spec.schedule.num_states + 1)
    paths = [[_logits_path(out, f"target_{j}", s) for s in states]
             for j in range(spec.num_targets)]
    if not _reusable("target_logits", [p for per_target in paths for p in per_target],
                     spec_fingerprint(spec)):
        return all_target_rows(spec, tables, out, jobs)
    seeds, per_class = target_seeds(spec), spec.synth.test_per_class
    all_rows = [{key: [] for key in tables} for _ in paths]
    for j, (per_target, rows) in enumerate(zip(paths, all_rows)):
        for s, path in zip(states, per_target):
            _score(read_logits(path, expect=(f"target_{j}", seeds[j], s, spec.schedule,
                                             per_class * spec.schedule.classes_through(s))),
                   tables, rows)
    return all_rows


def cmd_run_target(spec: RunSpec, out: Path, jobs: int = 1):
    """Evaluate raw vs single-pair vs per-group vs oracle on every target."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    averaged = average_tables(tables)
    write_table(out / "tables" / "averaged.table.json", averaged,
                spec_fingerprint(spec, calibration=True))
    methods = {"raw": [None], "bic": [averaged.collapse_to_single_pair()],
               "adbic": [averaged], "oracle": tables}
    comparison, per_state = [], []
    for j, rows in enumerate(_target_rows(spec, out, jobs, methods)):
        name = f"target_{j}"
        results = {method: RunMetrics.from_rows(rows[method]) for method in METHODS}
        raw_acc = results["raw"].average_incremental_accuracy
        for method in METHODS:
            metrics = results[method]
            write_metrics(out / "metrics" / f"{name}_{method}.csv", metrics)
            gain = metrics.average_incremental_accuracy - raw_acc
            comparison.append((name, method, metrics.average_incremental_accuracy, gain))
            per_state += [(name, method, s, acc)
                          for s, acc in enumerate(metrics.per_state_accuracy.tolist(), start=1)]
            log.info(kv(event="target", dataset=name, method=method,
                        avg_incremental_accuracy=metrics.average_incremental_accuracy,
                        gain=gain))
    write_rows(out / "comparison.csv", ["target", "method", "avg_incremental_accuracy", "gain"],
               comparison)
    write_rows(out / "per_state.csv", ["target", "method", "state", "accuracy"], per_state)


def _sampling_indices(spec: RunSpec, r: int) -> list[np.ndarray]:
    """Reference subsets for one sweep cell: ``spec.sweep_samplings`` draws
    without replacement, or the single full subset when r covers every
    reference."""
    if r == spec.num_references:
        return [np.arange(r)]
    rng = np.random.default_rng([spec.seed, 77, r])
    return [np.sort(rng.choice(spec.num_references, size=r, replace=False))
            for _ in range(spec.sweep_samplings)]


def _mean_accuracy(all_rows: list[dict], key) -> float:
    """Mean over targets of the average incremental accuracy of ``key``'s rows."""
    return float(np.mean([RunMetrics.from_rows(rows[key]).average_incremental_accuracy
                          for rows in all_rows]))


def cmd_sweep(spec: RunSpec, out: Path, jobs: int = 1):
    """Ablation over the number of averaged references, plus the
    halved-training-data protocol on the targets."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    cells = {(r, n): [average_tables([tables[i] for i in subset])]
             for r in spec.sweep_r_values
             for n, subset in enumerate(_sampling_indices(spec, r))}
    all_rows = _target_rows(spec, out, jobs, {"raw": [None], **cells})
    raw_mean = _mean_accuracy(all_rows, "raw")
    rows = []
    for r in spec.sweep_r_values:
        samples = [_mean_accuracy(all_rows, key) for key in cells if key[0] == r]
        mean, std = float(np.mean(samples)), float(np.std(samples))
        rows.append((r, len(samples), raw_mean, mean, std, mean - raw_mean))
        log.info(kv(event="sweep", r=r, samplings=len(samples), corrected_mean=mean,
                    corrected_std=std, gain=mean - raw_mean))
    write_rows(out / "sweep.csv", ["r", "samplings", "raw_mean", "corrected_mean",
                                   "corrected_std", "gain_mean"], rows)

    if spec.sweep_halved:
        halved = all_target_rows(spec, {"raw": [None], "adbic": [average_tables(tables)]},
                                 jobs=jobs, halve=True)
        rows, gains = [], []
        for j, by_method in enumerate(halved):
            raw, cor = (RunMetrics.from_rows(by_method[method]).average_incremental_accuracy
                        for method in ("raw", "adbic"))
            gains.append(cor - raw)
            rows += [(f"target_{j}", "raw", raw, 0.0), (f"target_{j}", "adbic", cor, cor - raw)]
        gain_mean = float(np.mean(gains))
        write_rows(out / "halved.csv", ["target", "method", "avg_incremental_accuracy", "gain"],
                   rows + [("mean", "adbic", "", gain_mean)])
        log.info(kv(event="halved", gain_mean=gain_mean))


def cmd_plot(spec: RunSpec, out: Path):
    """Render accuracy line charts and group-accuracy heat grids from the
    CSVs produced by run-target. Each state must be an integer in 1..S,
    with S from the spec's schedule or, without a spec, from the
    target's metrics files."""
    out = Path(out)
    grid = functools.cache(lambda target, method: read_metrics_rows(
        out / "metrics" / f"{target}_{method}.csv")[0])
    points = read_per_state(out / "per_state.csv", METHODS, lambda target: (
        len(grid(target, "raw")) if spec is None else spec.schedule.num_states))
    targets = sorted({target for target, _ in points})
    grids = {(target, method): grid(target, method)  # every input before any chart
             for target in targets for method in ("raw", "adbic")}
    for target in targets:
        series = [Series(method, *zip(*points[target, method]), dashed=(method == "raw"))
                  for method in METHODS]
        charts = {f"accuracy_{target}": render_line_chart(f"{target}: accuracy per state", series)}
        for method in ("raw", "adbic"):
            charts[f"heat_{target}_{method}"] = render_heat_grid(
                f"{target} {method}: group accuracy", grids[target, method])
        for name, markup in charts.items():
            path = out / "plots" / f"{name}.svg"
            write_svg(path, markup)
            log.info(kv(event="plot", path=path))
