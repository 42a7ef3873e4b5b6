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
import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbones import BackboneConfig, run_incremental_stack
from .calibration import CalibConfig, CalibrationTable, fit_tables
from .errors import SpecError
from .metrics import RunMetrics
from .plots import Series, render_heat_grid, render_line_chart
from .schedule import StateSchedule
from .storage import (SCHEMA_VERSION, load_json, read_fields, read_logits, read_metrics_rows,
                      read_per_state, read_table, stale_reason, write_dataset,
                      write_logits, write_metrics, write_rows, write_svg, write_table)
from .synth import IncrementalDataset, SynthSpec, gen_synthetic_dataset, halve_train_split
from .transfer import apply_transfer, average_tables, oracle_select

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


def make_dataset(spec: RunSpec, seed: int, name: str, halve: bool = False) -> IncrementalDataset:
    """The dataset of ``seed``, drawn on the spec's schedule."""
    dataset = gen_synthetic_dataset(dataclasses.replace(spec.synth, seed=seed), spec.schedule,
                                    name=name)
    return halve_train_split(dataset) if halve else dataset


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
        spec.backbone, (make_dataset(spec, seed, name) for seed, name in zip(seeds, names)),
        names, seeds, sets=("validation",))
    fitted = fit_tables([logits[1:] for logits in val_logits], spec.calibration)
    return [ReferenceRun(i, table, logits, fits)
            for i, logits, (table, fits) in zip(indices, val_logits, fitted)]


def target_logits(spec: RunSpec, indices, halve: bool = False) -> list[list]:
    """Per-state test logits of the targets ``indices``, trained as one stack."""
    names = [f"target_{j}" for j in indices]
    seeds = [target_seeds(spec)[j] for j in indices]
    (test_logits,) = run_incremental_stack(
        spec.backbone, (make_dataset(spec, seed, name, halve=halve)
                        for seed, name in zip(seeds, names)),
        names, seeds, sets=("test",))
    return test_logits


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


def cmd_gen(spec: RunSpec, out: Path):
    """Materialize every reference and target dataset as CSV files."""
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


def _load_or_build_target_logits(spec: RunSpec, out: Path, jobs: int) -> list[list]:
    """Per-state test logits of every target: read from ``out/logits`` when
    they carry the spec's fingerprint, else trained and written there."""
    states = range(1, spec.schedule.num_states + 1)
    paths = [[out / "logits" / f"target_{j}_state_{s}.csv" for s in states]
             for j in range(spec.num_targets)]
    fingerprint = spec_fingerprint(spec)
    if _reusable("target_logits", [p for per_target in paths for p in per_target], fingerprint):
        seeds, per_class = target_seeds(spec), spec.synth.test_per_class
        return [[read_logits(p, expect=(f"target_{j}", seeds[j], s, spec.schedule,
                                        per_class * spec.schedule.classes_through(s)))
                 for s, p in zip(states, per_target)]
                for j, per_target in enumerate(paths)]
    all_logits = all_target_logits(spec, jobs=jobs)
    for per_target, test_logits in zip(paths, all_logits):
        for path, logits in zip(per_target, test_logits):
            write_logits(path, logits, fingerprint)
    return all_logits


def cmd_run_target(spec: RunSpec, out: Path, jobs: int = 1):
    """Evaluate raw vs single-pair vs per-group vs oracle on every target."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    averaged = average_tables(tables)
    write_table(out / "tables" / "averaged.table.json", averaged,
                spec_fingerprint(spec, calibration=True))
    comparison, per_state = [], []
    all_logits = _load_or_build_target_logits(spec, out, jobs)
    for j, test_logits in enumerate(all_logits):
        name = f"target_{j}"
        results = evaluate_target(test_logits, tables, averaged)
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


def cmd_sweep(spec: RunSpec, out: Path, jobs: int = 1):
    """Ablation over the number of averaged references, plus the
    halved-training-data protocol on the targets."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    all_logits = _load_or_build_target_logits(spec, out, jobs)

    def mean_accuracy(table: CalibrationTable | None) -> float:
        return float(np.mean([apply_transfer(lg, table).average_incremental_accuracy
                              for lg in all_logits]))

    raw_mean = mean_accuracy(None)
    rows = []
    for r in spec.sweep_r_values:
        subsets = _sampling_indices(spec, r)
        samples = [mean_accuracy(average_tables([tables[i] for i in subset]))
                   for subset in subsets]
        mean, std = float(np.mean(samples)), float(np.std(samples))
        rows.append((r, len(subsets), raw_mean, mean, std, mean - raw_mean))
        log.info(kv(event="sweep", r=r, samplings=len(subsets), corrected_mean=mean,
                    corrected_std=std, gain=mean - raw_mean))
    write_rows(out / "sweep.csv", ["r", "samplings", "raw_mean", "corrected_mean",
                                   "corrected_std", "gain_mean"], rows)

    if spec.sweep_halved:
        del all_logits  # free the full-data logits before the halved stack trains
        averaged = average_tables(tables)
        rows, gains = [], []
        for j, test_logits in enumerate(all_target_logits(spec, jobs=jobs, halve=True)):
            raw, cor = (apply_transfer(test_logits, table).average_incremental_accuracy
                        for table in (None, averaged))
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
