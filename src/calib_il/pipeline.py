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
from .errors import SchemaError, SpecError
from .metrics import RunMetrics
from .plots import Series, render_heat_grid, render_line_chart, write_svg
from .schedule import StateSchedule
from .storage import (_atomic_write, _fmt, _read_csv_rows, read_metrics_rows,
                      read_table, write_dataset, write_logits, write_metrics,
                      write_table)
from .synth import SynthSpec, StateSplit, gen_synthetic_dataset, halve_train_split, split_states
from .transfer import apply_transfer, average_tables, oracle_select

log = logging.getLogger("calib_il")

METHODS = ("raw", "bic", "adbic", "oracle")

_TOP_KEYS = {"seed", "name", "data", "schedule", "backbone", "calibration", "sweep"}
_DATA_KEYS = {
    "num_classes", "feature_dim", "train_per_class", "val_per_class",
    "test_per_class", "center_scale", "noise_scale", "drift_scale",
    "num_references", "num_targets",
}
_SCHEDULE_KEYS = {"num_states", "classes_per_state"}
_SWEEP_KEYS = {"r_values", "num_samplings", "halved"}


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


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise SpecError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _section(raw: dict, key: str, allowed: set) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise SpecError(f"{key} section must be a JSON object, got {section!r}")
    _reject_unknown(section, allowed, key)
    return dict(section)


def _build_config(cls, raw: dict, where: str, seed: int):
    kwargs = _section(raw, where, {f.name for f in dataclasses.fields(cls)})
    kwargs.setdefault("seed", seed)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
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
    _reject_unknown(raw, _TOP_KEYS, "run-spec")
    if "seed" not in raw:
        raise SpecError("run-spec must state a seed")
    try:
        seed = int(raw["seed"] if seed_override is None else seed_override)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"seed must be an integer, got {raw['seed']!r}") from exc
    if seed < 0:
        raise SpecError("seed must be >= 0")

    data = _section(raw, "data", _DATA_KEYS)
    for key in ("num_classes", "feature_dim"):
        if key not in data:
            raise SpecError(f"data section must state {key}")
    try:
        num_references = int(data.pop("num_references", 10))
        num_targets = int(data.pop("num_targets", 10))
        synth = SynthSpec(
            num_classes=int(data["num_classes"]),
            feature_dim=int(data["feature_dim"]),
            train_per_class=int(data.get("train_per_class", 40)),
            val_per_class=int(data.get("val_per_class", 10)),
            test_per_class=int(data.get("test_per_class", 10)),
            center_scale=float(data.get("center_scale", 1.0)),
            noise_scale=float(data.get("noise_scale", 1.0)),
            drift_scale=float(data.get("drift_scale", 0.0)),
            seed=0,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid data section: {exc}") from exc
    if not 1 <= num_references <= 500 or not 1 <= num_targets <= 500:
        raise SpecError("num_references and num_targets must be in [1, 500]")

    sched = _section(raw, "schedule", _SCHEDULE_KEYS)
    try:
        if "classes_per_state" in sched:
            schedule = StateSchedule(tuple(int(p) for p in sched["classes_per_state"]))
            if "num_states" in sched and int(sched["num_states"]) != schedule.num_states:
                raise SpecError("num_states disagrees with classes_per_state")
        elif "num_states" in sched:
            schedule = StateSchedule.equal_split(synth.num_classes, int(sched["num_states"]))
        else:
            raise SpecError("schedule must state num_states or classes_per_state")
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid schedule section: {exc}") from exc
    if schedule.num_classes != synth.num_classes:
        raise SpecError("schedule classes disagree with data num_classes")
    if schedule.num_states < 2:
        raise SpecError("the pipeline needs at least 2 states")

    backbone = _build_config(BackboneConfig, raw, "backbone", seed)
    calibration = _build_config(CalibConfig, raw, "calibration", seed)

    sweep = _section(raw, "sweep", _SWEEP_KEYS)
    default_r = tuple(dict.fromkeys(
        r for r in (1, 3, 5, 9, num_references) if r <= num_references))
    try:
        r_values = tuple(int(r) for r in sweep.get("r_values", default_r))
        num_samplings = int(sweep.get("num_samplings", 10))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"invalid sweep section: {exc}") from exc
    if len(set(r_values)) != len(r_values) or any(r < 1 for r in r_values):
        raise SpecError("sweep r_values must be distinct positive integers")
    if any(r > num_references for r in r_values):
        raise SpecError(
            f"sweep r_values {r_values} exceed the {num_references} available references")
    if num_samplings < 1:
        raise SpecError("sweep num_samplings must be >= 1")

    return RunSpec(
        seed=seed,
        name=str(raw.get("name", "experiment")),
        synth=synth,
        num_references=num_references,
        num_targets=num_targets,
        schedule=schedule,
        backbone=backbone,
        calibration=calibration,
        sweep_r_values=r_values,
        sweep_samplings=num_samplings,
        sweep_halved=bool(sweep.get("halved", True)),
    )


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
    """Train the references ``indices`` as one stack and fit their tables
    in lockstep."""
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
        "raw": apply_transfer(test_logits, None, method="raw").metrics,
        "bic": apply_transfer(test_logits, averaged.collapse_to_single_pair(),
                              method="bic").metrics,
        "adbic": apply_transfer(test_logits, averaged, method="adbic").metrics,
        "oracle": oracle_select(tables, test_logits).metrics,
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


def cmd_run_reference(spec: RunSpec, out: Path, jobs: int = 1) -> list[Path]:
    """Fit one calibration table per reference and write them all."""
    out = Path(out)
    written = []
    for run in build_all_references(spec, jobs=jobs):
        name = f"ref_{run.index}"
        for fit in run.fits:
            log.info(kv(event="fit", dataset=name, state=fit.state,
                        initial_loss=fit.initial_loss, final_loss=fit.final_loss))
        for logits in run.val_logits:
            write_logits(out / "logits" / f"{name}_state_{logits.state}.csv", logits)
        path = out / "tables" / f"{name}.table.json"
        write_table(path, run.table)
        written.append(path)
        log.info(kv(event="table", dataset=name, path=path))
    return written


def _load_or_build_tables(spec: RunSpec, out: Path, jobs: int) -> list[CalibrationTable]:
    paths = [out / "tables" / f"ref_{i}.table.json" for i in range(spec.num_references)]
    if all(p.exists() for p in paths):
        return [read_table(p) for p in paths]
    tables = [run.table for run in build_all_references(spec, jobs=jobs)]
    for path, table in zip(paths, tables):
        write_table(path, table)
    return tables


def cmd_run_target(spec: RunSpec, out: Path, jobs: int = 1) -> Path:
    """Evaluate raw vs single-pair vs per-group vs oracle on every target."""
    out = Path(out)
    tables = _load_or_build_tables(spec, out, jobs)
    averaged = average_tables(tables)
    write_table(out / "tables" / "averaged.table.json", averaged)
    comparison = ["target,method,avg_incremental_accuracy,gain"]
    per_state = ["target,method,state,accuracy"]
    all_logits = all_target_logits(spec, jobs=jobs)
    for j in range(spec.num_targets):
        name = f"target_{j}"
        test_logits = all_logits[j]
        for logits in test_logits:
            write_logits(out / "logits" / f"{name}_state_{logits.state}.csv", logits)
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
    """Reference subsets for one sweep cell: 10 draws without replacement,
    or the single full subset when r covers every reference."""
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
    all_logits = all_target_logits(spec, jobs=jobs)
    raw_accs = [apply_transfer(lg, None, method="raw").metrics.average_incremental_accuracy
                for lg in all_logits]
    raw_mean = float(np.mean(raw_accs))

    rows = ["r,samplings,raw_mean,corrected_mean,corrected_std,gain_mean"]
    for r in spec.sweep_r_values:
        samples = []
        subsets = _sampling_indices(spec, r)
        for subset in subsets:
            averaged = average_tables([tables[i] for i in subset])
            accs = [apply_transfer(lg, averaged, method="adbic")
                    .metrics.average_incremental_accuracy for lg in all_logits]
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
            raw = apply_transfer(test_logits, None, method="raw").metrics
            cor = apply_transfer(test_logits, averaged, method="adbic").metrics
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
    CSVs produced by run-target."""
    out = Path(out)
    path = out / "per_state.csv"
    header, rows = _read_csv_rows(path, "input")
    if header != ["target", "method", "state", "accuracy"] or any(len(r) != 4 for r in rows):
        raise SchemaError(path, f"expected columns target,method,state,accuracy, got {header}")
    by_target: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for target, method, state, acc in rows:
        by_target.setdefault(target, {}).setdefault(method, []).append(
            (int(state), float(acc)))
    written = []
    for target in sorted(by_target):
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
            mpath = out / "metrics" / f"{target}_{method}.csv"
            if not mpath.exists():
                continue
            cells = read_metrics_rows(mpath)
            n = max(s for s, _, _ in cells)
            matrix = np.full((n, n), np.nan)
            for s, k, acc in cells:
                if s >= 1 and k >= 1:
                    matrix[s - 1, k - 1] = acc
            markup = render_heat_grid(f"{target} {method}: group accuracy", matrix)
            hpath = out / "plots" / f"heat_{target}_{method}.svg"
            write_svg(hpath, markup)
            written.append(hpath)
    for path in written:
        log.info(kv(event="plot", path=path))
    return written
