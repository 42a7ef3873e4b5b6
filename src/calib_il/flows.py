"""The compute flows behind the CLI's gen, run-reference, run-target and
sweep subcommands; ``cli`` imports this module only for those commands.

Each dataset is drawn one state at a time (``synth.draw_states``): a
stack of references or targets draws a state's block from each dataset
only when that state trains, and ``gen`` writes each block as it is
drawn, so no flow holds a whole dataset. The stack is one flat stream
of each trained state's logits, model after model, each scored when the
flow asks for it; the flow writes, fits or scores each model's logits,
under the name its draw gives them, and drops them before it asks for
the next, so no flow holds more than one score matrix. Tables and
results are written once every state is done.

``run-target`` and ``sweep`` reuse the reference tables and the target
logits under ``--out`` only when every file carries the spec's
fingerprint (``pipeline.spec_fingerprint``); otherwise they rebuild and
overwrite them. Each decision is logged as one ``event=cache`` line.
"""

from __future__ import annotations

import dataclasses
import logging
from pathlib import Path

import numpy as np

from .backbones import run_incremental_stack
from .calibration import CalibrationTable, fit_state
from .metrics import RunMetrics
from .pipeline import METHODS, RunSpec, kv, reference_seeds, spec_fingerprint, target_seeds
from .storage import (read_logits, read_table, stale_reason, write_dataset, write_logits,
                      write_metrics, write_rows, write_table)
from .synth import StateDraw, draw_states
from .transfer import average_tables, score_state

log = logging.getLogger("calib_il")


def make_dataset(spec: RunSpec, seed: int, name: str, halve: bool = False) -> StateDraw:
    """The dataset of ``seed`` on the spec's schedule, drawn one state at
    a time; ``halve`` keeps ceil(n/2) training samples of each class."""
    return draw_states(dataclasses.replace(spec.synth, seed=seed), spec.schedule, name=name,
                       halve=halve)


def _logits_path(out: Path, name: str, state: int) -> Path:
    return out / "logits" / f"{name}_state_{state}.csv"


def reference_runs(spec: RunSpec, indices, out: Path) -> list[tuple[CalibrationTable, list]]:
    """Train the references ``indices`` as one stack. Each model's
    validation logits are written under ``out`` and fitted as soon as its
    state is trained; returns each reference's table and fits."""
    seeds, fingerprint = reference_seeds(spec), spec_fingerprint(spec)
    fits = {f"ref_{i}": [] for i in indices}
    for _, logits in run_incremental_stack(
            spec.backbone, [make_dataset(spec, seeds[i], name) for i, name in zip(indices, fits)],
            sets=("validation",)):
        write_logits(_logits_path(out, logits.dataset, logits.state), logits, fingerprint)
        if logits.state > 1:
            fits[logits.dataset].append(fit_state(logits, spec.calibration))
        del logits  # before the next model is scored
    return [(CalibrationTable.from_fits(per_ref), per_ref) for per_ref in fits.values()]


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
    seeds, fingerprint = target_seeds(spec), spec_fingerprint(spec)
    rows = {f"target_{j}": {key: [] for key in tables} for j in indices}
    for _, logits in run_incremental_stack(
            spec.backbone, [make_dataset(spec, seeds[j], name, halve=halve)
                            for j, name in zip(indices, rows)],
            sets=("test",)):
        if out is not None:
            write_logits(_logits_path(out, logits.dataset, logits.state), logits, fingerprint)
        _score(logits, tables, rows[logits.dataset])
        del logits  # before the next model is scored
    return list(rows.values())


def _in_chunks(fn, spec: RunSpec, count: int, jobs: int, *extra) -> list:
    """``fn(spec, indices, *extra)`` over ``range(count)`` split into
    ``jobs`` contiguous chunks, one stack per worker process (one chunk
    runs in-process); results in index order."""
    k = min(jobs, count)
    bounds = [count * c // k for c in range(k + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if len(chunks) == 1:
        results = [fn(spec, chunks[0], *extra)]
    else:
        # Imported here: the pool machinery costs every --jobs 1 process ~1.6 MiB.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker is started up front, so start no idle one.
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(fn, spec, chunk, *extra) for chunk in chunks]
            results = [future.result() for future in futures]
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
