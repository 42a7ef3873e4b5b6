"""The compute flows behind the CLI's gen, run-reference, run-target and
sweep subcommands; ``cli`` imports this module only for those commands.

Each dataset is drawn one state at a time (``synth.draw_states``): a
stack of references or targets draws a state's block from each dataset
only when that state trains, and ``gen`` writes each block as it is
drawn, so no flow holds a whole dataset. One runner, ``_stack``, trains
a role's stack: a flat stream of each trained state's logits, model
after model, each scored when the runner asks for it. It writes each
model's logits under the name its draw gives them, hands them to a
per-state consumer (``_fit`` for references, ``_score`` for targets)
and drops them before it asks for the next, so no flow holds more than
one score matrix. Tables and results are written once every state is
done.

``run-target`` and ``sweep`` reuse the reference tables and the target
logits under ``--out`` only when every file carries the spec's
fingerprint (``pipeline.spec_fingerprint``); otherwise they rebuild and
overwrite them. Each decision is logged as one ``event=cache`` line.
"""

from __future__ import annotations

import dataclasses
import logging
from functools import partial
from pathlib import Path

import numpy as np

from .backbones import run_incremental_stack
from .calibration import CalibrationTable, StateFit, fit_state
from .config import CalibConfig
from .pipeline import METHODS, RunSpec, kv, reference_seeds, spec_fingerprint, target_seeds
from .storage import (read_logits, read_table, stale_reason, write_dataset, write_logits,
                      write_metrics, write_rows, write_table)
from .synth import StateDraw, draw_states
from .transfer import RunMetrics, average_tables, score_state

log = logging.getLogger("calib_il")


def make_dataset(spec: RunSpec, seed: int, name: str, halve: bool = False) -> StateDraw:
    """The dataset of ``seed`` on the spec's schedule, drawn one state at
    a time; ``halve`` keeps ceil(n/2) training samples of each class."""
    return draw_states(dataclasses.replace(spec.synth, seed=seed), spec.schedule, name=name,
                       halve=halve)


def _logits_path(out: Path, name: str, state: int) -> Path:
    return out / "logits" / f"{name}_state_{state}.csv"


# Each role's dataset name prefix, seeds and the logits its stack gives.
_ROLES = {"reference": ("ref", reference_seeds, ("validation",)),
          "target": ("target", target_seeds, ("test",))}


def _stack(spec: RunSpec, indices, role: str, consume, out: Path | None = None,
           halve: bool = False) -> list[list]:
    """Train the ``role`` datasets ``indices`` as one stack. As soon as a
    state is trained, each model's logits are written under ``out``
    (unless it is None) and handed to ``consume``; returns, per dataset,
    what ``consume`` returned for each state 1..S."""
    prefix, seeds_of, sets = _ROLES[role]
    seeds, fingerprint = seeds_of(spec), spec_fingerprint(spec)
    results = {f"{prefix}_{i}": [] for i in indices}
    for _, logits in run_incremental_stack(
            spec.backbone, [make_dataset(spec, seeds[i], name, halve=halve)
                            for i, name in zip(indices, results)], sets=sets):
        if out is not None:
            write_logits(_logits_path(out, logits.dataset, logits.state), logits, fingerprint)
        results[logits.dataset].append(consume(logits))
        del logits  # before the next model is scored
    return list(results.values())


def _fit(config: CalibConfig, logits) -> StateFit | None:
    """A reference state's calibration fit; state 1 has none."""
    return fit_state(logits, config) if logits.state > 1 else None


def _score(tables: dict, logits) -> dict:
    """``logits``' row under each entry of ``tables`` (a list of tables
    each, see ``score_state``)."""
    return {key: score_state(logits, candidates) for key, candidates in tables.items()}


def _stacks(spec: RunSpec, role: str, consume, out: Path | None = None, jobs: int = 1,
            halve: bool = False) -> list[list]:
    """``_stack`` over every ``role`` dataset, split into ``jobs``
    contiguous chunks, one stack per worker process (one chunk runs
    in-process); results in index order regardless of pool scheduling."""
    count = len(_ROLES[role][1](spec))
    k = min(jobs, count)
    bounds = [count * c // k for c in range(k + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if len(chunks) == 1:
        results = [_stack(spec, chunks[0], role, consume, out, halve)]
    else:
        # Imported here: the pool machinery costs every --jobs 1 process ~1.6 MiB.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker is started up front, so start no idle one.
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_stack, spec, chunk, role, consume, out, halve)
                       for chunk in chunks]
            results = [future.result() for future in futures]
    return [item for chunk in results for item in chunk]


def _metrics(rows: list[dict], key) -> RunMetrics:
    """The metrics of one target's per-state rows under ``key``."""
    return RunMetrics.from_rows([row[key] for row in rows])


# ---------------------------------------------------------------------------
# subcommand flows


def cmd_gen(spec: RunSpec, out: Path):
    """Materialize every reference and target dataset as CSV files, each
    written state by state as it is drawn."""
    out = Path(out)
    for role, (prefix, seeds_of, _) in _ROLES.items():
        for index, seed in enumerate(seeds_of(spec)):
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
    tables = []
    for i, per_state in enumerate(_stacks(spec, "reference", partial(_fit, spec.calibration),
                                          out, jobs)):
        name, fits = f"ref_{i}", per_state[1:]
        for fit in fits:
            log.info(kv(event="fit", dataset=name, state=fit.state,
                        initial_loss=fit.initial_loss, final_loss=fit.final_loss,
                        iterations=fit.iterations, grad_norm=fit.grad_norm))
        tables.append(CalibrationTable.from_fits(fits))
        path = out / "tables" / f"{name}.table.json"
        write_table(path, tables[-1], table_fp)
        log.info(kv(event="table", dataset=name, path=path))
    return tables


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


def _target_rows(spec: RunSpec, out: Path, jobs: int, tables: dict) -> list[list[dict]]:
    """Per target, the ``_score`` row of each state's test logits: read
    from ``out/logits`` one state at a time when they carry the spec's
    fingerprint, else trained and written there."""
    score = partial(_score, tables)
    states = range(1, spec.schedule.num_states + 1)
    paths = [[_logits_path(out, f"target_{j}", s) for s in states]
             for j in range(spec.num_targets)]
    if not _reusable("target_logits", [p for per_target in paths for p in per_target],
                     spec_fingerprint(spec)):
        return _stacks(spec, "target", score, out, jobs)
    seeds, per_class = target_seeds(spec), spec.synth.test_per_class
    return [[score(read_logits(path, expect=(f"target_{j}", seeds[j], s, spec.schedule,
                                             per_class * spec.schedule.classes_through(s))))
             for s, path in zip(states, per_target)]
            for j, per_target in enumerate(paths)]


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
        results = {method: _metrics(rows, method) for method in METHODS}
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


def _mean_accuracy(all_rows: list[list[dict]], key) -> float:
    """Mean over targets of the average incremental accuracy of ``key``'s rows."""
    return float(np.mean([_metrics(rows, key).average_incremental_accuracy
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
        halved = _stacks(spec, "target",
                         partial(_score, {"raw": [None], "adbic": [average_tables(tables)]}),
                         jobs=jobs, halve=True)
        rows, gains = [], []
        for j, by_state in enumerate(halved):
            raw, cor = (_metrics(by_state, method).average_incremental_accuracy
                        for method in ("raw", "adbic"))
            gains.append(cor - raw)
            rows += [(f"target_{j}", "raw", raw, 0.0), (f"target_{j}", "adbic", cor, cor - raw)]
        gain_mean = float(np.mean(gains))
        write_rows(out / "halved.csv", ["target", "method", "avg_incremental_accuracy", "gain"],
                   rows + [("mean", "adbic", "", gain_mean)])
        log.info(kv(event="halved", gain_mean=gain_mean))
