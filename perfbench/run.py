"""End-to-end benchmark of the calib-il pipeline.

Usage::

    python3 perfbench/run.py --workload demo --seed 7 --seconds 60 --trace 0

Each repetition runs the five CLI subcommands (gen, run-reference,
run-target, sweep, plot) as a user does: one fresh process per subcommand,
one run-spec, and a fresh, empty output directory under ``perfbench/.work``.
The workload seed is written into that run-spec; the CLI sees nothing else
of the benchmark. Repetitions continue until ``--seconds`` (set-up
included) are used, with at least two per run, and every repetition is
checked for correctness:

- every subcommand exits 0 and leaves its expected artifacts;
- on every target the ``adbic`` gain is positive (``comparison.csv``);
- in every state of every target, the oracle's accuracy (``per_state.csv``)
  is at least that of each reference table applied alone, recomputed here
  from the written logits and tables;
- the SHA-256 over the whole output tree is equal across repetitions.

``--trace 0`` prints the end-to-end metrics (medians over repetitions);
their times are CPU seconds, and the wall times are printed beside them.
Subcommands run with ``OPENBLAS_NUM_THREADS=1`` unless the caller sets it.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics; traced subcommands run under ``perfbench/tracer.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (subcommand runs), ``failed`` (subcommand runs
that exited nonzero or failed a check) and ``metrics``. The exit code is 1
when any check failed and 2 when the program to measure is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
WORK = BENCH_DIR / ".work"

SUBCOMMANDS = ("gen", "run-reference", "run-target", "sweep", "plot")
METHODS = ("raw", "bic", "adbic", "oracle")
MIN_REPS = 2
SETUP_PROBES = 7
SUBCOMMAND_TIMEOUT_S = 150.0
# Used by no run while the benchmark was tuned; a claimed gain is confirmed
# on it as well as on the seeds it was found with.
HELD_OUT_SEED = 1009

SETUP_PROBE = ("import sys; import calib_il.cli; "
               "from calib_il.pipeline import load_run_spec; load_run_spec(sys.argv[1])")


@dataclass(frozen=True)
class Workload:
    spec: dict
    jobs: int


_DEMO = {
    "name": "demo",
    "data": {"num_classes": 20, "feature_dim": 32,
             "num_references": 10, "num_targets": 10},
    "schedule": {"num_states": 5},
    "backbone": {"kind": "ftplus", "learning_rate": 0.03},
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "demo": Workload(_DEMO, jobs=1),
    # The wide per-dataset shape with R=T=2 instead of 4, so that two
    # repetitions fit in one run; two references keep a cross-reference
    # average and a sweep over reference subsets.
    "wide": Workload({
        "name": "wide",
        "data": {"num_classes": 100, "feature_dim": 64,
                 "num_references": 2, "num_targets": 2},
        "schedule": {"num_states": 10},
        "backbone": {"kind": "lwf"},
    }, jobs=1),
    # A few seconds per repetition; the benchmark's own tests run it.
    "smoke": Workload({
        "name": "smoke",
        "data": {"num_classes": 6, "feature_dim": 8,
                 "num_references": 2, "num_targets": 2},
        "schedule": {"num_states": 3},
        "backbone": {"kind": "ftplus", "learning_rate": 0.03},
        "sweep": {"num_samplings": 2},
    }, jobs=1),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_cpu_s": "s", "peak_rss_mb": "MiB", "adbic_gain": "fraction",
    "adbic_oracle_share": "fraction",
}

LAYERS = ("synth", "schedule", "backbones", "calibration", "transfer",
          "metrics", "storage", "plots", "pipeline")


# ---------------------------------------------------------------------------
# inputs and expected outputs


def expected_artifacts(spec: dict, command: str) -> list[str]:
    """Relative paths ``command`` must leave in the output directory."""
    data = spec["data"]
    refs = [f"ref_{i}" for i in range(data["num_references"])]
    targets = [f"target_{j}" for j in range(data["num_targets"])]
    states = range(1, spec["schedule"]["num_states"] + 1)

    def with_sidecar(path):
        return [path, path + ".meta.json"]

    def logits(names):
        return [p for n in names for s in states
                for p in with_sidecar(f"logits/{n}_state_{s}.csv")]

    if command == "gen":
        return [p for n in refs + targets for p in with_sidecar(f"data/{n}.csv")]
    if command == "run-reference":
        return logits(refs) + [f"tables/{n}.table.json" for n in refs]
    if command == "run-target":
        return (logits(targets) + ["tables/averaged.table.json", "comparison.csv",
                                   "per_state.csv"]
                + [f"metrics/{n}_{m}.csv" for n in targets for m in METHODS])
    if command == "sweep":
        return ["sweep.csv", "halved.csv"]
    if command == "plot":
        return [f"plots/{kind}_{n}{suffix}.svg" for n in targets
                for kind, suffix in (("accuracy", ""), ("heat", "_raw"), ("heat", "_adbic"))]
    raise ValueError(f"unknown subcommand {command}")


def _files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file())


def tree_digest(out: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in _files(out):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def comparison_gains(out: Path) -> tuple[dict, dict]:
    """Accuracy and gain, each as {target: {method: value}}, read from
    comparison.csv."""
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "target,method,avg_incremental_accuracy,gain":
        raise ValueError(f"unexpected comparison.csv header {lines[0]!r}")
    accuracy: dict[str, dict[str, float]] = {}
    gains: dict[str, dict[str, float]] = {}
    for line in lines[1:]:
        target, method, acc, gain = line.split(",")
        accuracy.setdefault(target, {})[method] = float(acc)
        gains.setdefault(target, {})[method] = float(gain)
    return accuracy, gains


def check_comparison(out: Path, num_targets: int) -> list[str]:
    """Every target gains from adbic."""
    try:
        accuracy, gains = comparison_gains(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"comparison.csv unreadable: {exc}"]
    problems = []
    if len(accuracy) != num_targets:
        problems.append(f"comparison.csv has {len(accuracy)} targets, expected {num_targets}")
    for target, gain in gains.items():
        if not gain["adbic"] > 0:
            problems.append(f"{target}: adbic gain {gain['adbic']} is not positive")
    return problems


def _single_table_accuracy(logits_path: Path, entries: dict) -> float:
    """Top-1 accuracy of one reference table applied to one state's logits,
    computed from the CSV and its sidecar without the package."""
    meta = json.loads(Path(str(logits_path) + ".meta.json").read_text(encoding="utf-8"))
    rows = np.loadtxt(logits_path, delimiter=",", skiprows=1, ndmin=2)
    labels, matrix = rows[:, 1].astype(np.int64), rows[:, 2:]
    groups = np.asarray(meta["class_to_state"][:matrix.shape[1]], dtype=np.int64)
    state = meta["state"]
    alpha = np.array([entries[state, g][0] for g in groups])
    beta = np.array([entries[state, g][1] for g in groups])
    return float(np.mean(np.argmax(matrix * alpha + beta, axis=1) == labels))


def check_oracle(out: Path, spec: dict) -> list[str]:
    """Per state, the oracle picks the best single reference table on the
    target's test labels, so its accuracy is at least each table's alone.
    It is no bound on adbic: the average of the tables can beat every one
    of them (on wide with seed 1 it does, by 0.0003)."""
    try:
        per_state: dict[tuple[str, int], float] = {}
        lines = (out / "per_state.csv").read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            target, method, state, acc = line.split(",")
            if method == "oracle":
                per_state[target, int(state)] = float(acc)
        tables = []
        for i in range(spec["data"]["num_references"]):
            table = json.loads((out / "tables" / f"ref_{i}.table.json").read_text("utf-8"))
            tables.append({(e["s"], e["k"]): (e["alpha"], e["beta"])
                           for e in table["entries"]})
        problems = []
        for j in range(spec["data"]["num_targets"]):
            target = f"target_{j}"
            for state in range(2, spec["schedule"]["num_states"] + 1):
                logits = out / "logits" / f"{target}_state_{state}.csv"
                best = max(_single_table_accuracy(logits, t) for t in tables)
                if not per_state[target, state] >= best:
                    problems.append(f"{target} state {state}: oracle {per_state[target, state]} "
                                    f"below a single reference table's {best}")
        return problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"oracle check could not read the outputs: {exc!r}"]


def adbic_quality(out: Path) -> tuple[float, float]:
    """Mean adbic gain over targets, and the share of the oracle's gain that
    adbic recovers (summed over targets). The share varies far less from
    seed to seed than the gain, so a small loss of quality shows in it."""
    gains = comparison_gains(out)[1].values()
    adbic = math.fsum(g["adbic"] for g in gains)
    return adbic / len(gains), adbic / math.fsum(g["oracle"] for g in gains)


# ---------------------------------------------------------------------------
# running the CLI


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The CLI lets this variable override the spec's seed.
    env.pop("CALIB_IL_SEED", None)
    # Times are CPU seconds, and threaded OpenBLAS spin-waits: with the
    # other vCPU busy, a 1000x64 @ 64x100 matmul loop ran 9x slower on two
    # threads than on one. One thread makes every workload one busy thread.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def run_process(argv: list[str], env: dict,
                log_path: Path) -> tuple[float, float, int, float]:
    """Run one process to completion; returns its wall seconds, and the CPU
    seconds (user + system), exit code and peak RSS in MiB of it and its
    reaped children."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(SUBCOMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_seconds = usage.ru_utime + usage.ru_stime
    return seconds, cpu_seconds, proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class CommandRun:
    command: str
    seconds: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Rep:
    traced: bool
    runs: list[CommandRun] = field(default_factory=list)
    digest: str = ""
    adbic_gain: float = math.nan
    adbic_oracle_share: float = math.nan
    layers: dict[str, float] = field(default_factory=dict)

    def run(self, command: str) -> CommandRun:
        return next(run for run in self.runs if run.command == command)


def run_rep(spec: dict, spec_path: Path, jobs: int, rep_dir: Path, traced: bool) -> Rep:
    """One experiment: the five subcommands against a fresh output directory."""
    out, logs = rep_dir / "out", rep_dir / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    env = child_env()
    rep = Rep(traced)
    for command in SUBCOMMANDS:
        cli_args = [command, "--spec", str(spec_path), "--out", str(out), "--jobs", str(jobs)]
        spans = logs / f"{command}.spans.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(spans), f"{rep_dir.name}/{command}",
                    *cli_args]
        else:
            argv = [sys.executable, "-m", "calib_il.cli", *cli_args]
        seconds, cpu_s, code, rss = run_process(argv, env, logs / f"{command}.log")
        run = CommandRun(command, seconds, cpu_s, rss)
        rep.runs.append(run)
        if code != 0:
            tail = (logs / f"{command}.log").read_text(errors="replace").splitlines()[-3:]
            run.problems.append(f"exit code {code}: {' | '.join(tail)}")
        missing = [p for p in expected_artifacts(spec, command) if not (out / p).is_file()]
        if missing:
            run.problems.append(f"{len(missing)} artifacts missing, e.g. {missing[0]}")
        if command == "run-target" and not run.problems:
            run.problems.extend(check_comparison(out, spec["data"]["num_targets"]))
            run.problems.extend(check_oracle(out, spec))
        if run.problems:
            return rep
    expected = {p for c in SUBCOMMANDS for p in expected_artifacts(spec, c)}
    extra = sorted({p.relative_to(out).as_posix() for p in _files(out)} - expected)
    if extra:
        rep.runs[-1].problems.append(f"unexpected files in the output, e.g. {extra[0]}")
    rep.digest = tree_digest(out)
    rep.adbic_gain, rep.adbic_oracle_share = adbic_quality(out)
    if traced:
        rep.layers = layer_metrics([logs / f"{c}.spans.json" for c in SUBCOMMANDS],
                                   {run.command: run.seconds for run in rep.runs}, out)
    return rep


def measure_setup(spec_path: Path, log_dir: Path) -> tuple[list[float], list[str]]:
    """Interpreter start + ``import calib_il.cli`` + ``load_run_spec``;
    returns the probes' CPU seconds and the problems of probes that failed."""
    env = child_env()
    times, problems = [], []
    for i in range(SETUP_PROBES):
        log = log_dir / f"setup_{i}.log"
        _, cpu_s, code, _ = run_process([sys.executable, "-c", SETUP_PROBE, str(spec_path)],
                                        env, log)
        if code == 0:
            times.append(cpu_s)
        else:
            tail = log.read_text(errors="replace").splitlines()[-1:]
            problems.append(f"set-up probe exit code {code}: {' | '.join(tail)}")
    return times, problems


# ---------------------------------------------------------------------------
# traced runs: self time per span


def span_profile(spans_path: Path) -> tuple[dict, dict, dict, float]:
    """(self seconds, calls, summed extra counts) per span name, and the
    seconds covered by root spans, for one traced process."""
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    child_time = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, float] = {}
    for (name, start, end, _, extra), children in zip(spans, child_time):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - children
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            extras[f"{name}.{key}"] = extras.get(f"{name}.{key}", 0) + value
    return self_s, calls, extras, covered


def layer_metrics(span_files: list[Path], walls: dict[str, float], out: Path) -> dict:
    """Per-layer metrics of one traced repetition (all five subcommands)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, float] = {}
    covered = 0.0
    for path in span_files:
        s, c, e, cov = span_profile(path)
        for src, dst in ((s, self_s), (c, calls), (e, extras)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        covered += cov

    def sec(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def ratio(num, base):
        return num / base if base else 0.0

    files = _files(out)
    adam_steps = extras.get("calibration.fit_table.adam_steps", 0)
    sgd_steps = extras.get("backbones.run_incremental.sgd_steps", 0)
    fits = extras.get("calibration.fit_table.fits", 0)
    pipeline_s = sum(walls.values())
    metrics = {
        "calibration.fit_table.s": sec("calibration.fit_table"),
        "calibration.fit_table.calls": n("calibration.fit_table"),
        "calibration.adam_steps": adam_steps,
        "calibration.us_per_adam_step": ratio(1e6 * sec("calibration.fit_table"), adam_steps),
        "calibration.fits": fits,
        "calibration.fits_improved_ratio": ratio(
            extras.get("calibration.fit_table.fits_improved", 0), fits),
        "schedule.column_groups.calls": n("schedule.column_groups"),
        "backbones.run_incremental.s": sec("backbones.run_incremental"),
        "backbones.run_incremental.calls": n("backbones.run_incremental"),
        "backbones.sgd_steps": sgd_steps,
        "backbones.us_per_sgd_step": ratio(1e6 * sec("backbones.run_incremental"), sgd_steps),
        "pipeline.all_target_logits.calls": n("pipeline.all_target_logits"),
        "pipeline.build_all_references.s": sec("pipeline.build_all_references"),
        "pipeline.all_target_logits.s": sec("pipeline.all_target_logits"),
        "pipeline.evaluate_target.s": sec("pipeline.evaluate_target"),
        "pipeline.load_run_spec.s": sec("pipeline.load_run_spec"),
        "pipeline.other_s": pipeline_s - covered,
        "transfer.apply_transfer.s": sec("transfer.apply_transfer"),
        "transfer.apply_transfer.calls": n("transfer.apply_transfer"),
        "transfer.average_tables.s": sec("transfer.average_tables"),
        "transfer.average_tables.calls": n("transfer.average_tables"),
        "transfer.oracle_select.s": sec("transfer.oracle_select"),
        "metrics.compute_run_metrics.s": sec("metrics.compute_run_metrics"),
        "metrics.compute_run_metrics.calls": n("metrics.compute_run_metrics"),
        "synth.gen_synthetic_dataset.s": sec("synth.gen_synthetic_dataset"),
        "synth.split_states.s": sec("synth.split_states"),
        "storage.write_dataset.s": sec("storage.write_dataset"),
        "storage.write_dataset.bytes": extras.get("storage.write_dataset.bytes", 0),
        "storage.write_logits.s": sec("storage.write_logits"),
        "storage.write_logits.bytes": extras.get("storage.write_logits.bytes", 0),
        "storage.read_table.calls": n("storage.read_table"),
        "storage.read_logits.s": sec("storage.read_logits"),
        "storage.read_logits.calls": n("storage.read_logits"),
        "storage.write_table.s": sec("storage.write_table"),
        "storage.write_metrics.s": sec("storage.write_metrics"),
        "storage.out_bytes": sum(p.stat().st_size for p in files),
        "storage.out_files": len(files),
        "plots.render.s": sum(sec(f"plots.{f}") for f in
                              ("render_line_chart", "render_heat_grid", "write_svg")),
        "trace.pipeline_s": pipeline_s,
        "trace.gen_s": walls["gen"],
        "trace.run_reference_s": walls["run-reference"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                         if k.split(".", 1)[0] == layer)
    return metrics


# ---------------------------------------------------------------------------
# the run


def end_to_end(reps: list[Rep], setup: list[float]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, one per repetition (one per probe
    for set-up). Times are CPU seconds (user + system) of the subcommand
    processes and their reaped children: on a shared host the wall time of
    the same code drifted by a quarter between sets of runs 20 minutes
    apart. The CPU time drifts too, because the shared core's speed does:
    a subcommand's CPU time spread by up to 0.35 of its median over ten
    seeds, so only the sum over the five subcommands is bounded, and each
    subcommand's CPU time is printed and traced without a bound."""
    return {
        "setup_s": setup,
        "pipeline_cpu_s": [sum(run.cpu_s for run in r.runs) for r in reps],
        "peak_rss_mb": [max(run.peak_rss_mb for run in r.runs) for r in reps],
        "adbic_gain": [r.adbic_gain for r in reps],
        "adbic_oracle_share": [r.adbic_oracle_share for r in reps],
    }


def subcommand_times(reps: list[Rep]) -> dict[str, list[float]]:
    """CPU and wall seconds of each subcommand and of the whole experiment,
    one sample per untraced repetition."""
    untraced = [r for r in reps if not r.traced]
    samples = {}
    for kind, attr in (("cpu", "cpu_s"), ("wall", "seconds")):
        for command in SUBCOMMANDS:
            samples[f"{kind} {command.replace('-', '_')}_s"] = [
                getattr(r.run(command), attr) for r in untraced]
        samples[f"{kind} pipeline_s"] = [sum(getattr(run, attr) for run in r.runs)
                                         for r in untraced]
    return samples


def per_layer(reps: list[Rep]) -> dict[str, list[float]]:
    """Samples of each per-layer metric, one per traced repetition."""
    traced = [rep.layers for rep in reps if rep.traced]
    samples = {name: [layers[name] for layers in traced] for name in traced[0]}
    untraced = subcommand_times(reps)
    samples["trace.overhead_s"] = [statistics.median(samples["trace.pipeline_s"])
                                   - statistics.median(untraced["wall pipeline_s"])]
    for command in SUBCOMMANDS:
        name = command.replace("-", "_")
        samples[f"untraced.{name}_cpu_s"] = untraced[f"cpu {name}_s"]
    return samples


def summarise(values: list[float]):
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "adam_steps", "sgd_steps", "fits", "out_files"):
        return "count"
    if last in ("bytes", "out_bytes"):
        return "bytes"
    if last.startswith("us_per"):
        return "us"
    if last.endswith("_ratio"):
        return "fraction"
    return "s"


def machine_record(workload: str, seed: int) -> dict:
    record = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "cpu": "unknown",
        "python": sys.version.split()[0], "numpy": "unknown", "blas": "unknown",
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
        "commit": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "print(json.dumps([numpy.__version__, "
             "c['Build Dependencies']['blas'].get('name', 'unknown')]))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=child_env(), cwd=ROOT)
    if result.returncode == 0:
        record["numpy"], record["blas"] = json.loads(result.stdout)
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT)
        if result.returncode == 0:
            record["commit"] = result.stdout.strip()
    return record


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  work: Path) -> tuple[dict, list[Rep], list[str]]:
    """Set up, repeat experiments for ``seconds``, check and summarise.

    Returns (samples per metric, repetitions, problems); there are no
    samples when a check failed.
    """
    workload = WORKLOADS[name]
    spec = {"seed": seed, **workload.spec}
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")
    # ``seconds`` covers the set-up probes too, so that a run takes about
    # ``seconds`` whenever MIN_REPS repetitions fit in it.
    start = time.perf_counter()
    setup, problems = measure_setup(spec_path, work)

    reps: list[Rep] = []
    reps_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and (now - start) + (now - reps_start) / len(reps) > seconds:
            break
        rep_dir = work / f"rep{len(reps)}"
        rep = run_rep(spec, spec_path, workload.jobs, rep_dir, trace and len(reps) % 2 == 1)
        reps.append(rep)
        if rep.digest and rep.digest != reps[0].digest:
            rep.runs[-1].problems.append(
                f"output tree digest {rep.digest[:12]} differs from the first "
                f"repetition's {reps[0].digest[:12]}")
        for run in rep.runs:
            problems.extend(f"rep {len(reps) - 1} {run.command}: {p}" for p in run.problems)
        shutil.rmtree(rep_dir / "out")
        if problems:
            break
    if problems:
        return {}, reps, problems
    samples = per_layer(reps) if trace else end_to_end(reps, setup)
    return samples, reps, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "calib_il" / "cli.py").is_file():
        print(f"error: no calib-il sources under {SRC}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_record(args.workload, args.seed)), flush=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        samples, reps, problems = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(rep.runs) for rep in reps)
    failed = sum(1 for rep in reps for run in rep.runs if run.problems)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"reps={len(reps)} traced={sum(r.traced for r in reps)} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted if attempted else 0:.4f}")
    metrics = {name: summarise(values) for name, values in samples.items()}
    for name, value in metrics.items():
        values = samples[name]
        print(f"{name} = {value!r} {unit_of(name)} (median of {len(values)}; "
              f"min {min(values):.6g}, max {max(values):.6g})")
    if metrics:
        for name, values in subcommand_times(reps).items():
            print(f"{name} = {statistics.median(values):.6g} s "
                  f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")
    correct = not problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
