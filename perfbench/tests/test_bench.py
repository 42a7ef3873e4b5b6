"""Tests of the benchmark harness itself, on the few-second ``smoke`` workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _bench("--trace", "0")


@pytest.fixture(scope="module")
def traced():
    return _bench("--trace", "1")


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    assert untraced.returncode == 0, untraced.stderr
    result = _result(untraced.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(bench.SUBCOMMANDS)
    assert "error_rate=0.0000" in untraced.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert value > 0, name
        assert f"{name} = {value!r} {unit}" in untraced.stdout
    for command in bench.SUBCOMMANDS:
        assert f"wall {command.replace('-', '_')}_s = " in untraced.stdout


def test_every_per_layer_metric_is_printed_and_self_times_add_up(traced):
    assert traced.returncode == 0, traced.stderr
    result = _result(traced.stdout)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    layers = sum(metrics[f"{layer}.self_s"] for layer in bench.LAYERS)
    assert math.isclose(layers + metrics["pipeline.other_s"], metrics["trace.pipeline_s"],
                        rel_tol=1e-9)
    assert metrics["calibration.fit_table.calls"] == 2
    assert metrics["pipeline.all_target_logits.calls"] == 3
    assert metrics["storage.read_logits.calls"] == 0
    assert metrics["calibration.adam_steps"] > 0 and metrics["backbones.sgd_steps"] > 0


def test_machine_and_inputs_are_recorded(untraced):
    line = next(l for l in untraced.stdout.splitlines() if l.startswith("machine "))
    record = json.loads(line[len("machine "):])
    for key in ("nproc", "cpu", "python", "numpy", "blas", "OPENBLAS_NUM_THREADS",
                "seed", "held_out_seed", "commit"):
        assert key in record
    assert record["seed"] == 3


def _corrupt_after(monkeypatch, command: str, rep: str, corrupt):
    """Run ``corrupt(out_dir)`` after ``command`` finishes in repetition ``rep``."""
    real = bench.run_process

    def run_process(argv, env, log_path):
        outcome = real(argv, env, log_path)
        if command in argv and f"/{rep}/" in argv[argv.index("--out") + 1] + "/":
            corrupt(Path(argv[argv.index("--out") + 1]))
        return outcome

    monkeypatch.setattr(bench, "run_process", run_process)


def _flip_first_adbic_gain(out: Path):
    path = out / "comparison.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if ",adbic," in line)
    target, method, acc, gain = lines[i].split(",")
    lines[i] = f"{target},{method},{acc},{-float(gain)!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _lower_first_oracle_state(out: Path):
    """The oracle equals the best single table exactly; anything below it fails."""
    path = out / "per_state.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if ",oracle,2," in line)
    target, method, state, acc = lines[i].split(",")
    lines[i] = f"{target},{method},{state},{float(acc) - 1e-9!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _append_to_sweep(out: Path):
    with open(out / "sweep.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")


@pytest.mark.parametrize("command, rep, corrupt, failing", [
    ("run-target", "rep0", _flip_first_adbic_gain, "run-target"),
    ("run-target", "rep1", _lower_first_oracle_state, "run-target"),
    ("plot", "rep1", _append_to_sweep, "plot"),
])
def test_a_corrupted_output_fails_the_run(monkeypatch, capsys, command, rep, corrupt,
                                          failing):
    _corrupt_after(monkeypatch, command, rep, corrupt)
    code = bench.main(["--workload", "smoke", "--seed", "3", "--seconds", "1"])
    out = capsys.readouterr()
    result = _result(out.out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert f"error_rate={1 / result['attempted']:.4f}" in out.out
    assert f" {failing}: " in out.err


def test_comparison_check_reads_gains(tmp_path):
    (tmp_path / "comparison.csv").write_text(
        "target,method,avg_incremental_accuracy,gain\n"
        "target_0,raw,0.4,0.0\ntarget_0,adbic,0.6,0.2\ntarget_0,oracle,0.59,0.19\n"
        "target_1,raw,0.5,0.0\ntarget_1,adbic,0.5,0.0\ntarget_1,oracle,0.6,0.1\n",
        encoding="utf-8")
    # adbic above the oracle (target_0) is allowed: the oracle only bounds
    # single reference tables, and the averaged table can beat each of them.
    problems = bench.check_comparison(tmp_path, num_targets=2)
    assert len(problems) == 1
    assert "target_1: adbic gain" in problems[0]
    gain, share = bench.adbic_quality(tmp_path)
    assert gain == 0.1 and math.isclose(share, 0.2 / 0.29)


def test_self_time_subtracts_child_spans(tmp_path):
    t = tracer.Tracer("unit")
    inner = t.wrap(lambda: sum(range(10_000)), "b.inner")
    outer = t.wrap(lambda: inner() + inner(), "a.outer")
    outer()
    t.dump(tmp_path / "spans.json")
    self_s, calls, _, covered = bench.span_profile(tmp_path / "spans.json")
    (_, o_start, o_end, _, _), first, second = t.spans
    assert calls == {"a.outer": 1, "b.inner": 2}
    assert covered == o_end - o_start
    inner_total = (first[2] - first[1]) + (second[2] - second[1])
    assert math.isclose(self_s["a.outer"], covered - inner_total)
    assert math.isclose(self_s["a.outer"] + self_s["b.inner"], covered)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
