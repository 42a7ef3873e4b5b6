"""The CLI's fixed path loads no numpy and no compute module.

Start-up with a run-spec, ``--help``, a spec error and ``plot`` each run in
a fresh interpreter under ``-X importtime``, which reports every module the
process imports; none may be numpy or ``calib_il.backbones``. An in-process
test cannot check this, because pytest has loaded numpy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calib_il import cli

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"numpy", "calib_il.backbones"}

SPEC = {
    "seed": 3,
    "data": {"num_classes": 4, "feature_dim": 4, "train_per_class": 6,
             "val_per_class": 3, "test_per_class": 3,
             "num_references": 2, "num_targets": 2},
    "schedule": {"num_states": 2},
    "backbone": {"hidden_dim": 8, "epochs_initial": 3, "epochs_incremental": 2,
                 "learning_rate": 0.03},
    "sweep": {"num_samplings": 2},
}


def run_python(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """``python -X importtime *args`` with ``src`` on the path; returns the
    finished process and the names of the modules it imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, names


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A spec file and an output directory that ``run-target`` has filled."""
    root = tmp_path_factory.mktemp("start_up")
    spec_path, out = root / "spec.json", root / "out"
    spec_path.write_text(json.dumps(SPEC))
    assert cli.main(["run-target", "--spec", str(spec_path), "--out", str(out)]) == 0
    return spec_path, out


def test_start_up_and_spec_loading(finished):
    proc, names = run_python(
        "-c", "import sys, calib_il.cli; from calib_il.pipeline import load_run_spec; "
              "load_run_spec(sys.argv[1])", str(finished[0]))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "calib_il.pipeline" in names
    assert not names & HEAVY


def test_help():
    proc, names = run_python("-m", "calib_il.cli", "--help")
    assert proc.returncode == 0 and "usage: calib-il" in proc.stdout
    assert "calib_il.pipeline" in names
    assert not names & HEAVY


def test_spec_error(tmp_path):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({**SPEC, "backbone": {"kind": "replay"}}))
    proc, names = run_python("-m", "calib_il.cli", "gen", "--spec", str(spec_path),
                             "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[-1].startswith("event=error kind=spec")
    assert not names & HEAVY


def test_plot(finished):
    spec_path, out = finished
    proc, names = run_python("-m", "calib_il.cli", "plot", "--spec", str(spec_path),
                             "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-500:]
    assert len(list((out / "plots").glob("*.svg"))) == 3 * SPEC["data"]["num_targets"]
    assert "calib_il.plots" in names
    assert not names & HEAVY
