"""The run-spec: one validated description of an experiment.

One JSON run-spec file describes an experiment: synthetic data family,
incremental schedule, backbone, calibration settings and sweep grid.
``load_run_spec`` reads and validates it into a ``RunSpec``, the one
source of a run's shape: the flows in ``flows`` and ``plots.cmd_plot``
regenerate everything they need from it, and every file they read back
is checked against it. So each subcommand is deterministic in isolation
and reruns are byte-identical.

Reference datasets keep a validation memory and produce one fitted
calibration table each; targets are memoryless and receive the averaged
table. Dataset seeds are derived as ``seed*1000 + i`` for reference i and
``seed*1000 + 500 + j`` for target j, which keeps them disjoint for any
R, T <= 500.

Every table JSON and logits sidecar records ``spec_fingerprint`` of the
spec that made it, which decides whether a later command may reuse it.

This module imports no numpy and no compute module, so every CLI call
validates its spec, and reports a bad one, without loading either.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .config import SCHEMA_VERSION, BackboneConfig, CalibConfig, SynthSpec, load_json, read_fields
from .errors import SpecError
from .schedule import StateSchedule

METHODS = ("raw", "bic", "adbic", "oracle")

# Most features one dataset, or weights one model, may hold (4 GiB of
# float64): a spec past it is refused before any array, or the schedule's
# per-state tuple, is built.
MAX_DATASET_FLOATS = 2**29

# Types of the keys no dataclass declares; the data, backbone and
# calibration keys take theirs from SynthSpec, BackboneConfig and CalibConfig.
# "name" is a free label for the spec's reader: type-checked, then dropped.
_TOP_TYPES = {"seed": "int", "name": "str", "data": "dict", "schedule": "dict",
              "backbone": "dict", "calibration": "dict", "sweep": "dict"}
_COUNT_TYPES = {"num_references": "int", "num_targets": "int"}
_SCHEDULE_TYPES = {"num_states": "int", "classes_per_state": "list[int]"}
_SWEEP_TYPES = {"r_values": "list[int]", "num_samplings": "int", "halved": "bool"}


def kv(**fields) -> str:
    """Render one key=value log record. Floats use round-trip formatting.
    Any other value whose text holds whitespace, '=' or a quote is written
    as the ``repr`` of that text: a Python string literal, which
    ``ast.literal_eval`` reads back, so it cannot pass for two fields."""
    return " ".join(f"{key}={_render(value)}" for key, value in fields.items())


def _render(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    return repr(text) if any(c.isspace() or c in "='\"" for c in text) else text


@dataclass(frozen=True)
class RunSpec:
    """A fully validated experiment description."""

    seed: int
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


def load_run_spec(path) -> RunSpec:
    """Parse and validate a JSON run-spec file."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"run-spec file {path} does not exist")
    raw = load_json(path, "run-spec", lambda message: SpecError(f"{path}: {message}"))
    return parse_run_spec(raw)


def parse_run_spec(raw: dict) -> RunSpec:
    top = read_fields(raw, "run-spec", _TOP_TYPES)
    if "seed" not in top:
        raise SpecError("run-spec must state a seed")
    seed = top["seed"]
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
    if backbone.hidden_dim * (synth.feature_dim + synth.num_classes) > MAX_DATASET_FLOATS:
        raise SpecError(f"a model of {backbone.hidden_dim} hidden units x ({synth.feature_dim} "
                        f"features + {synth.num_classes} classes) exceeds "
                        f"{MAX_DATASET_FLOATS} floats")
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
    if not r_values:
        raise SpecError("sweep r_values must name at least one reference count")
    if len(set(r_values)) != len(r_values) or any(r < 1 for r in r_values):
        raise SpecError("sweep r_values must be distinct positive integers")
    if any(r > num_references for r in r_values):
        raise SpecError(
            f"sweep r_values {r_values} exceed the {num_references} available references")
    if num_samplings < 1:
        raise SpecError("sweep num_samplings must be >= 1")

    return RunSpec(seed=seed, synth=synth, num_references=num_references,
                   num_targets=num_targets, schedule=schedule, backbone=backbone,
                   calibration=calibration, sweep_r_values=r_values,
                   sweep_samplings=num_samplings, sweep_halved=sweep.get("halved", True))


def spec_fingerprint(spec: RunSpec, calibration: bool = False) -> str:
    """SHA-256 of the canonical JSON of the validated spec sections that
    determine an artifact: schema version, seed, synthetic data, schedule
    and backbone, plus the calibration penalties when ``calibration`` (for
    tables). The sweep grid and the reference and target counts change no
    artifact, so they are left out."""
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
