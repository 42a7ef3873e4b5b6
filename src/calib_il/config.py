"""The run-spec's value types and the one typed reader of JSON values.

``SynthSpec``, ``BackboneConfig`` and ``CalibConfig`` are the data,
backbone and calibration sections of a run-spec; their fields declare the
keys, types and defaults those sections take. ``read_fields`` reads a JSON
object by such declared types, for run-specs and for the table and sidecar
artifacts alike. The module needs no numpy, so parsing a spec, and every
CLI call's start-up, loads none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import SpecError

SCHEMA_VERSION = 2

KINDS = ("ftplus", "siw", "lwf", "lucir_lite")

_EXACT_TYPES = {"int": int, "bool": bool, "str": str, "dict": dict}
_FLOAT_MAX = 1.7976931348623157e308


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs for one synthetic dataset."""

    num_classes: int
    feature_dim: int
    train_per_class: int = 40
    val_per_class: int = 10
    test_per_class: int = 10
    center_scale: float = 1.0
    noise_scale: float = 1.0
    drift_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.num_classes,
            self.feature_dim,
            self.train_per_class,
            self.val_per_class,
            self.test_per_class,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all class/dim/sample counts must be >= 1")
        if self.center_scale <= 0:
            raise ValueError("center_scale must be > 0")
        if self.noise_scale < 0 or self.drift_scale < 0:
            raise ValueError("noise_scale and drift_scale must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class BackboneConfig:
    kind: str = "ftplus"
    hidden_dim: int = 64
    epochs_initial: int = 60
    epochs_incremental: int = 30
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    distill_temperature: float = 2.0
    distill_weight: float = 1.0
    lucir_lambda_base: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown backbone kind {self.kind!r}; expected one of {KINDS}")
        if self.hidden_dim < 1 or self.batch_size < 1:
            raise SpecError("hidden_dim and batch_size must be >= 1")
        if self.kind == "siw" and self.hidden_dim < 2:
            raise SpecError("siw standardizes over hidden units and needs hidden_dim >= 2")
        if self.epochs_initial < 1 or self.epochs_incremental < 0:
            raise SpecError("epochs_initial must be >= 1 and epochs_incremental >= 0")
        if self.learning_rate <= 0 or self.distill_temperature <= 0:
            raise SpecError("learning_rate and distill_temperature must be > 0")
        if not 0 <= self.momentum < 1:
            raise SpecError("momentum must be in [0, 1)")
        if self.weight_decay < 0 or self.distill_weight < 0 or self.lucir_lambda_base < 0:
            raise SpecError("weight_decay, distill_weight and lambda_base must be >= 0")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")


@dataclass(frozen=True)
class CalibConfig:
    """Penalty weights of the calibration objective."""

    l2_alpha: float = 5e-3
    l2_beta: float = 5e-2

    def __post_init__(self):
        if not (0 <= self.l2_alpha < math.inf and 0 <= self.l2_beta < math.inf):
            raise ValueError("L2 penalties must be finite and >= 0")


# ---------------------------------------------------------------------------
# typed JSON values


def _coerce(kind: str, value, where: str, error):
    if kind.startswith("list[") and type(value) is list:
        return tuple(_coerce(kind[5:-1], item, f"{where}[{i}]", error)
                     for i, item in enumerate(value))
    if kind == "int" and type(value) is float and value.is_integer():
        return int(value)
    # NaN fails both comparisons, and so does an int past the float range.
    if kind == "float" and type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    if type(value) is _EXACT_TYPES.get(kind):
        return value
    raise error(f"{where} must be {kind}, got {value!r}")


def read_fields(section: dict, where: str, types: dict[str, str], error=SpecError,
                required=()) -> dict:
    """``section`` with each value read as its type in ``types``: an int is
    an integer or an integral number, a float any finite number (so ``1``
    and ``1.0`` are one value), a bool, str or dict only itself, and a
    ``list[...]`` an array of such items, read as a tuple. Keys outside
    ``types`` and missing ``required`` keys raise ``error(message)`` too."""
    unknown = sorted(section.keys() - types)
    if unknown:
        raise error(f"unknown keys {unknown} in {where}; allowed: {sorted(types)}")
    missing = sorted(set(required) - section.keys())
    if missing:
        raise error(f"malformed {where}: missing keys {missing}")
    return {key: _coerce(types[key], value, f"{where}.{key}", error)
            for key, value in section.items()}


def load_json(path, what: str, error) -> dict:
    """The JSON object in file ``path``; a missing, unreadable or invalid
    file, or another root, raises ``error(message)``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise error(f"missing {what} file") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise error(f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"unreadable {what} file: {exc}") from exc
    if type(payload) is not dict:
        raise error(f"{what} root must be a JSON object")
    return payload
