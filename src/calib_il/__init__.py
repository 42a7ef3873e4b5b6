"""Memoryless class-incremental learning workbench with transferable
prediction-bias correction.

Fit per-state affine score corrections on reference runs that keep a
validation memory, average them, and transfer the averaged table to
memoryless target runs.
"""

from .backbones import (BackboneConfig, Model, run_incremental_stack,
                        train_initial, update_state)
from .calibration import (CalibConfig, CalibrationTable, StateFit, apply_bic,
                          apply_table, fit_state, loss_gradient,
                          regularized_loss, softmax)
from .errors import (CalibILError, DataFileError, MetadataError, NumericError,
                     SchemaError, SpecError)
from .logits import StateLogits
from .metrics import (RunMetrics, avg_incremental_accuracy,
                      compute_run_metrics, mean_scores_by_group,
                      per_state_accuracy, predict)
from .schedule import StateSchedule
from .storage import (read_dataset, read_logits, read_metrics_rows, read_table,
                      write_dataset, write_logits, write_metrics, write_table)
from .synth import (IncrementalDataset, StateDraw, SynthSpec, draw_states,
                    gen_synthetic_dataset)
from .transfer import average_tables, param_count, score_state

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig", "Model", "run_incremental_stack", "train_initial",
    "update_state",
    "CalibConfig", "CalibrationTable", "StateFit", "apply_bic", "apply_table",
    "fit_state", "loss_gradient", "regularized_loss", "softmax",
    "CalibILError", "DataFileError", "MetadataError", "NumericError",
    "SchemaError", "SpecError",
    "StateLogits", "StateSchedule",
    "RunMetrics", "avg_incremental_accuracy",
    "compute_run_metrics", "mean_scores_by_group", "per_state_accuracy",
    "predict",
    "read_dataset", "read_logits", "read_metrics_rows", "read_table",
    "write_dataset", "write_logits", "write_metrics", "write_table",
    "IncrementalDataset", "StateDraw", "SynthSpec", "draw_states",
    "gen_synthetic_dataset",
    "average_tables", "param_count", "score_state",
    "__version__",
]
