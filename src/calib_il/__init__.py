"""Memoryless class-incremental learning workbench with transferable
prediction-bias correction.

Fit per-state affine score corrections on reference runs that keep a
validation memory, average them, and transfer the averaged table to
memoryless target runs.
"""

from .backbones import (BackboneConfig, Model, extract_logits, run_incremental,
                        run_incremental_stack, train_initial, update_ftplus,
                        update_lucir_lite, update_lwf, update_siw, update_state)
from .calibration import (CalibConfig, CalibrationTable, StateFit, apply_bic,
                          apply_table, cross_entropy, fit_state_pairs,
                          fit_table, fit_tables, loss_gradient, regularized_loss,
                          softmax)
from .errors import (CalibILError, DataFileError, DataValidationError,
                     MetadataError, NumericError, SchemaError, SpecError)
from .logits import StateLogits
from .metrics import (RunMetrics, accuracy_matrix, avg_incremental_accuracy,
                      compute_run_metrics, mean_scores_by_group,
                      per_state_accuracy, predict)
from .schedule import StateSchedule
from .storage import (read_dataset, read_logits, read_metrics_rows, read_table,
                      write_dataset, write_logits, write_metrics, write_table)
from .synth import (IncrementalDataset, SynthSpec, gen_synthetic_dataset,
                    halve_train_split, split_states)
from .transfer import (OracleResult, TransferResult, apply_transfer,
                       average_tables, oracle_select, param_count)

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig", "Model", "extract_logits", "run_incremental",
    "run_incremental_stack", "train_initial", "update_ftplus",
    "update_lucir_lite", "update_lwf", "update_siw", "update_state",
    "CalibConfig", "CalibrationTable", "StateFit", "apply_bic", "apply_table",
    "cross_entropy", "fit_state_pairs", "fit_table", "fit_tables",
    "loss_gradient", "regularized_loss", "softmax",
    "CalibILError", "DataFileError", "DataValidationError", "MetadataError",
    "NumericError", "SchemaError", "SpecError",
    "StateLogits", "StateSchedule",
    "RunMetrics", "accuracy_matrix", "avg_incremental_accuracy",
    "compute_run_metrics", "mean_scores_by_group", "per_state_accuracy",
    "predict",
    "read_dataset", "read_logits", "read_metrics_rows", "read_table",
    "write_dataset", "write_logits", "write_metrics", "write_table",
    "IncrementalDataset", "SynthSpec", "gen_synthetic_dataset",
    "halve_train_split", "split_states",
    "OracleResult", "TransferResult", "apply_transfer", "average_tables",
    "oracle_select", "param_count",
    "__version__",
]
