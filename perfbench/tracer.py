"""Run one calib-il CLI subcommand with spans around every layer boundary.

Usage::

    python3 perfbench/tracer.py SPANS.json RUN_ID <calib-il arguments...>

The pipeline imports functions by name, so each wrapper replaces the name
its caller looks up (``pipeline.fit_table``, ``transfer.compute_run_metrics``,
``StateSchedule.column_groups``) rather than the defining module's copy.
Spans (name, start, end, parent span, extra counts) stay in memory and are
written once, to SPANS.json, after the subcommand returns. Nothing under
``src/`` changes and nothing is written into the CLI's output directory.

Spans inside ``--jobs`` pool workers are not collected: a worker's spans
die with the worker, so a parallel run shows its work as time spent in the
``pipeline.*`` span that waits on the pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # Each record: [name, start, end, parent index or -1, extra dict or None].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, extra=None):
        """Return ``fn`` wrapped in a span; ``extra(args, kwargs, result)``
        may return a dict of counts, computed after the span has closed."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if extra is not None:
                record[4] = extra(args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}),
                        encoding="utf-8")


def _written_bytes(args, kwargs, result) -> dict:
    """Size of the file a storage writer produced, sidecar included."""
    path = Path(args[0] if args else kwargs["path"])
    total = path.stat().st_size
    sidecar = Path(str(path) + ".meta.json")
    if sidecar.exists():
        total += sidecar.stat().st_size
    return {"bytes": total}


def _fit_counts(args, kwargs, result) -> dict:
    """Adam steps the fit takes (epochs x batches per state, from the
    validation shapes) and how many state fits ended below their
    identity-initialised loss."""
    per_state, config = args[0], args[1]
    steps = sum(config.epochs * math.ceil(len(lg.labels) / config.batch_size)
                for lg in per_state)
    _, fits = result
    improved = sum(1 for fit in fits if fit.final_loss < fit.initial_loss)
    return {"adam_steps": steps, "fits": len(fits), "fits_improved": improved}


def _sgd_counts(args, kwargs, result) -> dict:
    """SGD steps of one incremental run, from the training-set shapes."""
    config, split = args[0], args[1]
    steps = 0
    for view in split.views:
        epochs = config.epochs_initial if view.state == 1 else config.epochs_incremental
        steps += epochs * math.ceil(len(view.train_y) / config.batch_size)
    return {"sgd_steps": steps}


# (module, attribute looked up by the caller, span name, extra counts)
BOUNDARIES = (
    ("cli", "load_run_spec", "pipeline.load_run_spec", None),
    ("cli", "cmd_gen", "pipeline.cmd_gen", None),
    ("cli", "cmd_run_reference", "pipeline.cmd_run_reference", None),
    ("cli", "cmd_run_target", "pipeline.cmd_run_target", None),
    ("cli", "cmd_sweep", "pipeline.cmd_sweep", None),
    ("cli", "cmd_plot", "pipeline.cmd_plot", None),
    ("pipeline", "build_all_references", "pipeline.build_all_references", None),
    ("pipeline", "all_target_logits", "pipeline.all_target_logits", None),
    ("pipeline", "evaluate_target", "pipeline.evaluate_target", None),
    ("pipeline", "gen_synthetic_dataset", "synth.gen_synthetic_dataset", None),
    ("pipeline", "split_states", "synth.split_states", None),
    ("pipeline", "halve_train_split", "synth.halve_train_split", None),
    ("pipeline", "run_incremental", "backbones.run_incremental", _sgd_counts),
    ("pipeline", "fit_table", "calibration.fit_table", _fit_counts),
    ("pipeline", "apply_transfer", "transfer.apply_transfer", None),
    ("pipeline", "average_tables", "transfer.average_tables", None),
    ("pipeline", "oracle_select", "transfer.oracle_select", None),
    ("pipeline", "write_dataset", "storage.write_dataset", _written_bytes),
    ("pipeline", "write_logits", "storage.write_logits", _written_bytes),
    ("pipeline", "write_table", "storage.write_table", _written_bytes),
    ("pipeline", "write_metrics", "storage.write_metrics", _written_bytes),
    ("pipeline", "_atomic_write", "storage._atomic_write", _written_bytes),
    ("pipeline", "read_table", "storage.read_table", None),
    ("pipeline", "read_logits", "storage.read_logits", None),
    ("pipeline", "read_metrics_rows", "storage.read_metrics_rows", None),
    ("pipeline", "render_line_chart", "plots.render_line_chart", None),
    ("pipeline", "render_heat_grid", "plots.render_heat_grid", None),
    ("pipeline", "write_svg", "plots.write_svg", None),
    ("transfer", "apply_table", "calibration.apply_table", None),
    ("transfer", "softmax", "calibration.softmax", None),
    ("transfer", "compute_run_metrics", "metrics.compute_run_metrics", None),
    ("transfer", "per_state_accuracy", "metrics.per_state_accuracy", None),
    ("transfer", "predict", "metrics.predict", None),
)


def install(tracer: Tracer) -> None:
    """Replace every boundary the package still has with a traced wrapper.

    A name the package no longer defines (or does not define yet, such as
    ``pipeline.read_logits``) is skipped; its metrics then read 0.
    """
    from calib_il.schedule import StateSchedule

    for module_name, attr, span, extra in BOUNDARIES:
        module = importlib.import_module(f"calib_il.{module_name}")
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(fn, span, extra))
    StateSchedule.column_groups = tracer.wrap(StateSchedule.column_groups,
                                              "schedule.column_groups")


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_argv = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    from calib_il import cli

    code = cli.main(cli_argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
