"""The benchmark tracer wraps package functions by module-attribute name.

A name the package no longer defines is skipped silently, and the
per-layer metrics built on it then read 0. This test pins the set of such
stale names, so that a rename in the package fails here instead.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# Names the pipeline stopped calling before the tracer moved to the stacked
# entry points (see ROADMAP item 1); pipeline._atomic_write, whose writes
# now go through storage.write_rows and storage.write_svg;
# pipeline.split_states, gone because each dataset is drawn on the run's
# schedule and only synth.StackedSets cuts it into states; and the
# whole-run helpers gone since each trained state is streamed to its writer,
# fit and scorer: pipeline.all_target_logits and pipeline.evaluate_target
# (now flows._stacks, which scores each state as it is trained),
# pipeline.apply_transfer and pipeline.oracle_select (now one per-state
# transfer.score_state), and transfer.compute_run_metrics (the rows build
# a RunMetrics with RunMetrics.from_rows); and pipeline.gen_synthetic_dataset
# and pipeline.halve_train_split, gone since each dataset is drawn one state
# at a time (flows.make_dataset returns synth.draw_states's per-state
# draw, which halves each state's block itself). Then the names that left
# cli and pipeline when the CLI's start-up stopped loading numpy: cli
# imports each cmd_* only when it runs it (cmd_plot from plots, the rest
# from flows), pipeline keeps only the run-spec, and the flows that read,
# write, train, average and render now live in flows and plots. Then the
# names transfer imported from calibration and metrics, gone since
# transfer.score_state applies each candidate table and counts its hits
# itself: transfer.apply_table, transfer.per_state_accuracy and
# transfer.predict.
STALE = {"pipeline.run_incremental", "pipeline.fit_table", "transfer.softmax",
         "pipeline._atomic_write", "pipeline.split_states",
         "pipeline.all_target_logits", "pipeline.evaluate_target", "pipeline.apply_transfer",
         "pipeline.oracle_select", "transfer.compute_run_metrics",
         "pipeline.gen_synthetic_dataset", "pipeline.halve_train_split",
         "cli.cmd_gen", "cli.cmd_run_reference", "cli.cmd_run_target", "cli.cmd_sweep",
         "cli.cmd_plot", "pipeline.build_all_references", "pipeline.average_tables",
         "pipeline.write_dataset", "pipeline.write_logits", "pipeline.write_table",
         "pipeline.write_metrics", "pipeline.read_table", "pipeline.read_logits",
         "pipeline.read_metrics_rows", "pipeline.render_line_chart",
         "pipeline.render_heat_grid", "pipeline.write_svg", "transfer.apply_table",
         "transfer.per_state_accuracy", "transfer.predict"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists_or_is_known_stale():
    missing = {f"{module}.{attr}"
               for module, attr, _, _ in load_tracer().BOUNDARIES
               if not hasattr(importlib.import_module(f"calib_il.{module}"), attr)}
    assert missing <= STALE, f"the tracer wraps names the package lost: {missing - STALE}"


def test_install_wraps_the_package_without_error():
    """``install`` also rebinds ``StateSchedule.column_groups`` with no
    guard, so a rename of that method would fail every traced subcommand.
    It runs in a child process, because it rebinds package names."""
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1]); "
            "tracer = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(tracer); tracer.install(tracer.Tracer('probe'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
