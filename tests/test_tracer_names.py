"""The benchmark tracer wraps package functions by module-attribute name.

A name the package no longer defines is skipped silently, and the
per-layer metrics built on it then read 0. This test pins the set of such
stale names, so that a rename in the package fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names the pipeline stopped calling before the tracer moved to the stacked
# entry points (see ROADMAP item 1); pipeline._atomic_write, whose writes
# now go through storage.write_rows and storage.write_svg; and
# pipeline.split_states, gone because each dataset is drawn on the run's
# schedule and only synth.StackedSets cuts it into states.
STALE = {"pipeline.run_incremental", "pipeline.fit_table", "transfer.softmax",
         "pipeline._atomic_write", "pipeline.split_states"}


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
