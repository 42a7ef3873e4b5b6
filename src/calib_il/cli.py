"""Command-line entry point.

Everything an experiment needs lives in one JSON run-spec file, which
every subcommand requires; flags only carry paths and parallelism. Exit
codes: 0 success, 2 run-spec or argument problems, 3 data-file problems,
4 numeric failures.

Start-up loads only the argument parser and the numpy-free run-spec
reader; ``main`` imports the one subcommand it runs once the spec is
read, so ``--help``, a spec error and ``plot`` never load numpy.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import DataFileError, NumericError, SpecError
from .pipeline import kv, load_run_spec

log = logging.getLogger("calib_il")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are spec errors: a bad or missing
    argument exits 2 with an ``event=error`` line like any bad input.
    ``--help`` still prints its usage and exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="calib-il",
        description=(
            "Memoryless class-incremental learning workbench with "
            "transferable prediction-bias correction."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen": "generate the reference and target datasets",
        "run-reference": "train references and fit their calibration tables",
        "run-target": "train targets and compare raw/bic/adbic/oracle",
        "sweep": "ablation over reference count plus halved-data protocol",
        "plot": "render SVG charts from the metrics CSVs",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="JSON run-spec file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    try:
        args = build_parser().parse_args(argv)
        if args.jobs < 1:
            raise SpecError("--jobs must be >= 1")
        spec = load_run_spec(args.spec)
        if args.command == "gen":
            from .flows import cmd_gen
            cmd_gen(spec, args.out)
        elif args.command == "run-reference":
            from .flows import cmd_run_reference
            cmd_run_reference(spec, args.out, jobs=args.jobs)
        elif args.command == "run-target":
            from .flows import cmd_run_target
            cmd_run_target(spec, args.out, jobs=args.jobs)
        elif args.command == "sweep":
            from .flows import cmd_sweep
            cmd_sweep(spec, args.out, jobs=args.jobs)
        elif args.command == "plot":
            from .plots import cmd_plot
            cmd_plot(spec, args.out)
    except (SpecError, DataFileError, NumericError) as exc:
        log.error(kv(event="error", kind=exc.kind, message=str(exc)))
        return exc.exit_code
    log.info(kv(event="done", command=args.command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
