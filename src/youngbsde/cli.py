"""Command-line experiment runner.

Subcommands:
  run           execute one experiment from a flat key=value config file
  hurst-region  emit the admissible Hurst-parameter region as CSV
  acceptance    run the curated acceptance suite with pinned seeds/budgets

A run's worker count is its config's `workers`: `run --workers N`, else the
config file, else 1.

Exit codes: 0 success; 2 config error; 3 precondition violation; 4 numerical
failure; 5 non-convergence with outputs written.  Every failure also prints
one structured JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigError, DomainError, NumericalError, ResourceError
from .experiments import run_experiment
from .manifest import PhaseTimer, utc_now, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_NONCONVERGED = 5


def _fail(kind: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "message": str(exc), "exit": code}) + "\n")
    return code


def _run_config(out, **source) -> int:
    """Parse a config from parse_config's keywords, run it into `out` and
    write its manifest; OSError is a config error only while reading the
    config or creating `out`, both before any compute."""
    timer = PhaseTimer()
    started = utc_now()
    try:
        timer.start("configure")
        config = parse_config(**source)
        Path(out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        return _fail("config", exc, EXIT_CONFIG)
    try:
        timer.start("compute")
        result = run_experiment(config, out)
        timer.start("write")
        write_manifest(out, config.echo(), result.files, timer, started)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except DomainError as exc:
        return _fail("precondition", exc, EXIT_PRECONDITION)
    except (NumericalError, ResourceError) as exc:
        return _fail("numerical", exc, EXIT_NUMERICAL)
    if not result.converged:
        sys.stderr.write(json.dumps(
            {"error": "non-convergence", "message":
             "outputs written; convergence flag false", "exit":
             EXIT_NONCONVERGED}) + "\n")
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_run(args) -> int:
    overrides = list(args.override or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"workers={args.workers}")
    return _run_config(args.out, path=args.config, overrides=overrides)


def _cmd_hurst_region(args) -> int:
    return _run_config(args.out, text=f"kind = hurst-region\nd = {args.d}\n"
                                      f"resolution = {args.resolution}\n")


def _cmd_acceptance(args) -> int:
    from .acceptance import run_acceptance

    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    try:
        report = run_acceptance(selector=args.select, out_dir=args.out)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngbsde",
        description="Experiment runner for nonlinear Young calculus, "
                    "localized backward equations, and Feynman-Kac solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="override the config's worker count (default 1)")
    p_run.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, repeatable")
    p_run.set_defaults(func=_cmd_run)

    p_h = sub.add_parser("hurst-region",
                         help="emit the admissible (H, H0) region as CSV")
    p_h.add_argument("--d", type=int, default=1, help="spatial dimension")
    p_h.add_argument("--resolution", type=int, default=101)
    p_h.add_argument("--out", default="out")
    p_h.set_defaults(func=_cmd_hurst_region)

    p_a = sub.add_parser("acceptance", help="run the acceptance suite")
    p_a.add_argument("--select", default="",
                     help="criterion substring filter, or 'fast'")
    p_a.add_argument("--out", default="acceptance-out")
    p_a.set_defaults(func=_cmd_acceptance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
