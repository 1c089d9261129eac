"""Command line interface: one subcommand per experiment pipeline.

Each subcommand loads a JSON config (or starts from the package defaults),
forces the experiment kind to match the subcommand, runs the pipeline, and
prints the summary JSON to stdout.  Failures print a machine-readable error
object to stderr and exit nonzero (2 for config problems, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .config import EXPERIMENT_KINDS, ExperimentConfig
from .errors import BlochpacketError, ConfigError
from .experiments import RUNNERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochpacket",
        description="Semiclassical wave-packet experiments on periodic potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT_KINDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", help="path to a JSON experiment config")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument("--verbose", action="store_true", help="log progress to stderr")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
    else:
        config = ExperimentConfig()
    updates = {"kind": args.command}
    if args.out:
        updates["output_dir"] = args.out
    return replace(config, **updates)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    try:
        config = _load_config(args)
        summary = RUNNERS[config.kind](config)
    except (BlochpacketError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ConfigError) else 1
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
