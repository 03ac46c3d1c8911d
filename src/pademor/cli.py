"""Command-line entry point: pade-mor build|sweep|convergence|poles|compare.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures.
"""

import argparse
import sys

from . import harness
from .errors import ConfigError, PadeError

COMMANDS = {
    "build": harness.cmd_build,
    "sweep": harness.cmd_sweep,
    "convergence": harness.cmd_convergence,
    "poles": harness.cmd_poles,
    "compare": harness.cmd_compare,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="pade-mor",
        description="Least-squares Pade approximation studies for meromorphic "
        "resolvent maps",
    )
    parser.add_argument("command", choices=COMMANDS, help="the study to run")
    parser.add_argument("--config", required=True, help="study config (JSON)")
    parser.add_argument("--out", required=True, help="output file (CSV or JSON)")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        config = harness.load_config(args.config)
        COMMANDS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PadeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
