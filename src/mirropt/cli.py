"""Command line entry point.

``solve --config <file.json> [--out-dir <dir>] [--check-bounds]`` runs one
experiment; ``rates --trace <file.csv> --column <name>`` fits the empirical
log-log convergence slope of a recorded trace.

Exit codes: 0 ok, 1 I/O error, 2 invalid config, 3 theorem-bound violation,
4 the run failed (a solver raised RuntimeError, or memory ran out).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bench import fit_rate, run_experiment
from .report import TRACE_COLUMNS

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BOUND = 3
EXIT_RUN = 4


def _cmd_solve(args):
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out_dir if args.out_dir is not None else path.parent
    try:
        # a failed run reports one line: the solvers' non-finite guards
        # raise, so numpy's floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            code, summary = run_experiment(config, out_dir=out_dir,
                                           check_bounds=args.check_bounds,
                                           stem=path.stem)
    except ValueError as exc:
        # a ConfigError, or a size or parameter a generator or solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, MemoryError) as exc:
        print(f"error: the run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    print(json.dumps(summary, sort_keys=True, indent=2, allow_nan=False))
    if code == EXIT_BOUND:
        print("error: theorem bound violated", file=sys.stderr)
    return code


def _cmd_rates(args):
    try:
        with open(args.trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_IO
    if not rows or args.column not in rows[0]:
        print(f"error: column '{args.column}' not in trace; available: "
              + ", ".join(TRACE_COLUMNS), file=sys.stderr)
        return EXIT_CONFIG
    try:
        k = np.array([float(r["k"]) for r in rows])
        vals = np.array([float(r[args.column]) for r in rows])
        slope = fit_rate(k, vals)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{slope:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mirropt",
        description="benchmark runner for the subgradient method family")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one experiment config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out-dir", default=None)
    p_solve.add_argument("--check-bounds", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_rates = sub.add_parser("rates", help="fit a log-log convergence slope")
    p_rates.add_argument("--trace", required=True)
    p_rates.add_argument("--column", required=True)
    p_rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
