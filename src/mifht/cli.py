"""Command-line entry point: ``mifht <command> --problem FILE [options]``.

Exit codes: 0 ok, 2 schema (or a t-grid beyond the inverse-map range), 3
geometry, 4 degenerate theta, 5 range violation, 6 near-singular, 7
convergence, 1 any other package error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    DegenerateDiagonalError,
    DomainError,
    MifhtError,
    NearSingularError,
    NonFiniteError,
    OverlapError,
    RangeError,
    RangeExceededError,
    RangeViolationError,
    SchemaError,
)

EXIT_CODES = (
    ((SchemaError, RangeExceededError), 2),
    ((OverlapError, NonFiniteError, DomainError), 3),
    (DegenerateDiagonalError, 4),
    ((RangeError, RangeViolationError), 5),
    (NearSingularError, 6),
    (ConvergenceError, 7),
)


def build_parser():
    from .problems import COMMANDS

    parser = argparse.ArgumentParser(
        prog="mifht",
        description="vector multi-interval finite Hilbert transform toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--problem", required=True, help="problem file path")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--modes", type=int, default=None)
    parser.add_argument("--nystrom", type=int, default=None)
    parser.add_argument("--tmax", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--lambda", dest="lam", default=None,
                        metavar="RE,IM", help="spectral parameter")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .problems import parse_lambda, parse_problem, run_command, write_bundle

    try:
        try:
            text = Path(args.problem).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read problem file {args.problem!r}: {exc}") from None
        spec = parse_problem(text)
        spec.command = args.command
        for key in ("modes", "nystrom", "tmax", "tol"):
            val = getattr(args, key)
            if val is not None:
                spec.params[key] = val
        if args.lam is not None:
            spec.params["lambda"] = parse_lambda(args.lam)
        bundle = run_command(spec)
    except MifhtError as err:
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return next((code for exc, code in EXIT_CODES if isinstance(err, exc)), 1)

    if args.output:
        outdir = write_bundle(bundle, args.output)
        print(f"wrote {outdir}/diagnostics.json"
              + (f" and {len(bundle.tables)} table(s)" if bundle.tables else ""))
    else:
        print(bundle.to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
