"""Command-line entry point: ``mifht <command> --problem FILE [options]``.

Exit codes: 0 ok, 2 schema (or a t-grid beyond the inverse-map range), 3
geometry, 4 degenerate theta, 5 range violation, 6 near-singular, 7
convergence.  MIFHT_THREADS caps the linear algebra thread pools (best
effort: exported before numpy spins them up in worker stages).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    ConvergenceError,
    DegenerateDiagonalError,
    DomainError,
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


def _apply_thread_cap():
    cap = os.environ.get("MIFHT_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


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
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    from .problems import parse_lambda, parse_problem, run_command, write_bundle

    try:
        spec = parse_problem(args.problem)
        spec.command = args.command
        for key in ("modes", "nystrom", "tmax", "tol"):
            val = getattr(args, key)
            if val is not None:
                spec.params[key] = val
        if args.lam is not None:
            spec.params["lambda"] = parse_lambda(args.lam)
        bundle = run_command(spec)
    except tuple(exc for exc, _ in _flat_codes()) as err:
        code = _code_for(err)
        print(f"error ({type(err).__name__}): {err}", file=sys.stderr)
        return code

    if args.output:
        outdir = write_bundle(bundle, args.output)
        print(f"wrote {outdir}/diagnostics.json"
              + (f" and {len(bundle.tables)} table(s)" if bundle.tables else ""))
    else:
        print(bundle.to_json())
    return 0


def _flat_codes():
    for exc, code in EXIT_CODES:
        if isinstance(exc, tuple):
            for e in exc:
                yield e, code
        else:
            yield exc, code


def _code_for(err):
    for exc, code in _flat_codes():
        if isinstance(err, exc):
            return code
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
