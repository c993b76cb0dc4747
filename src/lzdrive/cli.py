"""Command-line interface: trace, sweep, compare, selftest.

Exit codes: 0 success (and compare pass), 1 configuration/validation error
(argument usage errors included), 2 numeric failure, 3 compare threshold
exceeded.  ``main`` returns the code in every case, usage errors and
``--help`` too, and never raises SystemExit.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    IntegrationError,
    OffResonanceError,
    UnsupportedConfigError,
)
from .harness import parse_config, parse_sweep, run_compare, run_sweep, run_trace, selftest, COMPARE_METHODS

_NUMERIC_ERRORS = (
    AccuracyError,
    DomainError,
    IntegrationError,
    OffResonanceError,
    UnsupportedConfigError,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lzdrive",
        description="Simulate and verify a doubly driven two-level crossing.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="propagate one config and export the trajectory CSV")
    t.add_argument("--config", required=True, help="run config file (key=value or JSON)")
    t.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    s = sub.add_parser("sweep", help="evaluate an observable over a parameter grid")
    s.add_argument("--config", required=True)
    s.add_argument("--sweep", required=True, help="sweep spec file (key=value or JSON)")
    s.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; sweeps run in one process")
    s.add_argument("--out", default=None)

    c = sub.add_parser("compare", help="closed-form method vs direct numerics")
    c.add_argument("--config", required=True)
    c.add_argument("--method", required=True, choices=COMPARE_METHODS)
    c.add_argument("--threshold", type=float, required=True)
    c.add_argument("--out", default=None)

    sub.add_parser("selftest", help="special-function oracle checks")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage or the help; its usage-error code 2
        # means a numeric failure here, so a usage error returns 1
        return 1 if exc.code else 0
    try:
        if args.command == "selftest":
            return 0 if selftest() else 2
        spec = parse_config(_read(args.config))
        if args.command == "trace":
            _write(args.out, run_trace(spec))
            return 0
        if args.command == "sweep":
            sweep = parse_sweep(_read(args.sweep))
            _write(args.out, run_sweep(spec, sweep, workers=args.workers))
            return 0
        report = run_compare(spec, args.method, args.threshold)
        _write(args.out, report.to_json())
        if not report.passed:
            sys.stderr.write(
                f"compare FAILED: max_abs_dev={report.max_abs_dev:.6g} > "
                f"threshold={report.threshold:g}\n"
            )
            return 3
        return 0
    except ConfigError as exc:
        ctx = ""
        if exc.key is not None:
            ctx += f" [key: {exc.key}]"
        if exc.line is not None:
            ctx += f" [line: {exc.line}]"
        sys.stderr.write(f"config error: {exc}{ctx}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
