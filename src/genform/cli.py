"""Command line interface.

    genform eval FILE NAME [--at BINDINGS]   print a definition, optionally at a point
    genform show FILE                        canonical listing of a session file
    genform check ID [--dim N] [--trials T] [--seed S] [--k SPEC]

``check`` accepts an identity name P1..P17 or ``all``; ``--dim`` is 1 to
``harness.MAX_DIMENSION`` (8); ``--trials`` is at least 1; ``--k`` is
``random``, ``zero`` or a rational read as an ``--at`` value is, such as
``2/3`` or ``--k=-2/3`` (argparse reads ``--k -2/3`` as an option).
Results go to stdout, diagnostics to stderr as ``line:col: code: message``.
Exit status: 0 on success, 1 when an identity check finds a counterexample, 2
for usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import GenformError, ParseError
from .harness import GenConfig, IDENTITIES, parse_k_spec, run_identity
from .scalars import Chart
from .session import parse_rational, parse_session, value_at


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="genform",
        description="exact calculus of pair-valued differential forms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print a session definition")
    p_eval.add_argument("file")
    p_eval.add_argument("name")
    p_eval.add_argument("--at", metavar="BINDINGS",
                        help="also evaluate at a point, e.g. x=2,y=-1/3")

    p_show = sub.add_parser("show", help="canonical listing of a session file")
    p_show.add_argument("file")

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument("identity", help="P1..P17 or 'all'")
    p_check.add_argument("--dim", type=int, default=2)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--k", default="random")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "show":
            return _cmd_show(args)
        return _cmd_check(args)
    except ParseError as exc:
        _diag(f"{exc.line}:{exc.col}: {exc.code}: {exc.message}")
        return 2
    except (GenformError, ValueError, OSError) as exc:
        _diag(f"genform: error: {exc}")
        return 2


def _load(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_point(spec: str, chart: Chart) -> list[Fraction]:
    bindings: dict[str, Fraction] = {}
    known = set(chart.names)  # one lookup per binding, not a scan of the chart
    for part in spec.split(","):
        name, eq, text = part.partition("=")
        name = name.strip()
        text = text.strip()
        if not eq or not name or not text:
            raise ValueError(f"bad binding {part!r}: expected name=value")
        if name not in known:
            raise ValueError(f"unknown coordinate {name!r}")
        if name in bindings:
            raise ValueError(f"coordinate {name!r} bound twice")
        bindings[name] = parse_rational(text)
    missing = [n for n in chart.names if n not in bindings]
    if missing:
        raise ValueError(f"point must bind every coordinate; missing {', '.join(missing)}")
    return [bindings[n] for n in chart.names]


def _cmd_eval(args) -> int:
    session = parse_session(_load(args.file))
    if args.name not in session.definitions:
        _diag(f"genform: E_NAME: '{args.name}' is not defined in {args.file}")
        return 2
    value = session.definitions[args.name]
    print(value)
    if args.at is not None:
        try:
            at = value_at(value, _parse_point(args.at, session.chart))
        except ValueError as exc:
            _diag(f"genform: E_POINT: {exc}")
            return 2
        print(at)
    return 0


def _cmd_show(args) -> int:
    print(parse_session(_load(args.file)).render(), end="")
    return 0


def _cmd_check(args) -> int:
    if args.identity == "all":
        names = list(IDENTITIES)
    elif args.identity in IDENTITIES:
        names = [args.identity]
    else:
        _diag(f"genform: E_USAGE: unknown identity '{args.identity}'")
        return 2
    try:
        if args.trials < 1:
            raise ValueError("trials must be positive")
        cfg = GenConfig(seed=args.seed, dimension=args.dim, k=parse_k_spec(args.k))
    except ValueError as exc:
        _diag(f"genform: E_USAGE: {exc}")
        return 2
    status = 0
    for name in names:
        report = run_identity(name, cfg, args.trials)
        if report.ok:
            print(f"{name}: pass ({report.trials} trials)")
        else:
            status = 1
            print(f"{name}: FAIL ({len(report.failures)} of {report.trials} trials)")
            for failure in report.failures:
                print(f"  counterexample (trial {failure.trial}; {failure.config}):")
                print(failure.session, end="")
                print(f"  lhs: {failure.lhs}")
                print(f"  rhs: {failure.rhs}")
    return status


if __name__ == "__main__":
    sys.exit(main())
