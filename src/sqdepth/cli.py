"""Command line front end.

One binary, six subcommands:

* ``sdepth``   exact Stanley depth (or a single target decision) with certificate
* ``depth``    Koszul depth per characteristic with homology witnesses
* ``criteria`` numeric upper-bound tests from the layer counts
* ``analyze``  every engine on one instance, one combined report
* ``verify``   a statement check over an instance family, zero failures expected
* ``hunt``     random search for counterexamples, findings are news

Each subcommand takes only the flags it reads; ``--json`` and ``--timing``
go before or after it, every other flag after it.

Exit codes: 0 success, 1 verification failure found, 2 input error,
3 search budget exhausted.  JSON output (``--json``) follows the shipped
``report_schema.json``; the text output is a pure rendering of that JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ideal_io import load_ideal
from .koszul import FieldSpec
from .lab import STATEMENTS, InstanceFamily, hunt_counterexamples
from .partition import DEFAULT_NODE_BUDGET, BudgetExhausted
from .report import (
    DEFAULT_CHARS,
    build_analysis_report,
    build_criteria_report,
    build_depth_report,
    build_sdepth_report,
    render_hunt_text,
    render_text,
    wrap_hunt_report,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

CHARS_ENV = "SQDEPTH_CHARS"
PARANOID_HELP = (
    "check that homology vanishes off squarefree degrees and off the lcm lattice (n <= 6)"
)


def _parse_chars(text: str) -> tuple[int, ...]:
    """The characteristics in ``text``, each once, in first-seen order."""
    try:
        chars = tuple(dict.fromkeys(int(tok) for tok in text.replace(" ", "").split(",") if tok))
    except ValueError:
        raise ValueError(f"invalid characteristic list {text!r}") from None
    if not chars:
        raise ValueError("empty characteristic list")
    for c in chars:
        FieldSpec(c)
    return chars


def _resolve_chars(args) -> tuple[int, ...]:
    if args.chars is not None:
        return _parse_chars(args.chars)
    env = os.environ.get(CHARS_ENV)
    if env:
        return _parse_chars(env)
    return DEFAULT_CHARS


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_output_flags(parser: argparse.ArgumentParser, default) -> None:
    """``--json`` and ``--timing``: the root holds the defaults, and a subcommand
    suppresses its own so that a flag given before it is kept."""
    parser.add_argument(
        "--json", action="store_true", default=default, help="emit the JSON report instead of text"
    )
    parser.add_argument(
        "--timing", action="store_true", default=default, help="fill elapsed_ms in reports"
    )


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_NODE_BUDGET, metavar="N",
        help=f"search node budget N >= 1 (default {DEFAULT_NODE_BUDGET})",
    )


def _add_chars(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chars", metavar="LIST",
        help=f"characteristics, e.g. 0,2,3 (default ${CHARS_ENV} or 0,2,3)",
    )


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    _add_budget(parser)
    _add_chars(parser)
    parser.add_argument(
        "--seed", type=int, default=0, help="random seed for sampled families (default 0)"
    )
    parser.add_argument("--n", type=int, required=True, help="ambient variable count")
    parser.add_argument("--d", type=int, default=1, help="generator degree d (default 1)")
    parser.add_argument("--k", type=int, default=2, help="number of degree-d generators (default 2)")
    parser.add_argument(
        "--with-E", dest="with_e", action="store_true",
        help="also include extra degree-(d+1) generators",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--exhaustive", action="store_true", help="enumerate every J (default for n <= 4)"
    )
    group.add_argument(
        "--samples", type=_positive_int, metavar="M",
        help="sample M >= 1 random instances (default for n >= 5)",
    )
    parser.add_argument(
        "--symmetry", action="store_true",
        help="keep only permutation-canonical instances; exhaustive families only, not --samples",
    )


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="sqdepth",
        description="Exact Stanley depth, Koszul depth, and statement checks "
        "for squarefree monomial quotients I/J.",
    )
    _add_output_flags(root, default=False)
    sub = root.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_output_flags(p, default=argparse.SUPPRESS)
        if file:
            p.add_argument("file", help="ideal pair file (text or JSON)")
        return p

    p = command("sdepth", "exact Stanley depth with certificate")
    _add_budget(p)
    p.add_argument("--target", type=int, help="decide a single target instead of optimizing")
    p.add_argument("--certificate", action="store_true", help="print the interval partition")

    p = command("depth", "depth via Koszul homology")
    _add_chars(p)
    p.add_argument("--paranoid", action="store_true", help=PARANOID_HELP)
    p.add_argument("--witness", action="store_true", help="print homology witnesses")

    command("criteria", "numeric depth upper-bound tests")

    p = command("analyze", "run every engine on one instance")
    _add_budget(p)
    _add_chars(p)
    p.add_argument("--paranoid", action="store_true", help=PARANOID_HELP)

    p = command("verify", "check a statement over a family; failures are bugs", file=False)
    p.add_argument("statement", choices=STATEMENTS, help="which statement to check")
    _add_family_flags(p)

    p = command("hunt", "search a family for counterexamples; findings are news", file=False)
    p.add_argument(
        "--check", dest="statement", choices=STATEMENTS, default="step-open",
        help="statement to hunt against (default step-open)",
    )
    _add_family_flags(p)

    return root


def _emit(args, report: dict, render) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render(report), end="")


_REPORTS = {
    "sdepth": lambda pair, args: build_sdepth_report(
        pair, target=args.target, budget=args.budget, timing=args.timing
    ),
    "depth": lambda pair, args: build_depth_report(
        pair, chars=_resolve_chars(args), paranoid=args.paranoid, timing=args.timing
    ),
    "criteria": lambda pair, args: build_criteria_report(pair, timing=args.timing),
    "analyze": lambda pair, args: build_analysis_report(
        pair,
        chars=_resolve_chars(args),
        budget=args.budget,
        paranoid=args.paranoid,
        timing=args.timing,
    ),
}


def _cmd_instance(args) -> int:
    """One instance, one report; the exit code is read off the report."""
    pair, warnings = load_ideal(args.file)
    _warn(warnings)
    report = _REPORTS[args.command](pair, args)
    # analyze has neither flag and always renders the certificate and the witnesses
    _emit(args, report, lambda r: render_text(
        r, certificate=getattr(args, "certificate", True), witness=getattr(args, "witness", True)
    ))
    if "error" in report.get("sdepth", {}):
        return EXIT_BUDGET
    if any(slot["status"] == "fail" for slot in report.get("theorems", {}).values()):
        return EXIT_FAILURES
    return EXIT_OK


def _cmd_family(args) -> int:
    sampled = args.samples is not None or (not args.exhaustive and args.n > 4)
    fam = InstanceFamily(
        n=args.n,
        d=args.d,
        k=args.k,
        with_e=args.with_e,
        j_policy="random" if sampled else "exhaustive",
        symmetry_reduction=args.symmetry,
    )
    fields = tuple(FieldSpec(c) for c in _resolve_chars(args))
    hunt = hunt_counterexamples(
        fam, args.statement, fields=fields, limit=args.samples, seed=args.seed,
        timing=args.timing, budget=args.budget,
    )
    report = wrap_hunt_report(hunt)
    _emit(args, report, render_hunt_text)
    return EXIT_FAILURES if report["counts"]["fail"] else EXIT_OK


def _warn(warnings: list[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _cmd_instance if args.command in _REPORTS else _cmd_family
    try:
        return handler(args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
