"""Command line front end.

One binary, six subcommands:

* ``sdepth``   exact Stanley depth (or a single target decision) with certificate
* ``depth``    Koszul depth per characteristic with homology witnesses
* ``criteria`` numeric upper-bound tests from the layer counts
* ``analyze``  every engine on one instance, one combined report
* ``verify``   a statement check over an instance family, zero failures expected
* ``hunt``     random search for counterexamples, findings are news

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
    render_analysis_text,
    render_criteria_text,
    render_depth_text,
    render_hunt_text,
    render_sdepth_text,
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
    try:
        chars = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ValueError(f"invalid characteristic list {text!r}") from None
    if not chars:
        raise ValueError("empty characteristic list")
    for c in chars:
        FieldSpec(c)
    return chars


def _resolve_chars(args) -> tuple[int, ...]:
    if getattr(args, "char", None):
        return tuple(dict.fromkeys(args.char))
    if args.chars is not None:
        return _parse_chars(args.chars)
    env = os.environ.get(CHARS_ENV)
    if env:
        return _parse_chars(env)
    return DEFAULT_CHARS


_GLOBAL_FLAGS = (
    (("--json",), {"action": "store_true", "help": "emit the JSON report instead of text"}),
    (("--seed",), {"type": int, "help": "random seed for sampled families (default 0)"}),
    (
        ("--budget",),
        {"type": int, "help": f"search node budget (default {DEFAULT_NODE_BUDGET})"},
    ),
    (
        ("--chars",),
        {"metavar": "LIST", "help": f"characteristics, e.g. 0,2,3 (default ${CHARS_ENV} or 0,2,3)"},
    ),
    (("--timing",), {"action": "store_true", "help": "fill elapsed_ms in reports"}),
)

_GLOBAL_DEFAULTS = {"json": False, "seed": 0, "budget": DEFAULT_NODE_BUDGET, "chars": None,
                    "timing": False}


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    for names, kwargs in _GLOBAL_FLAGS:
        dest = names[0].lstrip("-")
        default = argparse.SUPPRESS if suppress else _GLOBAL_DEFAULTS[dest]
        parser.add_argument(*names, default=default, **kwargs)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
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
        "--samples", type=int, metavar="M", help="sample M random instances (default for n >= 5)"
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
    _add_global_flags(root, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sdepth", parents=[common], help="exact Stanley depth with certificate")
    p.add_argument("file", help="ideal pair file (text or JSON)")
    p.add_argument("--target", type=int, help="decide a single target instead of optimizing")
    p.add_argument("--certificate", action="store_true", help="print the interval partition")

    p = sub.add_parser("depth", parents=[common], help="depth via Koszul homology")
    p.add_argument("file", help="ideal pair file (text or JSON)")
    p.add_argument(
        "--char", type=int, action="append", metavar="P",
        help="single characteristic (repeatable; overrides --chars)",
    )
    p.add_argument("--paranoid", action="store_true", help=PARANOID_HELP)
    p.add_argument("--witness", action="store_true", help="print homology witnesses")

    p = sub.add_parser("criteria", parents=[common], help="numeric depth upper-bound tests")
    p.add_argument("file", help="ideal pair file (text or JSON)")

    p = sub.add_parser("analyze", parents=[common], help="run every engine on one instance")
    p.add_argument("file", help="ideal pair file (text or JSON)")
    p.add_argument("--paranoid", action="store_true", help=PARANOID_HELP)

    p = sub.add_parser(
        "verify", parents=[common], help="check a statement over a family; failures are bugs"
    )
    p.add_argument("statement", choices=STATEMENTS, help="which statement to check")
    _add_family_flags(p)

    p = sub.add_parser(
        "hunt", parents=[common], help="search a family for counterexamples; findings are news"
    )
    p.add_argument(
        "--check", choices=STATEMENTS, default="step-open",
        help="statement to hunt against (default step-open)",
    )
    _add_family_flags(p)

    return root


def _emit(args, report: dict, render) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render(report), end="")


def _sdepth_exit(report: dict) -> int:
    return EXIT_BUDGET if "error" in report["sdepth"] else EXIT_OK


def _cmd_sdepth(args) -> int:
    pair, warnings = load_ideal(args.file)
    _warn(warnings)
    report = build_sdepth_report(
        pair, target=args.target, budget=args.budget, timing=args.timing
    )
    _emit(args, report, lambda r: render_sdepth_text(r, certificate=args.certificate))
    return _sdepth_exit(report)


def _cmd_depth(args) -> int:
    pair, warnings = load_ideal(args.file)
    _warn(warnings)
    report = build_depth_report(
        pair, chars=_resolve_chars(args), paranoid=args.paranoid, timing=args.timing
    )
    _emit(args, report, lambda r: render_depth_text(r, witness=args.witness))
    return EXIT_OK


def _cmd_criteria(args) -> int:
    pair, warnings = load_ideal(args.file)
    _warn(warnings)
    report = build_criteria_report(pair, timing=args.timing)
    _emit(args, report, render_criteria_text)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    pair, warnings = load_ideal(args.file)
    _warn(warnings)
    report = build_analysis_report(
        pair,
        chars=_resolve_chars(args),
        budget=args.budget,
        paranoid=args.paranoid,
        timing=args.timing,
    )
    _emit(args, report, render_analysis_text)
    if "error" in report["sdepth"]:
        return EXIT_BUDGET
    theorems = report["theorems"]
    if any(theorems[name]["status"] == "fail" for name in ("floor", "step")):
        return EXIT_FAILURES
    return EXIT_OK


def _run_family_check(args, check: str) -> int:
    if args.samples is not None:
        policy, limit = "random", args.samples
    elif args.exhaustive:
        policy, limit = "exhaustive", None
    elif args.n <= 4:
        policy, limit = "exhaustive", None
    else:
        policy, limit = "random", 1000
    fam = InstanceFamily(
        n=args.n,
        d=args.d,
        k=args.k,
        with_e=args.with_e,
        j_policy=policy,
        symmetry_reduction=args.symmetry,
    )
    fields = tuple(FieldSpec(c) for c in _resolve_chars(args))
    hunt = hunt_counterexamples(
        fam, check, fields=fields, limit=limit, seed=args.seed, timing=args.timing,
        budget=args.budget,
    )
    report = wrap_hunt_report(hunt)
    _emit(args, report, render_hunt_text)
    return EXIT_FAILURES if report["counts"]["fail"] else EXIT_OK


def _cmd_verify(args) -> int:
    return _run_family_check(args, args.statement)


def _cmd_hunt(args) -> int:
    return _run_family_check(args, args.check)


_COMMANDS = {
    "sdepth": _cmd_sdepth,
    "depth": _cmd_depth,
    "criteria": _cmd_criteria,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
}


def _warn(warnings: list[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
