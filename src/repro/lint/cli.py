"""``repro lint`` — run the simulation-correctness analyzer.

    repro lint src/repro tools examples
    repro lint --format=json src/repro
    repro lint --format=sarif src/repro > lint.sarif
    repro lint --explain UNIT002

Every run parses and analyzes every file it is given: nothing is cached
between runs.  Exit status 0 when clean (after suppressions), 1 when any
finding remains, 2 on usage errors (an unknown rule id, a path that does
not exist).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.registry import ALL_RULES, explain
from repro.lint.runner import LintOptions, lint_paths
from repro.lint.sarif import to_sarif

DEFAULT_PATHS = ("src/repro", "tools", "examples")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json: one object with a findings array; "
             "sarif: SARIF 2.1.0 for CI annotation upload)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all of "
             f"{','.join(ALL_RULES)})",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULEID",
        help="print a rule's rationale with a violating/fixed example "
             "pair, then exit",
    )


def run_from_args(args: argparse.Namespace) -> int:
    if args.explain:
        try:
            print(explain(args.explain))
        except KeyError:
            print(f"unknown rule id: {args.explain} "
                  f"(known: {', '.join(ALL_RULES)})", file=sys.stderr)
            return 2
        return 0

    select = None
    if args.select:
        select = frozenset(r.strip().upper() for r in args.select.split(","))
        unknown = select - set(ALL_RULES)
        if unknown:
            print(f"unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    for path in missing:
        print(f"{path}: no such file or directory", file=sys.stderr)
    if missing:
        return 2
    result = lint_paths(list(args.paths), LintOptions(select=select))
    findings = result.findings

    if args.format == "json":
        payload = {
            "files_checked": result.files_checked,
            "findings": [f.to_json() for f in findings],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2))
    else:
        for finding in findings:
            print(finding.format())
            if finding.text:
                print(f"    {finding.text}")
        print(f"{len(findings)} finding(s) in "
              f"{result.files_checked} file(s)")
    return 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simulation-correctness static analyzer "
                    "(see docs/static-analysis.md)",
    )
    add_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
