"""``repro lint`` — run the simulation-correctness analyzer.

    repro lint src/repro tools examples
    repro lint --format=json src/repro
    repro lint --format=sarif src/repro > lint.sarif
    repro lint --jobs 4 src/repro
    repro lint --explain UNIT002

Exit status 0 when clean (after suppressions), 1 when any finding
remains, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

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
        "--jobs", type=int, default=1, metavar="N",
        help="analyze cache-miss files with N forked workers (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the incremental result cache for this run",
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
    options = LintOptions(select=select, jobs=max(args.jobs, 1),
                          use_cache=not args.no_cache)
    result = lint_paths(list(args.paths), options)
    findings = result.findings

    if args.format == "json":
        payload = {
            "files_checked": result.files_checked,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
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
        summary = (f"{len(findings)} finding(s) in "
                   f"{result.files_checked} file(s)")
        if result.cache_hits:
            summary += f" [{result.cache_hits} cached]"
        print(summary)
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
