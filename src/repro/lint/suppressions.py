"""Inline suppressions: ``# repro: allow[RULE]``.

A finding is suppressed when an allow comment naming its rule (or the
whole family, e.g. ``DET`` covers ``DET002``/``DET003``/``DET101``)
appears on the reported line itself, or on a comment-only line above
it, or anywhere in the decorator/comment block directly above a
flagged ``def``::

    wall_s = time.perf_counter() - t0  # repro: allow[DET101] -- wall-clock bench

    # repro: allow[SIM001] -- driven indirectly by the harness
    comm.barrier()

    @cached  # repro: allow[DET101] -- cache key, not a modeled value
    def stamp():
        ...

Several rules can share one comment: ``# repro: allow[DET002,DET003]``
(spaces after the comma are fine).  Anything after ``--`` is a
free-form reason (encouraged, never parsed).
"""

from __future__ import annotations

import re

_ALLOW = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

#: how far a comment-only / decorator-line allow reaches forward while
#: looking for the statement it annotates
_MAX_REACH = 20


def collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed there."""
    lines = source.splitlines()
    suppressed: dict[int, set[str]] = {}
    for idx, line in enumerate(lines):
        match = _ALLOW.search(line)
        if match is None:
            continue
        rules = {r.strip().upper() for r in match.group(1).split(",")
                 if r.strip()}
        suppressed.setdefault(idx + 1, set()).update(rules)
        stripped = line.lstrip()
        if not (stripped.startswith("#") or stripped.startswith("@")):
            continue
        # A comment-only or decorator-line allow covers everything down
        # to (and including) the first real statement below it — so an
        # allow above (or on) a decorator reaches the flagged ``def``.
        for j in range(idx + 1, min(idx + 1 + _MAX_REACH, len(lines))):
            suppressed.setdefault(j + 1, set()).update(rules)
            nxt = lines[j].lstrip()
            if nxt and not nxt.startswith("#") and not nxt.startswith("@"):
                break
    return {line: frozenset(rules) for line, rules in suppressed.items()}


def is_suppressed(rule: str, line: int,
                  suppressions: dict[int, frozenset[str]]) -> bool:
    rules = suppressions.get(line)
    if not rules:
        return False
    # Exact id, or a family prefix ("DET" suppresses "DET101").
    return any(rule == r or rule.startswith(r) for r in rules)
