"""MPI003 — unfenced monitor bracket in a rank program.

Per ``docs/monitoring-protocol.md`` (the paper's Figure 2), PAPI
``start``/``stop`` reads in a rank program must be barrier-fenced: a
barrier before aligns the node so the counters bracket exactly the
monitored region, a barrier after keeps other ranks from racing into
the next phase.  Checked only inside generator functions — external
(black-box) observers are not rank programs and deliberately never
synchronize.

Message matching and collective symmetry are the MPIS rules'
(:mod:`repro.lint.rules_mpis`).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import (
    FunctionInfo,
    ModuleInfo,
    iter_own_nodes,
    receiver_name,
)


def _finding(module: ModuleInfo, node: ast.AST, rule: str,
             message: str) -> Finding:
    return Finding(
        path=module.path,
        line=node.lineno,
        col=node.col_offset + 1,
        rule=rule,
        message=message,
        text=module.line_text(node.lineno),
    )


def _check_monitor_bracket(module: ModuleInfo,
                           fn: FunctionInfo) -> list[Finding]:
    if not fn.is_generator:
        return []  # not a rank program (e.g. an external black-box observer)
    papi_calls: list[tuple[str, int, ast.Call]] = []
    barrier_lines: list[int] = []
    for node in iter_own_nodes(fn.node):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        recv = receiver_name(node.func.value) or ""
        if node.func.attr in ("start", "stop") and "papi" in recv.lower():
            papi_calls.append((node.func.attr, node.lineno, node))
        elif node.func.attr == "barrier":
            barrier_lines.append(node.lineno)
    findings = []
    for op, lineno, call in papi_calls:
        before = any(b < lineno for b in barrier_lines)
        after = any(b > lineno for b in barrier_lines)
        if not (before and after):
            missing = []
            if not before:
                missing.append("before")
            if not after:
                missing.append("after")
            findings.append(_finding(
                module, call, "MPI003",
                f"PAPI {op} in {fn.qualname!r} is not barrier-fenced "
                f"(no barrier {' or '.join(missing)} it); "
                "see docs/monitoring-protocol.md — the counters must "
                "bracket exactly the monitored region",
            ))
    return findings


def check(module: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    for fn in module.functions:
        findings.extend(_check_monitor_bracket(module, fn))
    return findings
