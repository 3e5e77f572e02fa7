"""PERF rules — per-level scalar work on the simulator hot paths.

Every simulated rank runs in one interpreter, so a rank program that
executes ``np.outer`` once per level inside its level loop serializes
*all* ranks on BLAS-1 work — the exact wall-clock cliff the shared
blocked-panel kernel (:mod:`repro.solvers.kernels`) exists to remove.
The pattern is cheap to spot syntactically and expensive to rediscover
by profiling, so the analyzer flags it:

an augmented ``+=``/``-=`` on a subscripted target whose right-hand
side calls ``numpy.outer``, lexically inside a loop, inside a
*generator* function (the rank-program shape — sequential reference
solvers run one rank and are exempt).

The fix is to defer the updates through a
:class:`~repro.solvers.kernels.PanelAccumulator` and flush them as one
BLAS-3 panel update.  Deliberate level-wise reference paths (kept for
equivalence testing) carry ``# repro: allow[PERF001]``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo, build_parent_map, iter_own_nodes

RULE = "PERF001"


def _outer_call(node: ast.AST, module: ModuleInfo) -> bool:
    return (isinstance(node, ast.Call)
            and module.canonical(node.func) == "numpy.outer")


def _contains_outer(expr: ast.expr, module: ModuleInfo) -> bool:
    return any(_outer_call(sub, module) for sub in ast.walk(expr))


def _in_loop(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
    parent = parents.get(id(node))
    while parent is not None:
        if isinstance(parent, (ast.For, ast.While)):
            return True
        parent = parents.get(id(parent))
    return False


def check(module: ModuleInfo) -> list[Finding]:
    findings: list[Finding] = []
    if "numpy" not in set(module.imports.values()) \
            and not any(c.startswith("numpy.") for c in module.imports.values()):
        return findings
    for fn in module.functions:
        if not fn.is_generator:
            continue
        parents: dict[int, ast.AST] | None = None
        for node in iter_own_nodes(fn.node):
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub))
                    and isinstance(node.target, ast.Subscript)
                    and _contains_outer(node.value, module)):
                continue
            if parents is None:
                parents = build_parent_map(fn.node)
            if not _in_loop(node, parents):
                continue
            findings.append(Finding(
                path=module.path, line=node.lineno,
                col=node.col_offset + 1, rule=RULE,
                message=(f"{fn.name}() applies a per-level np.outer "
                         "trailing update inside its level loop — rank "
                         "programs share one interpreter; defer the "
                         "updates through the shared blocked kernel "
                         "(repro.solvers.kernels.PanelAccumulator)"),
                text=module.line_text(node.lineno),
            ))
    return findings
