"""FAST001 — fast/message dual-dispatch discipline.

The simulator keeps two implementations of every communication
primitive: the closed-form fast path (:mod:`repro.simmpi.fastcoll`,
:mod:`repro.simmpi.fastp2p`) and the message-level reference path that
defines the semantics.  Their equivalence is only testable while *both*
stay reachable — a comm-layer entry point that calls a fast-path
function unconditionally, or behind a guard that does not consult the
``fast`` engine gate, silently retires the reference path and the two
implementations can diverge unnoticed.

Within any module that imports ``fastcoll`` or ``fastp2p``, every
``fastcoll.fast_*`` / ``fastp2p.fast_*`` call must therefore be

* **conditional** — lexically inside an ``if`` statement or conditional
  expression (so the message path remains a reachable fallback), and
* **gated** — at least one enclosing condition must read the engine
  gate (``sim.fast``) or call a helper defined in the same module that
  reads it, directly or through another such helper (the
  ``Communicator._flow_send_ok`` → ``World._fused`` pattern).

Deliberate exceptions carry ``# repro: allow[FAST001]``.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo, build_parent_map, iter_own_nodes

RULE = "FAST001"

#: the two fast-path modules; importing either makes a file comm-layer
_FAST_MODULES = frozenset({
    "repro.simmpi.fastcoll",
    "repro.simmpi.fastp2p",
})

#: engine attribute that switches the fast paths on
_GATES = frozenset({"fast"})


def _fast_aliases(module: ModuleInfo) -> frozenset[str]:
    return frozenset(
        alias for alias, canonical in module.imports.items()
        if canonical in _FAST_MODULES
    )


def _is_fast_call(node: ast.AST, aliases: frozenset[str]) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("fast_")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases)


def _gate_helpers(module: ModuleInfo) -> frozenset[str]:
    """The module's functions that read the gate, directly or through
    another such function (a fixed point over same-module calls)."""
    helpers: frozenset[str] = frozenset()
    while True:
        found = frozenset(f.name for f in module.functions if _mentions_gate(
            iter_own_nodes(f.node), helpers))
        if found == helpers:
            return helpers
        helpers = found


def _mentions_gate(nodes, gate_helpers: frozenset[str]) -> bool:
    """True when ``nodes`` read the gate or call a gate helper."""
    for node in nodes:
        if isinstance(node, ast.Attribute) and node.attr in _GATES:
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in gate_helpers:
                return True
    return False


def _guard_tests(call: ast.Call, parents: dict[int, ast.AST]) -> list[ast.expr]:
    """Tests of every ``if``/conditional expression enclosing ``call``
    (excluding any whose *test* contains the call itself)."""
    tests: list[ast.expr] = []
    child: ast.AST = call
    parent = parents.get(id(child))
    while parent is not None:
        if isinstance(parent, (ast.If, ast.IfExp)) and child is not parent.test:
            tests.append(parent.test)
        child = parent
        parent = parents.get(id(child))
    return tests


def check(module: ModuleInfo) -> list[Finding]:
    aliases = _fast_aliases(module)
    if not aliases:
        return []
    gate_helpers = _gate_helpers(module)
    findings: list[Finding] = []
    for fn in module.functions:
        parents: dict[int, ast.AST] | None = None
        for node in iter_own_nodes(fn.node):
            if not _is_fast_call(node, aliases):
                continue
            if parents is None:
                parents = build_parent_map(fn.node)
            tests = _guard_tests(node, parents)
            callee = f"{node.func.value.id}.{node.func.attr}"
            if not tests:
                findings.append(Finding(
                    path=module.path, line=node.lineno,
                    col=node.col_offset + 1, rule=RULE,
                    message=(f"{fn.name}() dispatches to {callee} "
                             "unconditionally — the message-level "
                             "reference path is unreachable"),
                    text=module.line_text(node.lineno),
                ))
            elif not any(_mentions_gate(ast.walk(t), gate_helpers)
                         for t in tests):
                findings.append(Finding(
                    path=module.path, line=node.lineno,
                    col=node.col_offset + 1, rule=RULE,
                    message=(f"{fn.name}() guards {callee} without "
                             "consulting sim.fast — the engine gate "
                             "cannot fall back to the message path"),
                    text=module.line_text(node.lineno),
                ))
    return findings
