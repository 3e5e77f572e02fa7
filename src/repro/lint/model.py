"""Shared AST model: parsed modules, function inventory, name resolution.

Every rule family works from the same per-module view built here:

* the parse tree plus source lines (for finding text and suppressions);
* an **import map** resolving local aliases to canonical dotted names
  (``np`` → ``numpy``, ``perf_counter`` → ``time.perf_counter``), which
  the determinism rules use so ``import time as t; t.time()`` cannot
  slip through;
* a **function inventory**: every ``def`` with its qualified name,
  whether it is a generator, and the bare names of calls it *returns* —
  the edges the simcall call-graph pass propagates over.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: comm/ctx/req method names whose call result is a simulated-MPI
#: generator (or, for ``attach``/``split*``, returns one when driven) —
#: the seed set of the SIM001 call-graph pass and the vocabulary of the
#: MPI protocol rules.
KNOWN_SIMCALL_METHODS = frozenset({
    "send", "recv", "sendrecv", "probe",
    "bcast", "reduce", "allreduce", "allgather", "gather", "scatter",
    "gatherv", "scatterv", "reduce_scatter", "scan", "alltoall", "barrier",
    "split", "split_type", "dup", "bcast_chain",
    "wait", "waitall", "waitany",
    "compute", "elapse",
    "attach", "start_monitoring", "stop_monitoring",
})

#: engine-level helper coroutines (`yield from sleep(dt)` etc.)
ENGINE_HELPERS = frozenset({"sleep", "now", "wait", "wake_at"})

#: collective subset of the simcall methods (MPIS002 schedule vocabulary)
COLLECTIVE_METHODS = frozenset({
    "bcast", "reduce", "allreduce", "allgather", "gather", "scatter",
    "gatherv", "scatterv", "reduce_scatter", "scan", "alltoall", "barrier",
    "split", "split_type", "dup", "bcast_chain",
})

#: keyword names that mark a call as MPI-shaped even on an
#: unconventionally named receiver (``alive.send(x, dest=0, tag=99)``)
MPI_KEYWORDS = frozenset({"dest", "source", "tag", "root", "sendtag", "recvtag"})

#: receiver spellings conventionally bound to comm/ctx/req-like objects
_RECEIVER_NAMES = frozenset({
    "comm", "world", "cart", "ctx", "context", "req", "request",
    "monitor", "self",
})
_RECEIVER_SUFFIXES = ("comm", "_ctx", "_req", "_request")


def is_comm_receiver(name: str | None) -> bool:
    """Heuristic: does ``name`` look like a comm/ctx/req-like object?"""
    if name is None:
        return False
    return name in _RECEIVER_NAMES or name.endswith(_RECEIVER_SUFFIXES)


def receiver_name(expr: ast.expr) -> str | None:
    """Final identifier of a method call's receiver (``a.b.c()`` → ``b``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def has_mpi_keywords(call: ast.Call) -> bool:
    return any(kw.arg in MPI_KEYWORDS for kw in call.keywords)


def dotted_parts(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return parts[::-1]
    return None


def iter_own_nodes(root: ast.AST):
    """Every node of a function body, excluding nested def/class scopes."""
    stack = list(getattr(root, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def build_parent_map(fnode: ast.AST) -> dict[int, ast.AST]:
    """``id(child) -> parent`` over the function's own scope."""
    parents: dict[int, ast.AST] = {}
    stack = [(child, fnode) for child in getattr(fnode, "body", [])]
    while stack:
        node, parent = stack.pop()
        parents[id(node)] = parent
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend((child, node) for child in ast.iter_child_nodes(node))
    return parents


def _tail_call_names(value: ast.expr | None) -> list[str]:
    """Bare callee names a ``return`` hands straight back to the caller."""
    if value is None:
        return []
    if isinstance(value, ast.Call):
        if isinstance(value.func, ast.Name):
            return [value.func.id]
        if isinstance(value.func, ast.Attribute):
            return [value.func.attr]
        return []
    if isinstance(value, ast.IfExp):
        return _tail_call_names(value.body) + _tail_call_names(value.orelse)
    return []


@dataclass
class FunctionInfo:
    """One ``def``: identity plus the facts the call-graph pass needs."""

    name: str
    qualname: str
    node: ast.AST
    path: str
    is_generator: bool
    tail_call_names: tuple[str, ...]


@dataclass
class ModuleInfo:
    """One parsed source file, ready for the rule passes."""

    path: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    #: local alias -> canonical dotted name ("np" -> "numpy")
    imports: dict[str, str] = field(default_factory=dict)
    #: names bound by import statements (module-alias receiver check)
    import_bound: frozenset[str] = frozenset()
    functions: list[FunctionInfo] = field(default_factory=list)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def canonical(self, expr: ast.expr) -> str | None:
        """Resolve a dotted callee through the import map, or None."""
        parts = dotted_parts(expr)
        if not parts:
            return None
        mapped = self.imports.get(parts[0])
        if mapped is None:
            return None
        return ".".join([mapped] + parts[1:])


class _FunctionCollector(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.functions: list[FunctionInfo] = []
        self._stack: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def _function(self, node) -> None:
        is_gen = False
        returns: list[str] = []
        for sub in iter_own_nodes(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                is_gen = True
            elif isinstance(sub, ast.Return):
                returns.extend(_tail_call_names(sub.value))
        self.functions.append(FunctionInfo(
            name=node.name,
            qualname=".".join(self._stack + [node.name]),
            node=node,
            path=self.path,
            is_generator=is_gen,
            tail_call_names=tuple(returns),
        ))
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function


def _collect_imports(tree: ast.Module) -> tuple[dict[str, str], frozenset[str]]:
    imports: dict[str, str] = {}
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                    bound.add(alias.asname)
                else:
                    top = alias.name.split(".", 1)[0]
                    imports[top] = top
                    bound.add(top)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
                bound.add(local)
    return imports, frozenset(bound)


def parse_module(source: str, path: str) -> ModuleInfo:
    """Parse one file into the rule-ready view (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    collector = _FunctionCollector(path)
    collector.visit(tree)
    imports, bound = _collect_imports(tree)
    return ModuleInfo(
        path=path,
        tree=tree,
        source=source,
        lines=source.splitlines(),
        imports=imports,
        import_bound=bound,
        functions=collector.functions,
    )


def load_module(path: Path, shown_path: str) -> ModuleInfo:
    return parse_module(path.read_text(encoding="utf-8"), shown_path)


def infer_simcall_names(
    modules: list[ModuleInfo],
) -> tuple[frozenset[str], frozenset[str]]:
    """Transitive "returns a simulated generator" inference.

    Seeds with every generator function defined in the linted tree plus
    the engine helpers, then propagates through plain functions that
    ``return`` a call to an already-known name — the dispatcher pattern
    (``Communicator.bcast`` returns ``fastcoll.fast_bcast(...)`` without
    itself containing a ``yield``).  Returns ``(all_names,
    code_defined)`` where ``code_defined`` are the names actually
    defined in the linted tree (bare-name call sites of those are
    checked without any receiver heuristic).
    """
    code_defined = {
        f.name for m in modules for f in m.functions if f.is_generator
    }
    known = set(code_defined) | set(KNOWN_SIMCALL_METHODS) | set(ENGINE_HELPERS)
    changed = True
    while changed:
        changed = False
        for module in modules:
            for fn in module.functions:
                if fn.name in known:
                    continue
                if any(callee in known for callee in fn.tail_call_names):
                    known.add(fn.name)
                    code_defined.add(fn.name)
                    changed = True
    return frozenset(known), frozenset(code_defined)
