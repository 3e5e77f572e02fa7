"""DET1xx — interprocedural nondeterminism-taint tracking.

The syntactic DET00x rules flag every ambient RNG and every set
iteration inside the deterministic core; no rule flags a wall-clock
read as such.  The DET1xx family is the flow-sensitive check: it only
fires when a nondeterministic value provably *flows into a modeled
quantity* — the numbers the equivalence suites and committed baselines
depend on.

Sources (taint kinds):

* ``clock`` — wall-clock reads (``time.perf_counter`` …, the
  :data:`repro.lint.rules_det.WALL_CLOCK` vocabulary);
* ``entropy`` — ambient randomness (global ``random.*``, unseeded
  ``default_rng()``, ``os.urandom``, ``uuid4`` …);
* ``order`` — values whose content depends on set iteration order
  (the loop variable of a ``for`` over a set, ``list(set(...))``,
  ``set.pop()``).

Propagation: through assignments and arithmetic inside a function (CFG
dataflow, taint union at joins), and *interprocedurally* through return
values — a helper that returns ``time.perf_counter()`` taints every
caller, to any wrapper depth (call-graph summary fixpoint).

Sinks (what makes it a finding):

* binding a tainted value to a unit-suffixed modeled name
  (``*_j``/``*_w``/``*_s``/``*_bytes``/``*_flops`` — the UNIT naming
  vocabulary), including attribute stores;
* passing a tainted value to the engine's time/work primitives
  (``compute``, ``elapse``, ``sleep``, ``wake_at``) or to a
  send/collective payload position;
* returning a tainted value from a function whose name is
  unit-suffixed (a modeled-quantity API).

Rule ids: **DET101** for clock/entropy taint, **DET102** for set-order
taint.  A wall-clock read whose value only feeds a log line or a
throughput report is *not* flagged.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.flow.callgraph import CallGraph, summary_fixpoint
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.dataflow import ForwardAnalysis, fixpoint
from repro.lint.flow.units import dim_of_name
from repro.lint.model import FunctionInfo, ModuleInfo, iter_own_nodes
from repro.lint.rules_det import ENTROPY, GLOBAL_RANDOM, WALL_CLOCK

Taint = frozenset  # of {"clock", "entropy", "order"}

NO_TAINT: Taint = frozenset()

#: engine primitives whose arguments become modeled time/work
ENGINE_TIME_SINKS = frozenset({"compute", "elapse", "sleep", "wake_at"})

#: comm methods whose payload enters the modeled message stream
PAYLOAD_SINKS = frozenset({"send", "bcast", "reduce", "allreduce",
                           "gather", "allgather", "scatter"})

_KIND_RULE = {"clock": "DET101", "entropy": "DET101", "order": "DET102"}

#: order-insensitive reductions: consuming a set through these is fine
ORDER_LAUNDERING = frozenset({"sorted", "len", "sum", "min", "max",
                              "frozenset", "set", "any", "all"})

_KIND_LABEL = {
    "clock": "wall-clock",
    "entropy": "ambient-entropy",
    "order": "set-iteration-order",
}


def _source_kind(module: ModuleInfo, call: ast.Call) -> str | None:
    """Taint kind produced by calling this expression, if any."""
    canonical = module.canonical(call.func)
    if canonical is None:
        return None
    if canonical in WALL_CLOCK:
        return "clock"
    if canonical in ENTROPY or canonical.startswith("secrets."):
        return "entropy"
    if canonical.startswith("random."):
        leaf = canonical.rsplit(".", 1)[1]
        if leaf in GLOBAL_RANDOM:
            return "entropy"
    if canonical.startswith("numpy.random."):
        leaf = canonical[len("numpy.random."):]
        if leaf in ("default_rng", "RandomState"):
            if not call.args and not call.keywords:
                return "entropy"
        elif "." not in leaf and leaf not in ("Generator", "SeedSequence"):
            return "entropy"
    return None


def _is_set_expr(expr: ast.expr, env: dict) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    if isinstance(expr, ast.Name):
        return "set" in env.get(f"?set:{expr.id}", NO_TAINT)
    return False


class _TaintEval:
    """Taint of an expression: union over everything it reads."""

    def __init__(self, module: ModuleInfo, graph: CallGraph | None,
                 caller: FunctionInfo | None, return_taint_of,
                 env: dict[str, Taint]):
        self.module = module
        self.graph = graph
        self.caller = caller
        self.return_taint_of = return_taint_of
        self.env = env

    def taint(self, expr: ast.expr | None) -> Taint:
        if expr is None:
            return NO_TAINT
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, NO_TAINT)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            out: set[str] = set()
            for gen in expr.generators:
                gen_taint = self.taint(gen.iter)
                if _is_set_expr(gen.iter, self.env):
                    gen_taint = gen_taint | frozenset({"order"})
                out |= gen_taint
                for cond in gen.ifs:
                    out |= self.taint(cond)
            if isinstance(expr, ast.DictComp):
                out |= self.taint(expr.key) | self.taint(expr.value)
            else:
                out |= self.taint(expr.elt)
            if isinstance(expr, ast.SetComp):
                out -= {"order"}  # a set forgets order; iterating it re-taints
            return frozenset(out)
        # Generic expression: union over child expressions.
        out = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.taint(child)
        return frozenset(out)

    def _call(self, call: ast.Call) -> Taint:
        kind = _source_kind(self.module, call)
        if kind is not None:
            return frozenset({kind})
        arg_taint: set[str] = set()
        for arg in call.args:
            sub = self.taint(arg.value if isinstance(arg, ast.Starred)
                             else arg)
            if _is_set_expr(arg, self.env):
                sub = sub | frozenset({"order"})
            arg_taint |= sub
        for kw in call.keywords:
            arg_taint |= self.taint(kw.value)
        if isinstance(call.func, ast.Attribute):
            arg_taint |= self.taint(call.func.value)
        if isinstance(call.func, ast.Name) \
                and call.func.id in ORDER_LAUNDERING:
            arg_taint -= {"order"}
        return frozenset(arg_taint) | self._call_taint(call)

    def _call_taint(self, call: ast.Call) -> Taint:
        if isinstance(call.func, ast.Attribute) and call.func.attr == "pop" \
                and _is_set_expr(call.func.value, self.env):
            return frozenset({"order"})
        if self.graph is None or self.return_taint_of is None:
            return NO_TAINT
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name is None:
            return NO_TAINT
        candidates = self.graph.by_name.get(name, [])
        if self.caller is not None:
            local = [f for f in candidates if f.path == self.caller.path]
            candidates = local or candidates
        out: set[str] = set()
        for fn in candidates:
            out |= self.return_taint_of(fn) or NO_TAINT
        return frozenset(out)


class _TaintAnalysis(ForwardAnalysis):
    """env: name -> taint kinds (plus ``?set:name`` set-typedness marks)."""

    def __init__(self, module: ModuleInfo, graph: CallGraph | None,
                 fn: FunctionInfo, return_taint_of):
        self.module = module
        self.graph = graph
        self.fn = fn
        self.return_taint_of = return_taint_of

    def merge(self, a: Taint, b: Taint) -> Taint:
        return a | b

    def transfer(self, stmt, env):
        if stmt is None:
            return env
        evaluator = _TaintEval(self.module, self.graph, self.fn,
                               self.return_taint_of, env)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            if stmt.value is None:
                return env
            taint = evaluator.taint(stmt.value)
            is_set = _is_set_expr(stmt.value, env)
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            out = dict(env)
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = taint
                    key = f"?set:{target.id}"
                    if is_set:
                        out[key] = frozenset({"set"})
                    else:
                        out.pop(key, None)
            return out
        if isinstance(stmt, ast.AugAssign) \
                and isinstance(stmt.target, ast.Name):
            taint = evaluator.taint(stmt.value)
            out = dict(env)
            out[stmt.target.id] = env.get(stmt.target.id, NO_TAINT) | taint
            return out
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = evaluator.taint(stmt.iter)
            if _is_set_expr(stmt.iter, env):
                taint = taint | frozenset({"order"})
            out = dict(env)
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    out[node.id] = taint
            return out
        return env


def build_context(modules: list[ModuleInfo], graph: CallGraph):
    """Return-taint summaries: does calling fn yield a tainted value?"""
    module_by_path = {m.path: m for m in modules}

    def summarize(fn: FunctionInfo, get) -> Taint:
        module = module_by_path.get(fn.path)
        if module is None:
            return NO_TAINT
        # Cheap flow-insensitive over-approximation for the summary:
        # any taint source reaching any return makes the function
        # taint-returning.  (The per-function report pass is the
        # flow-sensitive one.)
        evaluator = _TaintEval(module, graph, fn, get, env={})
        sources: set[str] = set()
        returned: set[str] = set()
        assigns: dict[str, set[str]] = {}
        for node in iter_own_nodes(fn.node):
            if isinstance(node, ast.Assign):
                taint = evaluator.taint(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, set()).update(taint)
            elif isinstance(node, ast.Return) and node.value is not None:
                returned |= evaluator.taint(node.value)
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        returned |= assigns.get(sub.id, set())
        sources |= returned
        return frozenset(sources)

    return summary_fixpoint(graph, summarize, bottom=NO_TAINT)


def _finding(module: ModuleInfo, node: ast.AST, kinds: Taint,
             sink: str) -> Finding:
    kind = sorted(kinds)[0]
    labels = "/".join(_KIND_LABEL[k] for k in sorted(kinds))
    return Finding(
        path=module.path,
        line=node.lineno,
        col=node.col_offset + 1,
        rule=_KIND_RULE[kind],
        message=(
            f"{labels}-tainted value flows into {sink}; modeled "
            "quantities must be pure functions of the seeds "
            "(derive from virtual time / seeded RNGs / sorted order)"
        ),
        text=module.line_text(node.lineno),
    )


def _split(kinds: Taint) -> list[Taint]:
    """Separate DET101 (clock/entropy) from DET102 (order) findings."""
    det101 = frozenset(k for k in kinds if k in ("clock", "entropy"))
    det102 = frozenset(k for k in kinds if k == "order")
    return [k for k in (det101, det102) if k]


def check(module: ModuleInfo, graph: CallGraph | None = None,
          return_taints=None) -> list[Finding]:
    findings: list[Finding] = []
    return_taint_of = None
    if return_taints is not None and graph is not None:
        return_taint_of = lambda fn: return_taints.get(graph.key(fn))  # noqa: E731

    for fn in module.functions:
        cfg = build_cfg(fn.node)
        analysis = _TaintAnalysis(module, graph, fn, return_taint_of)
        envs = fixpoint(cfg, analysis)
        fn_is_modeled = dim_of_name(fn.name) is not None

        for nid, stmt in cfg.stmts.items():
            if stmt is None:
                continue
            env = envs.get(nid, {})
            evaluator = _TaintEval(module, graph, fn, return_taint_of, env)

            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                    and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                taint = evaluator.taint(stmt.value)
                if isinstance(stmt, ast.AugAssign) \
                        and isinstance(stmt.target, ast.Name):
                    taint = taint | env.get(stmt.target.id, NO_TAINT)
                if taint:
                    for target in targets:
                        name = target.id if isinstance(target, ast.Name) \
                            else target.attr \
                            if isinstance(target, ast.Attribute) else None
                        if name is not None and dim_of_name(name) is not None:
                            for kinds in _split(taint):
                                findings.append(_finding(
                                    module, stmt, kinds,
                                    f"modeled quantity '{name}'"))
            if isinstance(stmt, ast.Return) and stmt.value is not None \
                    and fn_is_modeled:
                taint = evaluator.taint(stmt.value)
                for kinds in _split(taint):
                    findings.append(_finding(
                        module, stmt, kinds,
                        f"the return value of modeled API "
                        f"'{fn.qualname}'"))
            for call in _own_calls(stmt):
                sink = _engine_sink(call)
                if sink is None:
                    continue
                for arg in list(call.args) + [kw.value
                                              for kw in call.keywords]:
                    taint = evaluator.taint(arg)
                    for kinds in _split(taint):
                        findings.append(_finding(module, arg, kinds, sink))
    unique = {(f.line, f.col, f.rule): f for f in findings}
    return list(unique.values())


def _own_calls(stmt: ast.stmt):
    from repro.lint.rules_unit import _expr_roots

    for root in _expr_roots(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                yield node


def _engine_sink(call: ast.Call) -> str | None:
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    if attr in ENGINE_TIME_SINKS:
        return f"engine time/work primitive '{attr}()'"
    if attr in PAYLOAD_SINKS:
        return f"message payload of '{attr}()'"
    return None
