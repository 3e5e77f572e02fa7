"""MPIS00x — static MPI schedules: the lint-time twin of the sanitizer.

The runtime sanitizer (:mod:`repro.simmpi.sanitizer`) catches protocol
violations — mismatched collectives, unreceived messages, deadlocks —
but only on the configurations a test actually runs.  This family
proves the same properties *statically*, by abstract interpretation of
rank programs:

1. **Rank-class enumeration.**  A rank program (a generator function)
   is interpreted once per *rank class*: each ``if rank == K`` /
   ``if comm.rank != K`` conditional splits the abstract state into the
   class that takes the branch (with ``rank = K`` now known) and the
   class that does not.  Statically decided branches prune — inside
   ``rank == 0`` a nested ``rank == 0`` test takes the true arm only.
2. **Schedule extraction.**  Each class accumulates its linear
   communication schedule: sends/recvs with literal ``dest``/
   ``source``/``tag`` where present, collectives with literal roots,
   loops as structural sub-schedules.  Early ``return`` ends the
   class's schedule, so a one-armed early return (the master finishes
   early, the workers run on) is compared on what each class really
   executes.
   Data-dependent (non-rank) branches with differing schedules mark
   the class *approximate*: its ops still join the matching pool, but
   it is exempt from exact-sequence comparison (no false positives
   from content-dependent protocols).

Rules:

* **MPIS001** — an exchange that can never match: a send whose literal
  ``(dest, tag)`` no recv in any rank class can accept, or a recv no
  send can satisfy (tag mismatch *through* branches, send to a rank
  class whose schedule never posts the recv).  Only checked when the
  function contains both halves of an exchange (the SPMD idiom) and
  the relevant literals are known.
* **MPIS002** — schedule asymmetry: two exact rank classes whose
  collective sequences (op + literal root, loops compared
  structurally) differ — the static form of the sanitizer's
  ``CollectiveMismatchError``/``DeadlockError``.
* **MPIS003** — guaranteed self-deadlock: a class with known rank K
  blocking-sends to ``dest=K`` or blocking-recvs from ``source=K``.

Cross-validated against the runtime sanitizer on the corpus under
``tests/lint_corpus/`` — every statically flagged program also aborts
under ``Simulator(sanitize=True)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.lint.findings import Finding
from repro.lint.model import (
    COLLECTIVE_METHODS,
    FunctionInfo,
    ModuleInfo,
    has_mpi_keywords,
    is_comm_receiver,
    receiver_name,
)

_SEND_OPS = {"send": ("dest", 1), "isend": ("dest", 1)}
_RECV_OPS = {"recv": ("source", 0), "irecv": ("source", 0)}
_BLOCKING = frozenset({"send", "recv"})

_RANK_NAMES = frozenset({"rank", "myrank", "my_rank", "wrank", "world_rank"})

#: splitting past this many classes means the function is not the SPMD
#: master/worker idiom these rules target — skip it entirely
MAX_CLASSES = 16


@dataclass(frozen=True)
class Op:
    """One communication operation in a class schedule."""

    kind: str           # "send" | "recv" | "coll"
    op: str             # method name as written
    peer: int | None    # literal dest (sends) / source (recvs)
    tag: int | None
    root: int | None    # collectives only
    line: int
    blocking: bool = True

    def sig(self):
        """Structural identity for schedule comparison."""
        if self.kind == "coll":
            return ("coll", self.op, self.root)
        return (self.kind, self.op, self.peer, self.tag)


@dataclass(frozen=True)
class Loop:
    """A loop's sub-schedule (trip counts are not modeled)."""

    body: tuple = ()
    line: int = 0

    def sig(self):
        return ("loop", tuple(item.sig() for item in self.body))


@dataclass
class RankClass:
    """Abstract state of one rank class during interpretation."""

    rank: int | None = None          # literal rank when known
    excluded: frozenset = frozenset()  # ranks this class can NOT be
    guards: tuple[str, ...] = ()     # human-readable path description
    ops: list = field(default_factory=list)
    done: bool = False               # hit a return/raise
    approx: bool = False             # contains a data-dependent schedule

    def describe(self) -> str:
        if self.rank is not None:
            return f"rank == {self.rank}"
        if self.guards:
            return " and ".join(self.guards)
        return "any rank"

    def matches_rank(self, k: int) -> bool:
        """Could a process of literal rank ``k`` be in this class?"""
        if self.rank is not None:
            return self.rank == k
        return k not in self.excluded


class _TooManyClasses(Exception):
    pass


def _rank_eq_test(test: ast.expr) -> tuple[str, int] | None:
    """``rank == K`` / ``rank != K`` with a literal K, else None."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    if not isinstance(op, (ast.Eq, ast.NotEq)):
        return None
    sides = [test.left, test.comparators[0]]
    rank_side = const_side = None
    for side in sides:
        if _is_rank_expr(side):
            rank_side = side
        elif isinstance(side, ast.Constant) and isinstance(side.value, int):
            const_side = side
    if rank_side is None or const_side is None:
        return None
    kind = "eq" if isinstance(op, ast.Eq) else "ne"
    return kind, const_side.value


def _is_rank_expr(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute) and expr.attr == "rank":
        return True
    if isinstance(expr, ast.Name) and expr.id in _RANK_NAMES:
        return True
    return False


def _is_rank_test(test: ast.expr) -> bool:
    return any(_is_rank_expr(node) for node in ast.walk(test))


def _literal(call: ast.Call, kwarg: str, pos: int | None) -> int | None:
    for kw in call.keywords:
        if kw.arg == kwarg and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, int):
            return kw.value.value
    if pos is not None and len(call.args) > pos:
        arg = call.args[pos]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
            return arg.value
    return None


def _comm_ops(stmt: ast.stmt) -> list[Op]:
    """Communication ops a simple statement performs, in source order."""
    ops: list[Op] = []
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call) \
                or not isinstance(node.func, ast.Attribute):
            continue
        recv = receiver_name(node.func.value)
        if not (is_comm_receiver(recv) or has_mpi_keywords(node)):
            continue
        name = node.func.attr
        if name in _SEND_OPS:
            kwarg, pos = _SEND_OPS[name]
            ops.append(Op("send", name, _literal(node, kwarg, pos),
                          _literal(node, "tag", pos + 1), None,
                          node.lineno, blocking=name in _BLOCKING))
        elif name in _RECV_OPS:
            kwarg, pos = _RECV_OPS[name]
            ops.append(Op("recv", name, _literal(node, kwarg, pos),
                          _literal(node, "tag", pos + 1), None,
                          node.lineno, blocking=name in _BLOCKING))
        elif name == "sendrecv":
            ops.append(Op("send", name, _literal(node, "dest", None),
                          _literal(node, "sendtag", None), None,
                          node.lineno))
            ops.append(Op("recv", name, _literal(node, "source", None),
                          _literal(node, "recvtag", None), None,
                          node.lineno))
        elif name in COLLECTIVE_METHODS:
            ops.append(Op("coll", name, None, None,
                          _literal(node, "root", None), node.lineno))
    ops.sort(key=lambda op: op.line)
    return ops


def _interpret(body: list[ast.stmt],
               classes: list[RankClass]) -> list[RankClass]:
    for stmt in body:
        classes = _step(stmt, classes)
        if len(classes) > MAX_CLASSES:
            raise _TooManyClasses
    return classes


def _live(classes: list[RankClass]) -> list[RankClass]:
    return [c for c in classes if not c.done]


def _step(stmt: ast.stmt, classes: list[RankClass]) -> list[RankClass]:
    if isinstance(stmt, ast.If):
        return _step_if(stmt, classes)
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        return _step_loop(stmt, classes)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _interpret(stmt.body, classes)
    if isinstance(stmt, ast.Try):
        out = _interpret(stmt.body, classes)
        handler_ops = [op for h in stmt.handlers
                       for s in h.body for op in _comm_ops(s)]
        if handler_ops:
            for cls in _live(out):
                cls.ops.extend(handler_ops)
                cls.approx = True
        if stmt.finalbody:
            out = _interpret(stmt.finalbody, out)
        return out
    if isinstance(stmt, (ast.Return, ast.Raise)):
        for cls in _live(classes):
            cls.ops.extend(_comm_ops(stmt))
            cls.done = True
        return classes
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return classes
    for cls in _live(classes):
        cls.ops.extend(_comm_ops(stmt))
    return classes


def _clone(cls: RankClass) -> RankClass:
    return replace(cls, ops=list(cls.ops), guards=tuple(cls.guards))


def _step_if(stmt: ast.If, classes: list[RankClass]) -> list[RankClass]:
    done = [c for c in classes if c.done]
    live = _live(classes)
    if not live:
        return classes
    eq = _rank_eq_test(stmt.test)
    if eq is not None:
        kind, k = eq
        out: list[RankClass] = list(done)
        for cls in live:
            take, skip = [], []
            if cls.rank is not None:
                # Statically decided: only one arm is reachable.
                taken = (cls.rank == k) if kind == "eq" else (cls.rank != k)
                (take if taken else skip).append(_clone(cls))
            elif kind == "eq":
                if k not in cls.excluded:
                    t = _clone(cls)
                    t.rank = k
                    t.guards = cls.guards + (f"rank == {k}",)
                    take.append(t)
                s = _clone(cls)
                s.excluded = cls.excluded | {k}
                s.guards = cls.guards + (f"rank != {k}",)
                skip.append(s)
            else:  # "ne": the true arm is rank != k
                t = _clone(cls)
                t.excluded = cls.excluded | {k}
                t.guards = cls.guards + (f"rank != {k}",)
                take.append(t)
                if k not in cls.excluded:
                    s = _clone(cls)
                    s.rank = k
                    s.guards = cls.guards + (f"rank == {k}",)
                    skip.append(s)
            out.extend(_interpret(stmt.body, take))
            out.extend(_interpret(stmt.orelse, skip))
        return out
    if _is_rank_test(stmt.test):
        # Rank-dependent but not a literal equality: still split so the
        # two schedules are compared, without learning the rank value.
        out = list(done)
        for cls in live:
            t = _clone(cls)
            t.guards = cls.guards + (f"rank-cond@{stmt.lineno}",)
            s = _clone(cls)
            s.guards = cls.guards + (f"not rank-cond@{stmt.lineno}",)
            out.extend(_interpret(stmt.body, [t]))
            out.extend(_interpret(stmt.orelse, [s]))
        return out
    # Data-dependent branch: same rank class both ways.  Equal
    # schedules append exactly; differing ones make the class
    # approximate (ops still pooled for matching).
    for cls in live:
        true_ops, true_approx = _branch_ops(stmt.body, cls)
        false_ops, false_approx = _branch_ops(stmt.orelse, cls)
        if true_approx or false_approx:
            cls.ops.extend(true_ops + false_ops)
            cls.approx = True
        elif [o.sig() for o in true_ops] == [o.sig() for o in false_ops]:
            cls.ops.extend(true_ops)
        else:
            cls.ops.extend(true_ops + false_ops)
            cls.approx = True
    return classes


def _branch_ops(body: list[ast.stmt], cls: RankClass):
    """Linear schedule of a data-dependent branch, for one class."""
    probe = replace(cls, ops=[], done=False, approx=False)
    try:
        result = _interpret(body, [probe])
    except _TooManyClasses:
        return [], True
    if len(result) != 1 or result[0].approx:
        ops = [op for r in result for op in r.ops]
        return ops, True
    return result[0].ops, False


def _step_loop(stmt, classes: list[RankClass]) -> list[RankClass]:
    for cls in _live(classes):
        body_ops, approx = _branch_ops(stmt.body, cls)
        if body_ops:
            if approx:
                cls.ops.extend(body_ops)
                cls.approx = True
            else:
                cls.ops.append(Loop(tuple(body_ops), stmt.lineno))
        if getattr(stmt, "orelse", None):
            else_ops, else_approx = _branch_ops(stmt.orelse, cls)
            cls.ops.extend(else_ops)
            if else_approx:
                cls.approx = True
    return classes


def _flat_ops(items) -> list[Op]:
    out: list[Op] = []
    for item in items:
        if isinstance(item, Loop):
            out.extend(_flat_ops(item.body))
        else:
            out.append(item)
    return out


def _finding(module: ModuleInfo, line: int, rule: str,
             message: str) -> Finding:
    return Finding(path=module.path, line=line, col=1, rule=rule,
                   message=message, text=module.line_text(line))


def _check_matching(module: ModuleInfo, fn: FunctionInfo,
                    classes: list[RankClass]) -> list[Finding]:
    """MPIS001: sends/recvs that no counterpart can ever satisfy."""
    findings: list[Finding] = []
    sends = [(cls, op) for cls in classes for op in _flat_ops(cls.ops)
             if op.kind == "send"]
    recvs = [(cls, op) for cls in classes for op in _flat_ops(cls.ops)
             if op.kind == "recv"]
    if not sends or not recvs:
        return findings  # the other half lives elsewhere: out of scope

    def tag_ok(a: int | None, b: int | None) -> bool:
        return a is None or b is None or a == b

    for s_cls, send in sends:
        if send.peer is None:
            continue
        # Some recv, in a class the destination rank could be in, with a
        # compatible tag and source, must exist.
        matched = False
        for r_cls, recv in recvs:
            if not r_cls.matches_rank(send.peer):
                continue
            if not tag_ok(send.tag, recv.tag):
                continue
            if recv.peer is not None and s_cls.rank is not None \
                    and recv.peer != s_cls.rank:
                continue
            matched = True
            break
        if not matched:
            findings.append(_finding(
                module, send.line, "MPIS001",
                f"in {fn.qualname!r} the send to rank {send.peer} "
                f"(tag={send.tag}) has no reachable matching receive in "
                f"any rank class; the message is never consumed",
            ))
    for r_cls, recv in recvs:
        if recv.tag is None:
            continue
        matched = False
        for s_cls, send in sends:
            if not tag_ok(send.tag, recv.tag):
                continue
            if recv.peer is not None and not s_cls.matches_rank(recv.peer):
                continue
            if send.peer is not None and r_cls.rank is not None \
                    and send.peer != r_cls.rank:
                continue
            matched = True
            break
        if not matched:
            findings.append(_finding(
                module, recv.line, "MPIS001",
                f"in {fn.qualname!r} the receive (source={recv.peer}, "
                f"tag={recv.tag}) in class [{r_cls.describe()}] can never "
                f"be satisfied by any send; the rank parks forever",
            ))
    return findings


def _coll_schedule(cls: RankClass) -> tuple:
    out = []
    for item in cls.ops:
        if isinstance(item, Loop):
            sub = _coll_schedule_items(item.body)
            if sub:
                out.append(("loop", sub))
        elif item.kind == "coll":
            out.append(("coll", item.op, item.root))
    return tuple(out)


def _coll_schedule_items(items) -> tuple:
    out = []
    for item in items:
        if isinstance(item, Loop):
            sub = _coll_schedule_items(item.body)
            if sub:
                out.append(("loop", sub))
        elif item.kind == "coll":
            out.append(("coll", item.op, item.root))
    return tuple(out)


def _describe_schedule(schedule: tuple) -> str:
    parts = []
    for item in schedule:
        if item[0] == "loop":
            parts.append(f"loop[{_describe_schedule(item[1])}]")
        else:
            _, op, root = item
            parts.append(op if root is None else f"{op}(root={root})")
    return " -> ".join(parts) or "none"


def _check_symmetry(module: ModuleInfo, fn: FunctionInfo,
                    classes: list[RankClass]) -> list[Finding]:
    """MPIS002: exact rank classes with differing collective schedules."""
    exact = [c for c in classes if not c.approx]
    findings: list[Finding] = []
    reported = False
    for i, a in enumerate(exact):
        for b in exact[i + 1:]:
            if reported:
                break
            sa, sb = _coll_schedule(a), _coll_schedule(b)
            if sa != sb:
                line = min((op.line for op in _flat_ops(a.ops + b.ops)
                            if op.kind == "coll"),
                           default=fn.node.lineno)
                findings.append(_finding(
                    module, line, "MPIS002",
                    f"in {fn.qualname!r} rank class [{a.describe()}] runs "
                    f"collectives {_describe_schedule(sa)} but class "
                    f"[{b.describe()}] runs {_describe_schedule(sb)}; "
                    "every rank of the communicator must execute the "
                    "same collective sequence",
                ))
                reported = True
    return findings


def _check_self_deadlock(module: ModuleInfo, fn: FunctionInfo,
                         classes: list[RankClass]) -> list[Finding]:
    """MPIS003: a known-rank class blocking on a message to/from itself."""
    findings: list[Finding] = []
    for cls in classes:
        if cls.rank is None:
            continue
        for op in _flat_ops(cls.ops):
            if op.kind in ("send", "recv") and op.blocking \
                    and op.peer == cls.rank:
                what = "sends to" if op.kind == "send" else "receives from"
                findings.append(_finding(
                    module, op.line, "MPIS003",
                    f"in {fn.qualname!r} rank class [{cls.describe()}] "
                    f"{what} its own rank {op.peer} with a blocking "
                    f"{op.op}; no other process can complete the "
                    "operation — guaranteed deadlock",
                ))
    return findings


def check(module: ModuleInfo, graph=None, context=None) -> list[Finding]:
    findings: list[Finding] = []
    for fn in module.functions:
        if not fn.is_generator:
            continue  # not a rank program
        try:
            classes = _interpret(list(fn.node.body), [RankClass()])
        except (_TooManyClasses, RecursionError):
            continue
        if len(classes) < 2:
            # A single class can still self-deadlock.
            findings.extend(_check_self_deadlock(module, fn, classes))
            continue
        findings.extend(_check_matching(module, fn, classes))
        findings.extend(_check_symmetry(module, fn, classes))
        findings.extend(_check_self_deadlock(module, fn, classes))
    unique = {(f.line, f.rule, f.message): f for f in findings}
    return list(unique.values())
