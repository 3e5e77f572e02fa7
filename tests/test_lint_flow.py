"""The flow layer under the semantic lint families: CFG construction,
the forward-dataflow fixpoint, and def-use chains.
"""

import ast

from repro.lint.flow.callgraph import build_call_graph, summary_fixpoint
from repro.lint.flow.cfg import ENTRY, EXIT, build_cfg
from repro.lint.flow.dataflow import (
    SimpleAnalysis,
    assigned_names,
    def_use_chains,
    fixpoint,
    reaching_definitions,
)
from repro.lint.model import parse_module


def _cfg(body: str):
    tree = ast.parse(body)
    fnode = tree.body[0]
    assert isinstance(fnode, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(fnode)


def _node_of(cfg, line: int) -> int:
    for nid, stmt in cfg.stmts.items():
        if stmt is not None and stmt.lineno == line:
            return nid
    raise AssertionError(f"no CFG node at line {line}")


class TestCfgConstruction:
    def test_straight_line_chains_entry_to_exit(self):
        cfg = _cfg("def f():\n    a = 1\n    b = a\n    return b\n")
        a, b, ret = _node_of(cfg, 2), _node_of(cfg, 3), _node_of(cfg, 4)
        assert cfg.succ[ENTRY] == [a]
        assert cfg.succ[a] == [b]
        assert cfg.succ[b] == [ret]
        assert cfg.succ[ret] == [EXIT]

    def test_if_without_else_falls_through_from_header(self):
        cfg = _cfg("def f(x):\n    if x:\n        y = 1\n    return x\n")
        header = _node_of(cfg, 2)
        body = _node_of(cfg, 3)
        ret = _node_of(cfg, 4)
        assert set(cfg.succ[header]) == {body, ret}
        assert cfg.succ[body] == [ret]

    def test_loop_has_back_edge_and_break_leaves(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n"
            "            break\n"
            "        y = x\n"
            "    return 0\n"
        )
        header = _node_of(cfg, 2)
        brk = _node_of(cfg, 4)
        last = _node_of(cfg, 5)
        ret = _node_of(cfg, 6)
        assert header in cfg.succ[last], "loop body must loop back"
        assert cfg.succ[brk] == [ret], "break must jump past the loop"
        assert ret in cfg.succ[header], "exhaustion leaves the loop"

    def test_continue_returns_to_loop_header(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    while xs:\n"
            "        if xs:\n"
            "            continue\n"
            "        y = 1\n"
            "    return 0\n"
        )
        header = _node_of(cfg, 2)
        cont = _node_of(cfg, 4)
        assert cfg.succ[cont] == [header]

    def test_early_return_does_not_fall_through(self):
        cfg = _cfg(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    y = 2\n"
            "    return y\n"
        )
        early = _node_of(cfg, 3)
        after = _node_of(cfg, 4)
        assert cfg.succ[early] == [EXIT]
        assert early not in cfg.pred[after]

    def test_try_body_edges_reach_the_handler(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        a = 1\n"
            "        b = 2\n"
            "    except ValueError:\n"
            "        c = 3\n"
            "    return 0\n"
        )
        a, b = _node_of(cfg, 3), _node_of(cfg, 4)
        handler = _node_of(cfg, 6)
        # The exception may surface at either statement of the body.
        assert handler in cfg.succ[a]
        assert handler in cfg.succ[b]

    def test_finally_joins_both_paths(self):
        cfg = _cfg(
            "def f():\n"
            "    try:\n"
            "        a = 1\n"
            "    except ValueError:\n"
            "        b = 2\n"
            "    finally:\n"
            "        c = 3\n"
            "    return 0\n"
        )
        a, b, fin = _node_of(cfg, 3), _node_of(cfg, 5), _node_of(cfg, 7)
        assert fin in cfg.succ[a]
        assert fin in cfg.succ[b]

    def test_nested_def_is_not_walked(self):
        cfg = _cfg(
            "def f():\n"
            "    def g():\n"
            "        hidden = 1\n"
            "    return g\n"
        )
        lines = {s.lineno for s in cfg.stmts.values() if s is not None}
        assert 3 not in lines


class TestFixpoint:
    @staticmethod
    def _const_analysis():
        # Tiny constant-propagation lattice: int value or "?" at joins.
        def transfer(stmt, env):
            if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Constant):
                env = dict(env)
                env[stmt.targets[0].id] = stmt.value.value
            return env

        return SimpleAnalysis(transfer, lambda a, b: "?" if a != b else a)

    def test_branch_join_widens_disagreeing_values(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    else:\n"
            "        x = 2\n"
            "    return x\n"
        )
        envs = fixpoint(cfg, self._const_analysis())
        assert envs[_node_of(cfg, 6)]["x"] == "?"

    def test_same_value_on_both_branches_survives_the_join(self):
        cfg = _cfg(
            "def f(c):\n"
            "    if c:\n"
            "        x = 5\n"
            "    else:\n"
            "        x = 5\n"
            "    return x\n"
        )
        envs = fixpoint(cfg, self._const_analysis())
        assert envs[_node_of(cfg, 6)]["x"] == 5

    def test_loop_reaches_a_fixpoint(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    x = 1\n"
            "    for i in xs:\n"
            "        x = 2\n"
            "    return x\n"
        )
        envs = fixpoint(cfg, self._const_analysis())
        # After zero iterations x is 1, after one or more it is 2.
        assert envs[_node_of(cfg, 5)]["x"] == "?"

    def test_code_after_return_is_unreachable(self):
        cfg = _cfg(
            "def f():\n"
            "    x = 1\n"
            "    return x\n"
            "    x = 2\n"
        )
        envs = fixpoint(cfg, self._const_analysis())
        assert envs[_node_of(cfg, 4)] == {}


class TestDefUse:
    def test_reaching_definitions_merge_across_branches(self):
        cfg = _cfg(
            "def f(c):\n"
            "    x = 1\n"
            "    if c:\n"
            "        x = 2\n"
            "    return x\n"
        )
        chains = def_use_chains(cfg)
        ret = _node_of(cfg, 5)
        defs = chains[(ret, "x")]
        assert defs == {_node_of(cfg, 2), _node_of(cfg, 4)}

    def test_early_return_kills_the_shadowing_def(self):
        cfg = _cfg(
            "def f(c):\n"
            "    x = 1\n"
            "    if c:\n"
            "        x = 2\n"
            "        return x\n"
            "    return x\n"
        )
        chains = def_use_chains(cfg)
        final = _node_of(cfg, 6)
        assert chains[(final, "x")] == {_node_of(cfg, 2)}

    def test_loop_carried_definition_reaches_the_header_use(self):
        cfg = _cfg(
            "def f(xs):\n"
            "    acc = 0\n"
            "    for x in xs:\n"
            "        acc = acc + x\n"
            "    return acc\n"
        )
        chains = def_use_chains(cfg)
        body = _node_of(cfg, 4)
        assert chains[(body, "acc")] == {_node_of(cfg, 2), body}

    def test_parameters_have_no_in_function_definition(self):
        cfg = _cfg("def f(p):\n    return p\n")
        chains = def_use_chains(cfg)
        assert chains[(_node_of(cfg, 2), "p")] == frozenset()

    def test_assigned_names_covers_augassign_and_walrus(self):
        stmt = ast.parse("total_j += (dt := step())").body[0]
        assert set(assigned_names(stmt)) == {"total_j", "dt"}

    def test_reaching_definitions_shape(self):
        cfg = _cfg("def f():\n    a = 1\n    return a\n")
        reach = reaching_definitions(cfg)
        ret = _node_of(cfg, 3)
        assert reach[ret]["a"] == {_node_of(cfg, 2)}


class TestCallGraphSummaries:
    def test_summary_fixpoint_converges_through_wrapper_chains(self):
        source = (
            "def base():\n    return 1\n"
            "def wrap():\n    return base()\n"
            "def wrap2():\n    return wrap()\n"
        )
        module = parse_module(source, "m.py")
        graph = build_call_graph([module])

        def summarize(fn, get):
            if fn.name == "base":
                return "tainted"
            calls = graph.calls.get(graph.key(fn), [])
            for site in calls:
                for callee in graph.resolve(site, fn):
                    if get(callee) == "tainted":
                        return "tainted"
            return None

        summaries = summary_fixpoint(graph, summarize)
        by_name = {key[1]: value for key, value in summaries.items()}
        assert by_name == {"base": "tainted", "wrap": "tainted",
                          "wrap2": "tainted"}

    def test_same_module_definition_wins_resolution(self):
        m1 = parse_module("def helper():\n    return 1\n"
                          "def caller():\n    return helper()\n", "a.py")
        m2 = parse_module("def helper():\n    return 2\n", "b.py")
        graph = build_call_graph([m1, m2])
        caller = graph.by_qualname[("a.py", "caller")]
        site = graph.calls[("a.py", "caller")][0]
        resolved = graph.resolve(site, caller)
        assert [fn.path for fn in resolved] == ["a.py"]
