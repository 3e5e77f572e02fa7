"""repro.lint: one good/bad fixture pair per rule family, plus the
suppression syntax, the JSON output, the baseline ratchet, and the
self-hosting guarantee (the linter reports nothing on this repository).
"""

import json
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.findings import Finding
from repro.lint.runner import LintOptions, lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return [f.rule for f in findings]


def lint(snippet: str, **kwargs):
    return lint_source(textwrap.dedent(snippet), path="snippet.py", **kwargs)


# --------------------------------------------------------------- SIM001
class TestSim001:
    def test_bad_discarded_simcall(self):
        findings = lint("""
            def program(comm):
                comm.barrier()
                yield from comm.send(1, dest=0, tag=3)
        """)
        assert rules_of(findings) == ["SIM001"]
        assert "comm.barrier" in findings[0].message
        assert findings[0].line == 3

    def test_bad_assigned_but_never_driven(self):
        findings = lint("""
            def program(comm):
                data = comm.recv(source=0, tag=3)
                yield from comm.barrier()
                return 0
        """)
        assert rules_of(findings) == ["SIM001"]
        assert "'data'" in findings[0].message

    def test_good_assigned_then_returned(self):
        # Returning the handle passes responsibility to the caller.
        findings = lint("""
            def program(comm):
                data = comm.recv(source=0, tag=3)
                yield from comm.barrier()
                return data
        """)
        assert findings == []

    def test_good_yield_from(self):
        findings = lint("""
            def program(comm):
                data = yield from comm.recv(source=0, tag=3)
                yield from comm.send(data, dest=1, tag=3)
                return data
        """)
        assert findings == []

    def test_good_returned_to_caller(self):
        # The dispatcher pattern: builds a generator and hands it back.
        findings = lint("""
            def dispatch(comm, payload):
                return comm.bcast(payload, root=0)
        """)
        assert findings == []

    def test_transitive_inference_through_wrapper(self):
        # helper() is simcall-returning only transitively (it returns a
        # call to a generator); dropping its result must be flagged.
        findings = lint("""
            def leaf(comm):
                yield from comm.barrier()

            def helper(comm):
                return leaf(comm)

            def program(comm):
                helper(comm)
                yield from comm.barrier()
        """)
        assert rules_of(findings) == ["SIM001"]
        assert "helper" in findings[0].message

    def test_good_generator_send_not_flagged(self):
        # ``self.gen.send(value)`` is generator resumption, not MPI.
        findings = lint("""
            def pump(self, value):
                self.gen.send(value)
        """)
        assert findings == []

    def test_mpi_keywords_flag_unconventional_receiver(self):
        findings = lint("""
            def program(alive):
                alive.send("ping", dest=0, tag=99)
                yield
        """)
        assert rules_of(findings) == ["SIM001"]


# ------------------------------------------------------ DET00x, DET101
class TestDet:
    def test_bad_wall_clock(self):
        findings = lint("""
            import time

            def run(ctx):
                t0 = time.perf_counter()
                yield from ctx.elapse(time.perf_counter() - t0)
        """)
        assert rules_of(findings) == ["DET101"]

    def test_bad_wall_clock_through_alias(self):
        findings = lint("""
            from time import perf_counter as pc

            def run(ctx):
                t0 = pc()
                yield from ctx.elapse(pc() - t0)
        """)
        assert rules_of(findings) == ["DET101"]

    def test_good_wall_clock_read_that_models_nothing(self):
        # Reading the host clock is not a defect; only its value reaching
        # a modeled quantity is (DET101).
        findings = lint("""
            import time

            def measure():
                return time.perf_counter()
        """)
        assert findings == []

    def test_bad_global_rng(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()
        """)
        assert rules_of(findings) == ["DET002"]

    def test_bad_unseeded_default_rng(self):
        findings = lint("""
            import numpy as np

            def make_rng():
                return np.random.default_rng()
        """)
        assert rules_of(findings) == ["DET002"]

    def test_good_seeded_rng(self):
        findings = lint("""
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
        """)
        assert findings == []

    def test_bad_set_iteration(self):
        findings = lint("""
            def order(items):
                for x in set(items):
                    yield x
        """)
        assert rules_of(findings) == ["DET003"]

    def test_good_sorted_set_iteration(self):
        findings = lint("""
            def order(items):
                for x in sorted(set(items)):
                    yield x
        """)
        assert findings == []

    def test_det_scoped_to_core_paths(self):
        source = textwrap.dedent("""
            import random

            def jitter():
                return random.random()
        """)
        scoped = LintOptions(det_scope=("src/repro",))
        assert lint_source(source, path="tools/bench.py",
                           options=scoped) == []
        flagged = lint_source(source, path="src/repro/x.py",
                              options=scoped)
        assert rules_of(flagged) == ["DET002"]


# ------------------------------------------------------- MPI003, MPIS00x
class TestMpi:
    def test_bad_disjoint_tags(self):
        findings = lint("""
            def exchange(comm, rank):
                if rank == 0:
                    yield from comm.send(1, dest=1, tag=10)
                else:
                    x = yield from comm.recv(source=0, tag=20)
        """)
        assert "MPIS001" in rules_of(findings)

    def test_good_matching_tags(self):
        findings = lint("""
            def exchange(comm, rank):
                if rank == 0:
                    yield from comm.send(1, dest=1, tag=10)
                else:
                    x = yield from comm.recv(source=0, tag=10)
        """)
        assert findings == []

    def test_bad_asymmetric_collective(self):
        findings = lint("""
            def program(comm):
                if comm.rank == 0:
                    data = yield from comm.bcast("x", root=0)
                else:
                    data = yield from comm.recv(source=0, tag=1)
        """)
        assert "MPIS002" in rules_of(findings)

    def test_good_symmetric_collective(self):
        findings = lint("""
            def program(comm, rows):
                if comm.rank == 0:
                    data = yield from comm.bcast(rows, root=0)
                else:
                    data = yield from comm.bcast(None, root=0)
        """)
        assert findings == []

    def test_bad_unfenced_papi(self):
        findings = lint("""
            def monitor(comm, papi):
                papi.start()
                yield from comm.barrier()
        """)
        assert "MPI003" in rules_of(findings)

    def test_good_fenced_papi(self):
        findings = lint("""
            def monitor(comm, papi):
                yield from comm.barrier()
                papi.start()
                yield from comm.barrier()
        """)
        assert findings == []

    def test_papi_rule_ignores_non_generators(self):
        # External observers are not rank programs: never fenced, never
        # flagged.
        findings = lint("""
            def external_observer(papi):
                papi.start()
        """)
        assert findings == []


# --------------------------------------------------------------- OBS001
class TestObs:
    def test_bad_span_never_entered(self):
        findings = lint("""
            def program(ctx):
                ctx.span("phase")
                yield
        """)
        assert rules_of(findings) == ["OBS001"]

    def test_bad_begin_span_handle_dropped(self):
        findings = lint("""
            def record(tracer):
                span = tracer.begin_span("x", cat="c", pid=0, tid=0)
                return 1
        """)
        assert rules_of(findings) == ["OBS001"]

    def test_good_with_span(self):
        findings = lint("""
            def program(ctx):
                with ctx.span("phase"):
                    yield
        """)
        assert findings == []

    def test_good_begin_end_pair(self):
        findings = lint("""
            def record(tracer):
                span = tracer.begin_span("x", cat="c", pid=0, tid=0)
                tracer.end_span(span)
        """)
        assert findings == []

    def test_good_attribute_store_exempt(self):
        # The monitor's bracket span is closed by a different method.
        findings = lint("""
            def start(self, tracer):
                self._bracket = tracer.begin_span("b", cat="c", pid=0, tid=0)
        """)
        assert findings == []


class TestFast001:
    def test_bad_unconditional_dispatch(self):
        findings = lint("""
            from repro.simmpi import fastcoll

            def bcast(self, payload, root):
                return fastcoll.fast_bcast(self, payload, root)
        """)
        assert rules_of(findings) == ["FAST001"]
        assert "unconditionally" in findings[0].message

    def test_bad_guard_without_gate(self):
        findings = lint("""
            from repro.simmpi import fastp2p

            def send(self, payload, dest, tag):
                if tag >= 0:
                    return fastp2p.fast_send(self, payload, dest, tag)
                return self._send_message(payload, dest, tag)
        """)
        assert rules_of(findings) == ["FAST001"]
        assert "fast_p2p/fast_collectives" in findings[0].message

    def test_good_gated_ternary(self):
        findings = lint("""
            from repro.simmpi import fastcoll

            def bcast(self, payload, root):
                world = self.world
                return (fastcoll.fast_bcast(self, payload, root)
                        if world.sim.fast_collectives
                        else self._bcast_message(payload, root))
        """)
        assert findings == []

    def test_good_gate_helper_indirection(self):
        # The _flow_send_ok pattern: the guard calls a same-module
        # helper whose body reads the engine gate.
        findings = lint("""
            from repro.simmpi import fastp2p

            def _flow_send_ok(self, dest, tag):
                return self.world.sim.fast_p2p and tag >= 0

            def send(self, payload, dest, tag):
                if self._flow_send_ok(dest, tag):
                    return fastp2p.fast_send(self, payload, dest, tag)
                return self._send_message(payload, dest, tag)
        """)
        assert findings == []

    def test_non_fast_importers_exempt(self):
        findings = lint("""
            def bcast(helper, payload):
                return helper.fast_bcast(payload)
        """)
        assert findings == []

    def test_suppressed(self):
        findings = lint("""
            from repro.simmpi import fastcoll

            def replay(self, payload, root):
                return fastcoll.fast_bcast(self, payload, root)  # repro: allow[FAST001] -- replay tool
        """)
        assert findings == []


# -------------------------------------------------------------- PERF001
class TestPerf001:
    def test_bad_outer_update_in_level_loop(self):
        findings = lint("""
            import numpy as np

            def program(ctx, comm, r_local, n):
                for level in range(n):
                    m = yield from comm.bcast(r_local[level], root=0)
                    r_local[level:, :] -= np.outer(r_local[level:, level], m)
        """)
        assert rules_of(findings) == ["PERF001"]
        assert "PanelAccumulator" in findings[0].message
        assert findings[0].line == 7

    def test_bad_from_import_alias(self):
        findings = lint("""
            from numpy import outer as rank1

            def program(comm, table, n):
                for level in range(n):
                    chat = yield from comm.bcast(table[:, level], root=0)
                    table[level:, :] += rank1(chat, table[level])
        """)
        assert rules_of(findings) == ["PERF001"]

    def test_good_sequential_solver_exempt(self):
        # Not a generator — a single-rank reference solver may stay
        # level-wise.
        findings = lint("""
            import numpy as np

            def solve(a, n):
                for k in range(n):
                    a[k + 1:, k:] -= np.outer(a[k + 1:, k], a[k, k:])
        """)
        assert findings == []

    def test_good_outer_outside_loop(self):
        findings = lint("""
            import numpy as np

            def program(comm, table, m, chat):
                yield from comm.barrier()
                table[1:, :] -= np.outer(chat, m)
        """)
        assert findings == []

    def test_good_non_numpy_outer(self):
        findings = lint("""
            import mylib as np

            def program(comm, table, n):
                for level in range(n):
                    yield from comm.barrier()
                    table[level:, :] -= np.outer(level)
        """)
        assert findings == []

    def test_suppressed(self):
        findings = lint("""
            import numpy as np

            def program(comm, table, n):
                for level in range(n):
                    m = yield from comm.bcast(table[level], root=0)
                    # repro: allow[PERF001] -- reference path
                    table[level:, :] -= np.outer(table[level:, level], m)
        """)
        assert findings == []


# -------------------------------------------------------------- PERF002
class TestPerf002:
    IN_SCOPE = "src/repro/simmpi/fastcoll.py"

    def lint_at(self, snippet: str, path: str):
        return lint_source(textwrap.dedent(snippet), path=path)

    def test_bad_per_rank_loop_in_fast_engine(self):
        findings = self.lint_at("""
            def _fused_times(world, size, root):
                times = {}
                for r in range(size):
                    times[r] = world.transfer(root, r)
                return times
        """, self.IN_SCOPE)
        assert rules_of(findings) == ["PERF002"]
        assert "aggregate" in findings[0].message
        assert findings[0].line == 4

    def test_bad_size_in_any_range_bound(self):
        findings = self.lint_at("""
            def _chain(size):
                for step in range(1, 2 * size - 1):
                    pass
        """, "src/repro/simmpi/fastp2p.py")
        assert rules_of(findings) == ["PERF002"]

    def test_good_comprehension_exempt(self):
        # Comprehensions build the vector inputs the closed forms
        # consume — only statement loops are flagged.
        findings = self.lint_at("""
            def _inputs(world, size, root):
                return [world.node_of(r) for r in range(size)]
        """, self.IN_SCOPE)
        assert findings == []

    def test_good_range_not_size_bounded(self):
        findings = self.lint_at("""
            def _levels(depth):
                for level in range(depth):
                    pass
        """, self.IN_SCOPE)
        assert findings == []

    def test_good_outside_fast_engines(self):
        findings = self.lint_at("""
            def scatter(size):
                for r in range(size):
                    pass
        """, "src/repro/simmpi/comm.py")
        assert findings == []

    def test_suppressed_reference_path(self):
        findings = self.lint_at("""
            def _fused_times_scalar(world, size, root):
                # repro: allow[PERF002] -- retained per-edge reference
                for r in range(size):
                    world.transfer(root, r)
        """, self.IN_SCOPE)
        assert findings == []


# --------------------------------------------------------------- CFG001
class TestCfg001:
    IN_SCOPE = "src/repro/experiments/snippet.py"

    def lint_at(self, snippet: str, path: str):
        return lint_source(textwrap.dedent(snippet), path=path)

    def test_bad_inline_grid_in_experiments(self):
        findings = self.lint_at("""
            from repro.experiments.configs import EvaluationGrid

            def tasks():
                return list(EvaluationGrid(ranks=(4,)))
        """, self.IN_SCOPE)
        assert rules_of(findings) == ["CFG001"]
        assert "repro.experiments.spec" in findings[0].message
        assert findings[0].line == 5

    def test_bad_inline_machine_via_module_attr(self):
        findings = self.lint_at("""
            from repro.cluster import machine

            def custom():
                return machine.MachineSpec(name="adhoc")
        """, self.IN_SCOPE)
        assert rules_of(findings) == ["CFG001"]
        assert "MachineSpec" in findings[0].message

    def test_good_spec_loader_path(self):
        # Loading through the declarative subsystem is the blessed route.
        findings = self.lint_at("""
            from repro.experiments.spec import load_spec, compile_tasks

            def tasks(path):
                return compile_tasks(load_spec(path))
        """, self.IN_SCOPE)
        assert findings == []

    def test_good_outside_experiments_scope(self):
        # Cluster presets and tests construct machines legitimately.
        findings = self.lint_at("""
            from repro.cluster.machine import MachineSpec

            def preset():
                return MachineSpec(name="small")
        """, "src/repro/cluster/presets.py")
        assert findings == []

    def test_suppressed_canonical_constructor(self):
        findings = self.lint_at("""
            from repro.experiments.configs import EvaluationGrid

            def paper_tasks():
                # repro: allow[CFG001] -- canonical constructor path
                return list(EvaluationGrid())
        """, self.IN_SCOPE)
        assert findings == []


# --------------------------------------------------------- suppressions
class TestSuppressions:
    def test_inline_allow(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # repro: allow[DET002] -- demo
        """)
        assert findings == []

    def test_comment_line_above(self):
        findings = lint("""
            import random

            def jitter():
                # repro: allow[DET002] -- demo
                return random.random()
        """)
        assert findings == []

    def test_family_prefix(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # repro: allow[DET]
        """)
        assert findings == []

    def test_wrong_rule_does_not_suppress(self):
        findings = lint("""
            import random

            def jitter():
                return random.random()  # repro: allow[SIM001]
        """)
        assert rules_of(findings) == ["DET002"]


# ------------------------------------------------------------- baseline
class TestBaseline:
    def _finding(self, text="x = 1", path="a.py", rule="DET002", line=3):
        return Finding(path=path, line=line, col=1, rule=rule,
                       message="m", text=text)

    def test_roundtrip_and_subtraction(self, tmp_path):
        old = [self._finding(), self._finding(text="y = 2")]
        path = tmp_path / "baseline.json"
        write_baseline(path, old)
        baseline = load_baseline(path)
        # Same findings on a later run, at shifted line numbers: clean.
        moved = [self._finding(line=30), self._finding(text="y = 2", line=31)]
        assert apply_baseline(moved, baseline) == []
        # A new finding is not grandfathered.
        fresh = moved + [self._finding(text="z = 3")]
        remaining = apply_baseline(fresh, baseline)
        assert [f.text for f in remaining] == ["z = 3"]

    def test_multiset_semantics(self, tmp_path):
        # Two identical findings baselined; three occurrences -> one new.
        path = tmp_path / "baseline.json"
        write_baseline(path, [self._finding(), self._finding()])
        remaining = apply_baseline(
            [self._finding(), self._finding(), self._finding()],
            load_baseline(path))
        assert len(remaining) == 1

    def test_empty_baseline_is_counter(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [])
        assert load_baseline(path) == Counter()


# ------------------------------------------------------------ CLI + repo
class TestCli:
    def _run(self, *args, cwd=REPO):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *args],
            capture_output=True, text=True, cwd=cwd,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_self_host_clean(self):
        proc = self._run("src/repro", "tools", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            def program(comm):
                comm.barrier()
                yield
        """))
        proc = self._run("--format=json", str(bad))
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["SIM001"]
        f = payload["findings"][0]
        assert f["path"] == str(bad) and f["line"] == 3

    def test_baseline_ratchet_via_cli(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def program(comm):\n"
                       "    comm.barrier()\n"
                       "    yield\n")
        baseline = tmp_path / "baseline.json"
        assert self._run("--write-baseline", str(baseline),
                         str(bad)).returncode == 0
        # Baselined: clean.
        assert self._run("--baseline", str(baseline),
                         str(bad)).returncode == 0
        # A second violation is new: fails.
        bad.write_text(bad.read_text() +
                       "\n\ndef worker(comm):\n"
                       "    comm.bcast(None, root=0)\n"
                       "    yield\n")
        proc = self._run("--baseline", str(baseline), str(bad))
        assert proc.returncode == 1
        assert "comm.bcast" in proc.stdout

    def test_repo_baseline_file_matches_tree(self):
        """tools/lint_baseline.json stays in sync with the source tree."""
        baseline = load_baseline(REPO / "tools" / "lint_baseline.json")
        result = lint_paths([str(REPO / "src" / "repro"),
                             str(REPO / "tools"),
                             str(REPO / "examples")])
        # No unbaselined findings (the tree lints clean modulo baseline).
        assert apply_baseline(result.findings, baseline) == []

    def test_syntax_error_reported_not_crash(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = lint_paths([str(bad)])
        assert rules_of(result.findings) == ["E999"]
