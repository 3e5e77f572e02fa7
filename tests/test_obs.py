"""Tests for the observability layer (repro.obs).

Covers the tentpole invariants: Chrome-trace schema validity,
well-formed span nesting, byte-identical exports for identical seeds,
and tracing being a pure observation (identical results with and
without a tracer attached).
"""

import json

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, Placement, layout_for
from repro.core.framework import ExperimentSpec, MonitoringFramework
from repro.core.monitoring import monitored_program
from repro.energy.tracing import PowerTracer
from repro.obs.export import dumps_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import energy_report, metrics_report, phase_energy
from repro.obs.symbolic import run_traced
from repro.obs.tracer import SpanTracer
from repro.perfmodel.calibration import profile_for
from repro.runtime.job import Job
from repro.solvers.ime.parallel import ime_parallel_program
from repro.workloads.generator import generate_system


def _small_job(seed=0):
    machine = small_test_machine()
    layout = layout_for(4, LoadShape.FULL, machine)
    placement = Placement(layout, machine)
    return Job(machine, placement, profile=profile_for("ime"), seed=seed)


def _run_real_ime(tracer=None, n=16, seed=0):
    job = _small_job(seed=seed)
    if tracer is not None:
        job.attach_tracer(tracer)
    program = monitored_program(
        ime_parallel_program, system=generate_system(n, seed=seed)
    )
    result = job.run(program)
    return job, result


# ---------------------------------------------------------------- metrics
class TestMetricsRegistry:
    def test_counters_aggregate_per_rank_and_node(self):
        m = MetricsRegistry()
        m.inc("comm.bytes", 10.0, rank=0, node=0)
        m.inc("comm.bytes", 5.0, rank=1, node=0)
        m.inc("comm.bytes", 2.0, rank=2, node=1)
        assert m.counter_total("comm.bytes") == 17.0
        assert m.per_rank("comm.bytes") == {0: 10.0, 1: 5.0, 2: 2.0}
        assert m.per_node("comm.bytes") == {0: 15.0, 1: 2.0}

    def test_gauge_keeps_last_value(self):
        m = MetricsRegistry()
        m.set_gauge("engine.queue_depth", 3)
        m.set_gauge("engine.queue_depth", 7)
        assert m.gauge("engine.queue_depth") == 7


# ------------------------------------------------------------ span tracer
class TestSpanTracer:
    def test_nesting_parent_child(self):
        tr = SpanTracer()
        outer = tr.begin_span("outer", cat="phase", pid=0, tid=0, t=0.0)
        inner = tr.begin_span("inner", cat="coll", pid=0, tid=0, t=1.0)
        tr.end_span(inner, t=2.0)
        tr.end_span(outer, t=3.0)
        assert inner.parent_id == outer.id
        assert tr.children_of(outer) == [inner]
        assert tr.validate_nesting() == []

    def test_validate_nesting_catches_unclosed(self):
        tr = SpanTracer()
        tr.begin_span("open", cat="phase", pid=0, tid=0, t=0.0)
        assert any("never closed" in p for p in tr.validate_nesting())

    def test_tracks_are_independent(self):
        tr = SpanTracer()
        a = tr.begin_span("a", cat="phase", pid=0, tid=0, t=0.0)
        b = tr.begin_span("b", cat="phase", pid=0, tid=1, t=0.5)
        assert b.parent_id is None
        tr.end_span(a, t=1.0)
        tr.end_span(b, t=1.0)
        assert tr.validate_nesting() == []

    def test_export_refuses_open_spans(self):
        tr = SpanTracer()
        tr.begin_span("open", cat="phase", pid=0, tid=0, t=0.0)
        with pytest.raises(ValueError, match="still open"):
            dumps_chrome_trace(tr)


# ------------------------------------------------- traced real solver run
class TestTracedRealRun:
    def test_trace_of_real_ime_run_is_well_formed(self):
        tracer = SpanTracer()
        _job, result = _run_real_ime(tracer)
        assert tracer.validate_nesting() == []
        cats = {s.cat for s in tracer.spans}
        assert {"coll", "phase", "monitor", "compute"} <= cats
        names = {s.name for s in tracer.spans}
        assert {"ime:initime", "ime:levels", "ime:solution"} <= names
        assert any(s.name.startswith("monitoring") for s in tracer.spans)
        # solution is correct regardless of tracing
        sol = result.rank_results[0][0]
        assert sol is not None

    def test_tracing_is_a_pure_observation(self):
        """Identical seed → identical result with and without a tracer."""
        _job, plain = _run_real_ime(None)
        _job, traced = _run_real_ime(SpanTracer())
        assert plain.duration == traced.duration
        assert plain.node_energy_j == traced.node_energy_j
        assert plain.traffic == traced.traffic
        np.testing.assert_array_equal(plain.rank_results[0][0],
                                      traced.rank_results[0][0])

    def test_comm_and_engine_metrics_recorded(self):
        tracer = SpanTracer()
        _run_real_ime(tracer)
        m = tracer.metrics
        assert m.counter_total("comm.messages") > 0
        assert m.counter_total("comm.bytes") > 0
        assert m.counter_total("compute.flops") > 0
        assert m.counter_total("engine.resumes") > 0
        assert m.counter_total("engine.spawns") == 4

    def test_phase_energy_attribution(self):
        tracer = SpanTracer()
        _job, result = _run_real_ime(tracer)
        phases = phase_energy(tracer)
        assert phases, "no phases attributed"
        by_name = {p.name: p for p in phases}
        assert "ime:levels" in by_name
        levels = by_name["ime:levels"]
        assert levels.total_j > 0
        assert levels.total_j <= result.total_energy_j * (1 + 1e-9)
        report = energy_report(tracer, total_j=result.total_energy_j,
                               duration=result.duration)
        assert "ime:levels" in report and "share" in report
        assert "comm.bytes" in metrics_report(tracer)

    def test_power_tracer_feeds_counter_lane(self):
        tracer = SpanTracer()
        job = _small_job()
        job.attach_tracer(tracer)
        program = monitored_program(
            ime_parallel_program, system=generate_system(16, seed=0)
        )
        _result, trace = PowerTracer(job, period=1e-5).run(program)
        assert trace.n_samples > 2
        power = [c for c in tracer.counters if c.name == "power.node_w"]
        assert power
        assert all(c.value > 0 for c in power)


# --------------------------------------------------------- chrome export
class TestChromeExport:
    def test_schema(self, tmp_path):
        _result, tracer = run_traced("ime", n=96, ranks=4, chunks=6)
        path = write_chrome_trace(tracer, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert {"ph", "ts", "pid", "tid", "name"} <= set(ev)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all("dur" in e for e in complete)
        cats = {e["cat"] for e in complete}
        assert {"coll", "phase", "monitor"} <= cats
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta if m["name"] == "thread_name"} \
            == {f"rank {r}" for r in range(4)}

    def test_byte_identical_for_identical_seed(self):
        _r1, t1 = run_traced("scalapack", n=64, ranks=4, chunks=4, seed=3)
        _r2, t2 = run_traced("scalapack", n=64, ranks=4, chunks=4, seed=3)
        assert dumps_chrome_trace(t1) == dumps_chrome_trace(t2)

    def test_different_seed_differs(self):
        _r1, t1 = run_traced("ime", n=64, ranks=4, chunks=4, seed=0)
        _r2, t2 = run_traced("ime", n=64, ranks=4, chunks=4, seed=9)
        assert dumps_chrome_trace(t1) != dumps_chrome_trace(t2)

    def test_numpy_args_serialize(self):
        tr = SpanTracer()
        s = tr.begin_span("x", cat="phase", pid=0, tid=0, t=0.0,
                          args={"flops": np.float64(3.5),
                                "n": np.int64(8)})
        tr.end_span(s, t=1.0)
        doc = json.loads(dumps_chrome_trace(tr))
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args == {"flops": 3.5, "n": 8}


# ------------------------------------------------------------- skeletons
class TestSymbolicSkeletons:
    @pytest.mark.parametrize("algorithm", ["ime", "scalapack"])
    def test_skeleton_phases_match_real_solver_names(self, algorithm):
        _result, tracer = run_traced(algorithm, n=96, ranks=4, chunks=5)
        names = {s.name for s in tracer.spans if s.cat == "phase"}
        prefix = algorithm + ":"
        assert names and all(n.startswith(prefix) for n in names)
        assert tracer.validate_nesting() == []

    @pytest.mark.parametrize("algorithm", ["ime", "scalapack"])
    def test_skeleton_charges_cost_model_flops(self, algorithm):
        """A sampled trace charges the flops of every level it skips."""
        from repro.solvers.ime.costmodel import ImeCostModel

        n, ranks = 96, 4
        _result, tracer = run_traced(algorithm, n=n, ranks=ranks, chunks=5,
                                     nb=8)
        _result, unsampled = run_traced(algorithm, n=n, ranks=ranks,
                                        chunks=None, nb=8)
        total = tracer.metrics.counter_total("compute.flops")
        assert total == pytest.approx(
            unsampled.metrics.counter_total("compute.flops"))
        if algorithm == "ime":
            expected = ImeCostModel.level_flops_per_rank(n, ranks).sum() \
                * ranks + float(n) * n  # + master's INITIME scaling
            assert total == pytest.approx(expected)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_traced("qr", n=64, ranks=4)


# ------------------------------------------------ framework/runner plumbing
class TestFrameworkPlumbing:
    def test_run_experiment_tracer_factory(self):
        spec = ExperimentSpec(
            algorithm="ime", system=generate_system(12, seed=1),
            ranks=4, repetitions=2, machine=small_test_machine(),
        )
        result = MonitoringFramework().run_experiment(
            spec, tracer_factory=SpanTracer
        )
        tracers = [r.tracer for r in result.runs]
        assert all(isinstance(t, SpanTracer) for t in tracers)
        assert tracers[0] is not tracers[1]
        for t in tracers:
            assert t.spans_by_cat("monitor")
            assert t.validate_nesting() == []

    def test_run_experiment_without_factory_keeps_none(self):
        spec = ExperimentSpec(
            algorithm="ime", system=generate_system(12, seed=1),
            ranks=4, repetitions=1, machine=small_test_machine(),
        )
        result = MonitoringFramework().run_experiment(spec)
        assert result.runs[0].tracer is None
