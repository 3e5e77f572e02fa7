"""Self-time arithmetic, the generator wrapper, and bit-identity under
tracing."""

import itertools

import pytest

from perfbench import tracing
from perfbench.tracing import Book, Tracer, install_repro_layers


@pytest.fixture
def fake_clock(monkeypatch):
    """A clock that reads 0, 1, 2, ... on successive calls."""
    ticks = itertools.count()
    monkeypatch.setattr(tracing, "_clock", lambda: float(next(ticks)))


def test_self_time_subtracts_child_spans(fake_clock):
    book = Book()
    book.enter("a")      # t=0
    book.enter("b")      # t=1
    book.exit()          # t=2 -> b: 1
    book.enter("c")      # t=3
    book.enter("b")      # t=4
    book.exit()          # t=5 -> b: 1
    book.exit()          # t=6 -> c: 3 total, 1 of it in b
    book.exit()          # t=7 -> a: 7 total, 1 + 3 in children
    assert book.total_s == {"a": 7.0, "b": 2.0, "c": 3.0}
    assert book.self_s == {"a": 3.0, "b": 2.0, "c": 2.0}
    # self times of one thread add up to its top-level spans
    assert sum(book.self_s.values()) == book.total_s["a"]


def _inner():
    got = yield "first"
    got2 = yield got * 2
    return ("done", got2)


def test_generator_wrapper_keeps_values_and_return():
    tracer = Tracer()
    wrapped = tracer.wrap("layer", _inner)

    def outer(fn):
        result = yield from fn()
        return result

    seen = []
    for gen in (outer(_inner), outer(wrapped)):
        out = [gen.send(None), gen.send(3)]
        with pytest.raises(StopIteration) as stop:
            gen.send(5)
        seen.append((out, stop.value.value))
    assert seen[0] == seen[1] == (["first", 6], ("done", 5))
    totals = tracer.totals()
    assert totals["calls"] == {"layer": 1}
    assert totals["total_s"]["layer"] > 0.0


def test_generator_wrapper_forwards_thrown_exceptions():
    def catcher():
        try:
            yield "waiting"
        except KeyError:
            return "caught"

    gen = Tracer().wrap("layer", catcher)()
    assert next(gen) == "waiting"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught"


def test_generator_resumptions_nest_under_their_parent(fake_clock):
    tracer = Tracer()

    def child():
        yield 1
        return 2

    wrapped_child = tracer.wrap("child", child)

    def parent():
        value = yield from wrapped_child()
        return value

    gen = tracer.wrap("parent", parent)()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 2
    totals = tracer.totals()
    # each parent resumption encloses one child resumption
    assert totals["self_s"]["parent"] == \
        totals["total_s"]["parent"] - totals["total_s"]["child"]
    assert totals["calls"] == {"parent": 1, "child": 1}


def _skeleton_job():
    from repro.obs.symbolic import run_skeleton_job

    job = run_skeleton_job("ime", 96, 48, nb=16)
    return (job.duration, job.traffic, job.node_energy_j)


def _monitored_job():
    from dataclasses import replace

    from repro.cluster.machine import small_test_machine
    from repro.core.framework import ExperimentSpec, MonitoringFramework
    from repro.perfmodel.calibration import profile_for
    from repro.workloads.generator import generate_system

    spec = ExperimentSpec(
        algorithm="scalapack", system=generate_system(48, seed=2), ranks=4,
        repetitions=1, machine=small_test_machine(),
        profile=replace(profile_for("scalapack"), eff_flops_per_core=2e6))
    run = MonitoringFramework().run_experiment(spec).runs[0]
    return (run.oracle.duration, run.oracle.traffic,
            run.oracle.node_energy_j, run.solution.tobytes())


@pytest.mark.parametrize("job", [_skeleton_job, _monitored_job])
def test_modeled_output_is_bit_identical_under_tracing(job):
    from repro.simmpi import fastcoll

    original = fastcoll.fast_bcast
    untraced = job()
    tracer = Tracer()
    install_repro_layers(tracer)
    try:
        traced = job()
    finally:
        tracer.restore()
    assert traced == untraced
    assert fastcoll.fast_bcast is original
    totals = tracer.totals()
    assert totals["counts"]["simmpi.engine.resumes"] > 0
    assert totals["calls"]["simmpi.engine"] == 1
    assert totals["calls"]["runtime.compute"] > 0


def _calls(job) -> dict:
    tracer = Tracer()
    install_repro_layers(tracer)
    try:
        job()
    finally:
        tracer.restore()
    return tracer.totals()["calls"]


def test_aggregate_forms_only_above_their_size_gate():
    # p=4 is below AGGREGATE_MIN_SIZE; p=48 takes the vector forms
    assert _calls(_monitored_job).get("simmpi.aggregate", 0) == 0
    assert _calls(_skeleton_job)["simmpi.aggregate"] > 0
