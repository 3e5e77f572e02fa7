"""Unit tests for the discrete-event engine."""

import pytest

from repro.simmpi.engine import Delay, Now, Simulator, WaitEvent, now, sleep, wait
from repro.simmpi.errors import DeadlockError


def test_delay_advances_virtual_time():
    sim = Simulator()

    def prog():
        yield Delay(1.5)
        t = yield Now()
        return t

    proc = sim.spawn(prog(), name="p")
    sim.run()
    assert proc.done
    assert proc.result == pytest.approx(1.5)


def test_zero_time_spawn_and_result():
    sim = Simulator()

    def prog():
        return 42
        yield  # pragma: no cover

    proc = sim.spawn(prog(), name="p")
    end = sim.run()
    assert proc.result == 42
    assert end == 0.0


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    order = []

    def prog(name, dt):
        yield Delay(dt)
        order.append(name)
        yield Delay(dt)
        order.append(name)

    sim.spawn(prog("a", 1.0), name="a")
    sim.spawn(prog("b", 0.6), name="b")
    sim.run()
    assert order == ["b", "a", "b", "a"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def prog(name):
        yield Delay(1.0)
        order.append(name)

    for name in ["p0", "p1", "p2"]:
        sim.spawn(prog(name), name=name)
    sim.run()
    assert order == ["p0", "p1", "p2"]


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event("e")

    def waiter():
        value = yield WaitEvent(ev)
        return value

    def setter():
        yield Delay(2.0)
        ev.set("hello")

    p = sim.spawn(waiter(), name="w")
    sim.spawn(setter(), name="s")
    sim.run()
    assert p.result == "hello"
    assert sim.now == pytest.approx(2.0)


def test_wait_on_already_set_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event("e")
    ev.set(7)

    def waiter():
        value = yield from wait(ev)
        return value

    p = sim.spawn(waiter(), name="w")
    sim.run()
    assert p.result == 7


def test_event_set_twice_raises():
    sim = Simulator()
    ev = sim.event("e")
    ev.set(1)
    with pytest.raises(RuntimeError, match="set twice"):
        ev.set(2)


def test_deadlock_detection():
    sim = Simulator()
    ev = sim.event("never")

    def stuck():
        yield WaitEvent(ev)

    sim.spawn(stuck(), name="stuck")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    assert "stuck" in str(exc_info.value)


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield Delay(0.1)
        raise ValueError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_yielding_non_syscall_is_an_error():
    sim = Simulator()

    def confused():
        yield 123

    sim.spawn(confused(), name="confused")
    with pytest.raises(TypeError, match="non-syscall"):
        sim.run()


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_run_until_pauses_clock():
    sim = Simulator()

    def prog():
        yield Delay(10.0)

    sim.spawn(prog(), name="p")
    t = sim.run(until=4.0)
    assert t == pytest.approx(4.0)
    t = sim.run()
    assert t == pytest.approx(10.0)


def test_finished_event_fires_on_completion():
    sim = Simulator()

    def child():
        yield Delay(3.0)
        return "done"

    def parent():
        proc = sim.spawn(child(), name="child")
        value = yield WaitEvent(proc.finished_event)
        return value

    p = sim.spawn(parent(), name="parent")
    sim.run()
    assert p.result == "done"


def test_sleep_and_now_helpers():
    sim = Simulator()

    def prog():
        yield from sleep(1.0)
        t = yield from now()
        return t

    p = sim.spawn(prog(), name="p")
    sim.run()
    assert p.result == pytest.approx(1.0)


def test_run_all_returns_named_results():
    sim = Simulator()

    def prog(v):
        yield Delay(0.1)
        return v * 2

    results = sim.run_all([("a", prog(1)), ("b", prog(2))])
    assert results == {"a": 2, "b": 4}


def test_call_at_past_time_rejected():
    sim = Simulator()

    def prog():
        yield Delay(5.0)

    sim.spawn(prog(), name="p")
    sim.run()
    with pytest.raises(ValueError, match="past"):
        sim.call_at(1.0, lambda _: None)


def test_reserved_event_keeps_its_place_among_equal_times():
    """An event scheduled late at a reserved sequence number runs where an
    eagerly scheduled one would have: before later equal-time events."""
    sim = Simulator()
    order = []
    keys = {}

    def early(_):
        keys["a"] = sim.reserve()      # the event "a" might never need
        sim.call_at(2.0, order.append, "b")

    def late(_):
        assert not sim.dispatched(2.0, keys["a"])
        sim.schedule_reserved(2.0, keys["a"], order.append, "a")

    def after(_):
        assert sim.dispatched(2.0, keys["a"])
        with pytest.raises(ValueError, match="past"):
            sim.schedule_reserved(2.0, keys["a"], order.append, "x")

    sim.call_at(0.5, early)
    sim.call_at(1.0, late)
    sim.call_at(3.0, after)
    sim.run()
    assert order == ["a", "b"]
