"""Deterministic discrete-event engine driving simulated rank programs.

The engine owns a virtual clock and a priority queue of scheduled callbacks.
Rank programs (and any helper coroutine) are plain Python generators that
``yield`` *system calls*:

``Delay(dt)``
    Suspend the process for ``dt`` seconds of virtual time (this is how
    computation time is charged).
``Now()``
    Resume immediately with the current virtual time as the sent value.
``WaitEvent(ev)``
    Block until ``ev.set(value)`` is called; resumes with ``value``.
``Park(slots, index)``
    Register this process into ``slots[index]`` and suspend until another
    process schedules its resume (the fast-collective rendezvous).
``SleepUntil(t)``
    Sleep to the exact absolute virtual time ``t``.

Composite operations (message passing, collectives, monitoring) are generator
functions delegated to with ``yield from``, so the engine only ever sees the
primitives above.  Determinism is guaranteed by a monotonically
increasing sequence number that breaks ties between events scheduled at the
same virtual time.

A minimal program — spawn a generator, run to quiescence, read the result:

>>> from repro.simmpi.engine import Simulator, sleep, now
>>> sim = Simulator()
>>> def worker():
...     yield from sleep(1.5)          # advance 1.5 s of virtual time
...     t = yield from now()
...     return f"woke at {t:g}"
>>> proc = sim.spawn(worker(), name="w")
>>> sim.run()
1.5
>>> proc.result
'woke at 1.5'

Two processes synchronizing through a :class:`SimEvent`:

>>> sim = Simulator()
>>> ready = sim.event(name="ready")
>>> def producer():
...     yield from sleep(2.0)
...     ready.set("payload")
>>> def consumer():
...     value = yield from wait(ready)
...     return value
>>> results = sim.run_all([("p", producer()), ("c", consumer())])
>>> results["c"]
'payload'

The engine carries observability hooks (see :mod:`repro.obs.tracer`):
assigning a tracer to :attr:`Simulator.tracer` streams process lifecycle
events, virtual-clock advances, and event-queue depth to it.  With the
default ``tracer = None`` every hook site is a single attribute check —
tracing is zero-cost when disabled and never perturbs virtual time when
enabled (tracers are pure observers).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.simmpi.errors import DeadlockError


class Delay:
    """Primitive syscall: advance this process ``dt`` seconds of virtual time.

    Syscall objects are consumed synchronously by the engine, so the hot
    paths (``sleep``, compute charging, message overheads) recycle them
    through a small free list instead of allocating one per yield — see
    :func:`acquire_delay`.  Directly constructed instances are never
    pooled, so holding on to one is always safe.
    """

    __slots__ = ("dt", "_pooled")

    def __init__(self, dt: float):
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        self.dt = dt
        self._pooled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay(dt={self.dt!r})"


#: free list of recyclable :class:`Delay` instances (bounded)
_DELAY_POOL: list[Delay] = []
_DELAY_POOL_CAP = 256


def acquire_delay(dt: float) -> Delay:
    """A pooled :class:`Delay`; the engine recycles it after dispatch."""
    if _DELAY_POOL:
        d = _DELAY_POOL.pop()
        if dt < 0:
            _DELAY_POOL.append(d)
            raise ValueError(f"negative delay: {dt}")
        d.dt = dt
        return d
    d = Delay(dt)
    d._pooled = True
    return d


class Now:
    """Primitive syscall: resume immediately with the current virtual time."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Now()"


#: shared stateless instance — yielding ``NOW`` avoids an allocation
NOW = Now()


class WaitEvent:
    """Primitive syscall: block until the event fires."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent"):
        self.event = event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitEvent(event={self.event!r})"


class Park:
    """Primitive syscall: suspend until another process resumes this one.

    The engine stores the parked :class:`Process` into ``slots[index]`` and
    forgets about it; whoever holds the slot resumes the process with
    ``sim.schedule_at(t, proc._step, value)`` (the sent ``value`` becomes
    the yield's result).  This is the cheapest possible rendezvous — no
    event object, no callback list — and is what the closed-form collective
    engine (:mod:`repro.simmpi.fastcoll`) parks ranks on.
    """

    __slots__ = ("slots", "index")

    def __init__(self, slots: list, index: int):
        self.slots = slots
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Park(index={self.index!r})"


class SleepUntil:
    """Primitive syscall: sleep to an *absolute* virtual time.

    Unlike :class:`Delay` the engine schedules the resume with
    :meth:`Simulator.schedule_at`, so the wake-up timestamp is bit-identical
    to ``until`` (no relative round trip) — the fast collective path relies
    on this to reproduce message-level completion times exactly.
    """

    __slots__ = ("until",)

    def __init__(self, until: float):
        self.until = until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SleepUntil(until={self.until!r})"


class SimEvent:
    """A one-shot event that processes can block on.

    ``set(value)`` wakes every waiter with ``value``.  Setting an event twice
    is an error; waiting on an already-set event resumes immediately.
    """

    __slots__ = ("_sim", "_value", "_is_set", "_waiters", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self._value: Any = None
        self._is_set = False
        self._waiters: list[Process] = []
        self._callbacks: list[Callable] = []
        self.name = name

    @property
    def is_set(self) -> bool:
        return self._is_set

    @property
    def value(self) -> Any:
        if not self._is_set:
            raise RuntimeError(f"event {self.name!r} read before set")
        return self._value

    def set(self, value: Any = None) -> None:
        if self._is_set:
            raise RuntimeError(f"event {self.name!r} set twice")
        self._is_set = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._schedule(0.0, proc._step, value)
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._sim._schedule(0.0, fn, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._is_set:
            self._sim._schedule(0.0, proc._step, self._value)
        else:
            self._waiters.append(proc)

    def add_callback(self, fn: Callable) -> None:
        """Invoke ``fn(value)`` when the event fires (immediately if set)."""
        if self._is_set:
            self._sim._schedule(0.0, fn, self._value)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "set" if self._is_set else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Process:
    """A running generator registered with the simulator."""

    __slots__ = ("sim", "gen", "name", "done", "result", "error", "_blocked_on",
                 "finished_event", "finish_time")

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        #: "start"/"running"/"delay", or the SimEvent being waited on
        self._blocked_on: Any = "start"
        self.finished_event = SimEvent(sim, name=f"finish:{name}")
        self.finish_time: float | None = None

    def _step(self, send_value: Any = None) -> None:
        """Advance the generator one syscall and dispatch it."""
        self._blocked_on = "running"
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_process_resume(self.name, self.sim.now)
        try:
            syscall = self.gen.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.finish_time = self.sim.now
            self.sim._live_processes.discard(self)
            if tracer is not None:
                tracer.on_process_finish(self.name, self.sim.now)
            self.finished_event.set(stop.value)
            return
        except BaseException as exc:
            self.done = True
            self.error = exc
            self.sim._live_processes.discard(self)
            self.sim._fail(self, exc)
            return

        # Exact-type dispatch: syscalls are final __slots__ classes, and
        # ``type is`` beats isinstance on this hottest of paths.
        st = type(syscall)
        if st is Delay:
            # _blocked_on stays a cheap constant; __repr__ renders detail.
            self._blocked_on = "delay"
            if tracer is not None:
                tracer.on_process_block(self.name, "delay", self.sim.now)
            self.sim._schedule(syscall.dt, self._step, None)
            if syscall._pooled and len(_DELAY_POOL) < _DELAY_POOL_CAP:
                _DELAY_POOL.append(syscall)
        elif st is SleepUntil:
            self._blocked_on = "sleep"
            if tracer is not None:
                tracer.on_process_block(self.name, "sleep", self.sim.now)
            self.sim.schedule_at(syscall.until, self._step, None)
        elif st is Park:
            self._blocked_on = "park"
            if tracer is not None:
                tracer.on_process_block(self.name, "park", self.sim.now)
            syscall.slots[syscall.index] = self
        elif st is Now:
            self._step(self.sim.now)
        elif st is WaitEvent:
            self._blocked_on = syscall.event
            if tracer is not None:
                tracer.on_process_block(self.name, "wait", self.sim.now)
            syscall.event._add_waiter(self)
        else:
            err = TypeError(
                f"process {self.name!r} yielded a non-syscall {syscall!r}; "
                "composite operations must be delegated with 'yield from'"
            )
            self.done = True
            self.error = err
            self.sim._live_processes.discard(self)
            self.sim._fail(self, err)

    def __repr__(self) -> str:
        if self.done:
            state = "done"
        elif isinstance(self._blocked_on, SimEvent):
            state = f"wait({self._blocked_on.name})"
        else:
            state = self._blocked_on
        return f"<Process {self.name} {state}>"


class Simulator:
    """The deterministic event loop and virtual clock.

    >>> sim = Simulator()
    >>> sim.now
    0.0
    >>> hits = []
    >>> sim.call_at(0.25, hits.append)         # raw callback, absolute time
    >>> def prog():
    ...     yield Delay(1.0)
    ...     return "ok"
    >>> proc = sim.spawn(prog(), name="demo")
    >>> sim.run()
    1.0
    >>> (proc.result, hits)
    ('ok', [None])
    """

    def __init__(self, fast_collectives: bool = True,
                 fast_p2p: bool = False,
                 sanitize: bool | None = None):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._seq = 0
        self._live_processes: set[Process] = set()
        self._failure: tuple[Process, BaseException] | None = None
        #: observability hook (see :mod:`repro.obs.tracer`); ``None`` keeps
        #: every hook site a single attribute check
        self.tracer = None
        #: runtime MPI sanitizer (see :mod:`repro.simmpi.sanitizer`);
        #: ``sanitize=None`` defers to the ``REPRO_SANITIZE`` env var, so
        #: any Job can be sanitized without code changes.  ``None`` when
        #: disabled — a pure observer, zero cost and bit-identical timing
        self.sanitizer = None
        if sanitize is None:
            from repro.simmpi.sanitizer import sanitize_from_env
            sanitize = sanitize_from_env()
        if sanitize:
            from repro.simmpi.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self)
        #: communicators built on this simulator compute collective
        #: completion times in closed form instead of spawning per-hop
        #: messages (see :mod:`repro.simmpi.fastcoll`); the message-level
        #: path is kept for validation via ``fast_collectives=False``
        self.fast_collectives = fast_collectives
        #: deterministic point-to-point traffic (and ``Communicator.
        #: pipeline`` compositions) completes through closed-form flow
        #: records instead of mailbox events (see
        #: :mod:`repro.simmpi.fastp2p`); off by default — the message-level
        #: path is the bit-identical reference
        self.fast_p2p = fast_p2p

    @property
    def now(self) -> float:
        return self._now

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def _schedule(self, delay: float, fn: Callable, arg: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, arg))

    def call_at(self, time: float, fn: Callable, arg: Any = None) -> None:
        """Schedule a raw callback at an absolute virtual time."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        self._schedule(time - self._now, fn, arg)

    def schedule_at(self, time: float, fn: Callable, arg: Any = None) -> None:
        """Schedule at an *exact* absolute virtual time (no round trip
        through a relative delay, so the heap key is bit-identical to
        ``time`` — the fast collective path relies on this to reproduce
        message-level timestamps exactly)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, arg))

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Register a generator as a process; it starts at the current time."""
        proc = Process(self, gen, name)
        self._live_processes.add(proc)
        if self.tracer is not None:
            self.tracer.on_process_spawn(name, self._now)
        self._schedule(0.0, proc._step, None)
        return proc

    def _fail(self, proc: Process, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = (proc, exc)

    def run(self, until: float | None = None) -> float:
        """Run the event loop to quiescence (or virtual time ``until``).

        Returns the final virtual time.  Raises the first process failure,
        or :class:`DeadlockError` if processes remain blocked with no
        pending events.
        """
        while self._heap:
            if self._failure is not None:
                proc, exc = self._failure
                raise exc
            time, _seq, fn, arg = heapq.heappop(self._heap)
            if until is not None and time > until:
                heapq.heappush(self._heap, (time, _seq, fn, arg))
                self._now = until
                return self._now
            if self.tracer is not None and time > self._now:
                self.tracer.on_clock_advance(self._now, time,
                                             len(self._heap) + 1)
            if self.sanitizer is not None and time < self._now:
                raise AssertionError(
                    f"virtual time went backwards: {self._now} -> {time} "
                    "(heap ordering violated)"
                )
            self._now = time
            fn(arg)
        if self._failure is not None:
            proc, exc = self._failure
            raise exc
        blocked = [p for p in self._live_processes if not p.done]
        if blocked:
            detail = ""
            if self.sanitizer is not None:
                detail = self.sanitizer.deadlock_report(blocked)
            raise DeadlockError(blocked, detail=detail)
        if self.sanitizer is not None and until is None:
            self.sanitizer.check_finalize()
        return self._now

    def run_all(self, gens: Iterable[tuple[str, Generator]],
                until: float | None = None) -> dict[str, Any]:
        """Spawn the named generators, run to completion, return results."""
        procs = {name: self.spawn(gen, name=name) for name, gen in gens}
        self.run(until=until)
        return {name: proc.result for name, proc in procs.items()}


def sleep(dt: float):
    """Convenience coroutine: ``yield from sleep(dt)``."""
    yield acquire_delay(dt)


def now():
    """Convenience coroutine: ``t = yield from now()``."""
    t = yield NOW
    return t


def wake_at(sim: Simulator, time: float):
    """Coroutine: block until the exact absolute virtual time ``time``.

    ``time`` must be ``>= sim.now``; resumes via :class:`SleepUntil`, so
    the wake-up timestamp is bit-identical to ``time``.
    """
    yield SleepUntil(time)


def wait(event: SimEvent):
    """Convenience coroutine: ``value = yield from wait(ev)``."""
    value = yield WaitEvent(event)
    return value
