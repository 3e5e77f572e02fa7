"""Span tracing: the white-box view of a simulated run.

The DES engine, the simmpi communicators, the rank contexts, and the
monitoring protocol all carry *hook points* that are ``None``-guarded —
a run without a tracer attached pays one attribute check per hook and
allocates nothing.  Attaching a :class:`SpanTracer` (normally through
:meth:`repro.runtime.job.Job.attach_tracer`) turns the hooks into a
recording of the run:

* **spans** — intervals of virtual time on one track.  A track is a
  ``(pid, tid)`` pair; by convention ``pid`` is the node id and ``tid``
  is the world rank, so a trace renders as one lane per rank grouped by
  node.  Span categories: ``comm`` (collectives), ``p2p`` (blocking
  send/recv), ``phase`` (solver phases), ``monitor`` (monitoring
  brackets), ``compute`` (charged compute segments).
* **instants** — zero-duration markers (non-blocking ``isend`` posts,
  process lifecycle events when ``capture_scheduler`` is on).
* **counters** — sampled series (event-queue depth at every virtual-clock
  advance).
* **metrics** — a :class:`~repro.obs.metrics.MetricsRegistry` aggregating
  totals (messages, bytes, flops, scheduler activity) per rank and node.
* **energy snapshots** — cumulative per-(node, domain) joules sampled at
  the boundaries of ``phase``/``monitor`` spans when an ``energy_probe``
  is attached; :mod:`repro.obs.report` joins these into the per-phase
  energy attribution table.

Everything recorded is a pure observation of the deterministic event
loop: attaching a tracer never changes virtual time, scheduling order,
or energy accounting (tested by ``tests/test_obs.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.obs.metrics import MetricsRegistry

#: span categories whose boundaries trigger an energy snapshot
ENERGY_SNAPSHOT_CATS = ("phase", "monitor")


class Tracer(Protocol):
    """The hook interface the runtime calls when a tracer is attached.

    Implementations must be pure observers: hooks run synchronously
    inside the event loop and must not schedule events, advance the
    clock, or mutate simulation state.
    """

    # -- spans ------------------------------------------------------------
    def begin_span(self, name: str, cat: str, pid: int, tid: int,
                   t: float | None = None,
                   args: dict | None = None) -> "Span | None": ...

    def end_span(self, span: "Span | None",
                 t: float | None = None) -> None: ...

    def instant(self, name: str, cat: str, pid: int, tid: int,
                t: float | None = None, args: dict | None = None) -> None: ...

    # -- engine hooks -----------------------------------------------------
    def on_process_spawn(self, name: str, t: float) -> None: ...

    def on_process_resume(self, name: str, t: float) -> None: ...

    def on_process_block(self, name: str, reason: str, t: float) -> None: ...

    def on_process_finish(self, name: str, t: float) -> None: ...

    def on_clock_advance(self, t_old: float, t_new: float,
                         queue_depth: int) -> None: ...


@dataclass
class Span:
    """One traced interval on one ``(pid, tid)`` track."""

    id: int
    name: str
    cat: str
    pid: int
    tid: int
    t_start: float
    t_end: float | None = None
    parent_id: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.t_end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        return self.t_end is not None


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker on one track."""

    name: str
    cat: str
    pid: int
    tid: int
    t: float
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a counter series (rendered as a chart lane)."""

    name: str
    t: float
    value: float
    pid: int = 0


class SpanTracer:
    """Records spans, instants, counters, metrics, and energy snapshots.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current virtual time.  Set
        automatically by :meth:`repro.runtime.job.Job.attach_tracer`;
        hooks that receive an explicit ``t`` work without it.
    capture_scheduler:
        Also record process lifecycle hooks (spawn/resume/block/finish)
        as instant events.  Off by default — on a large run these
        dominate the trace; the scheduler metrics are counted either way.
    energy_probe:
        Zero-argument callable returning cumulative joules per
        ``(node_id, domain)``; sampled at ``phase``/``monitor`` span
        boundaries.  Set by ``Job.attach_tracer``.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 capture_scheduler: bool = False,
                 energy_probe: Callable[[], dict] | None = None):
        self.clock = clock
        self.capture_scheduler = capture_scheduler
        self.energy_probe = energy_probe
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.counters: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        #: virtual time -> {(node_id, domain): cumulative joules}
        self.energy_snapshots: dict[float, dict] = {}
        self._next_id = 0
        self._open: dict[tuple[int, int], list[Span]] = {}

    # ---------------------------------------------------------------- time
    def now(self) -> float:
        if self.clock is None:
            raise RuntimeError(
                "tracer has no clock; attach it to a Job or pass t explicitly"
            )
        return self.clock()

    # --------------------------------------------------------------- spans
    def begin_span(self, name: str, cat: str, pid: int, tid: int,
                   t: float | None = None,
                   args: dict | None = None) -> Span:
        t = self.now() if t is None else t
        stack = self._open.setdefault((pid, tid), [])
        span = Span(
            id=self._next_id,
            name=name,
            cat=cat,
            pid=pid,
            tid=tid,
            t_start=t,
            parent_id=stack[-1].id if stack else None,
            args=dict(args) if args else {},
        )
        self._next_id += 1
        self.spans.append(span)
        stack.append(span)
        self._maybe_snapshot_energy(cat, t)
        return span

    def end_span(self, span: Span | None, t: float | None = None) -> None:
        if span is None:
            return
        if span.t_end is not None:
            raise ValueError(f"span {span.name!r} closed twice")
        t = self.now() if t is None else t
        span.t_end = t
        stack = self._open.get((span.pid, span.tid), [])
        if span in stack:
            # Spans normally close LIFO; tolerate out-of-order closes
            # (e.g. a bracket span ended by a different call site).
            stack.remove(span)
        self._maybe_snapshot_energy(span.cat, t)

    @contextmanager
    def span(self, name: str, cat: str, pid: int, tid: int,
             args: dict | None = None):
        """``with tracer.span(...):`` — scoped span using the clock."""
        handle = self.begin_span(name, cat, pid, tid, args=args)
        try:
            yield handle
        finally:
            self.end_span(handle)

    def instant(self, name: str, cat: str, pid: int, tid: int,
                t: float | None = None, args: dict | None = None) -> None:
        t = self.now() if t is None else t
        self.instants.append(InstantEvent(
            name=name, cat=cat, pid=pid, tid=tid, t=t,
            args=dict(args) if args else {},
        ))

    def counter(self, name: str, value: float, t: float, pid: int = 0) -> None:
        self.counters.append(CounterSample(name=name, t=t, value=value,
                                           pid=pid))

    def _maybe_snapshot_energy(self, cat: str, t: float) -> None:
        if self.energy_probe is not None and cat in ENERGY_SNAPSHOT_CATS \
                and t not in self.energy_snapshots:
            self.energy_snapshots[t] = dict(self.energy_probe())

    # -------------------------------------------------------- engine hooks
    def on_process_spawn(self, name: str, t: float) -> None:
        self.metrics.inc("engine.spawns")
        if self.capture_scheduler:
            self.instant("spawn:" + name, "scheduler", pid=0, tid=0, t=t)

    def on_process_resume(self, name: str, t: float) -> None:
        self.metrics.inc("engine.resumes")
        if self.capture_scheduler:
            self.instant("resume:" + name, "scheduler", pid=0, tid=0, t=t)

    def on_process_block(self, name: str, reason: str, t: float) -> None:
        self.metrics.inc("engine.blocks")
        self.metrics.inc("engine.blocks." + reason.split("(", 1)[0])
        if self.capture_scheduler:
            self.instant(f"block:{name}:{reason}", "scheduler",
                         pid=0, tid=0, t=t)

    def on_process_finish(self, name: str, t: float) -> None:
        self.metrics.inc("engine.finishes")
        if self.capture_scheduler:
            self.instant("finish:" + name, "scheduler", pid=0, tid=0, t=t)

    def on_clock_advance(self, t_old: float, t_new: float,
                         queue_depth: int) -> None:
        self.metrics.inc("engine.clock_advances")
        self.metrics.set_gauge("engine.queue_depth", queue_depth)
        self.counter("engine.queue_depth", queue_depth, t=t_new)

    # ------------------------------------------------------------ analysis
    def close_open_spans(self, t: float | None = None) -> int:
        """Close any still-open span at ``t`` (end-of-run cleanup)."""
        t = self.now() if t is None else t
        n = 0
        for stack in self._open.values():
            while stack:
                stack.pop().t_end = t
                n += 1
        return n

    def spans_by_cat(self, cat: str) -> list[Span]:
        return [s for s in self.spans if s.cat == cat]

    def spans_by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.id]

    def validate_nesting(self) -> list[str]:
        """Return violations of well-formed nesting (empty = well-formed).

        A trace is well-formed when every span is closed, every child
        lies within its parent's interval on the same track, and no two
        sibling spans on a track overlap.
        """
        problems: list[str] = []
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            if not s.closed:
                problems.append(f"span {s.name!r} (id {s.id}) never closed")
                continue
            if s.t_end < s.t_start:
                problems.append(f"span {s.name!r} ends before it starts")
            if s.parent_id is not None:
                parent = by_id[s.parent_id]
                if (parent.pid, parent.tid) != (s.pid, s.tid):
                    problems.append(
                        f"span {s.name!r} nested under a different track"
                    )
                elif parent.closed and not (
                    parent.t_start <= s.t_start and s.t_end <= parent.t_end
                ):
                    problems.append(
                        f"span {s.name!r} [{s.t_start}, {s.t_end}] escapes "
                        f"parent {parent.name!r} "
                        f"[{parent.t_start}, {parent.t_end}]"
                    )
        # Sibling overlap check per (track, parent).
        groups: dict[tuple, list[Span]] = {}
        for s in self.spans:
            if s.closed:
                groups.setdefault((s.pid, s.tid, s.parent_id), []).append(s)
        for siblings in groups.values():
            ordered = sorted(siblings, key=lambda s: (s.t_start, s.id))
            for a, b in zip(ordered, ordered[1:]):
                if b.t_start < a.t_end and b.t_end > a.t_start \
                        and not (a.t_start <= b.t_start and b.t_end <= a.t_end):
                    problems.append(
                        f"siblings {a.name!r} and {b.name!r} overlap on "
                        f"track ({a.pid}, {a.tid})"
                    )
        return problems

    def summary(self) -> dict:
        """Deterministic run summary (counts per category)."""
        cats: dict[str, int] = {}
        for s in self.spans:
            cats[s.cat] = cats.get(s.cat, 0) + 1
        return {
            "spans": len(self.spans),
            "spans_by_cat": dict(sorted(cats.items())),
            "instants": len(self.instants),
            "counter_samples": len(self.counters),
            "energy_snapshots": len(self.energy_snapshots),
        }
