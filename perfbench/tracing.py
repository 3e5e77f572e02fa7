"""Per-layer host-time spans, installed from outside the program.

The program under test carries no profiling hooks of its own, so the
benchmark measures each layer by replacing the public functions of that
layer — at the module or class attribute its callers read — with a
wrapper that opens a span around the call.  Nothing under ``src/``
changes; :meth:`Tracer.restore` puts every original back.

Spans nest on a per-thread stack.  A layer's *self* time is the duration
of its spans minus the time covered by their child spans, so the self
times of one thread add up to the duration of its top-level spans.

Simulated rank programs, the fast collectives and ``RankContext.compute``
are generators driven by the DES engine.  Their wrappers time every
resumption (each ``send``/``throw`` into the inner generator) rather than
the creation call, so a collective that parks a rank for a million
virtual seconds is charged only the host time of its steps.  The
wrapper is itself a generator and returns the inner generator's return
value, so ``yield from`` call sites see exactly what they saw before.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from types import GeneratorType

#: the span clock (module attribute so tests can substitute a fake one)
_clock = time.perf_counter


class Book:
    """One thread's span stack and accumulators."""

    __slots__ = ("stack", "self_s", "total_s", "calls", "counts")

    def __init__(self):
        #: open spans: [layer, start, time covered by child spans]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        self.stack.append([layer, _clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        duration = _clock() - start
        self.self_s[layer] += duration - child
        self.total_s[layer] += duration
        if self.stack:
            self.stack[-1][2] += duration


class Tracer:
    """Installs span wrappers and merges the per-thread books."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._books: list[Book] = []
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- recording
    def book(self) -> Book:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = Book()
            with self._lock:
                self._books.append(book)
        return book

    def totals(self) -> dict:
        """Merged ``self_s``/``total_s``/``calls``/``counts`` of every
        thread that recorded anything."""
        merged = {key: defaultdict(float) for key in
                  ("self_s", "total_s", "calls", "counts")}
        with self._lock:
            books = list(self._books)
        for book in books:
            for key in merged:
                for name, value in getattr(book, key).items():
                    merged[key][name] += value
        return {key: dict(value) for key, value in merged.items()}

    # ------------------------------------------------------------ wrappers
    def wrap(self, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span of ``layer``.

        ``before(book, args, kwargs)`` and ``after(book, result, args)``
        record extra counters.  A returned generator is handed back
        wrapped by :meth:`drive`, so its resumptions are timed too.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            book = tracer.book()
            book.calls[layer] += 1
            if before is not None:
                before(book, args, kwargs)
            book.enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                book.exit()
            if after is not None:
                after(book, out, args)
            if type(out) is GeneratorType:
                return tracer.drive(layer, out)
            return out

        return wrapper

    def drive(self, layer: str, gen):
        """Re-yield ``gen``'s values, timing each resumption as a span."""
        value, error = None, None
        while True:
            book = self.book()
            book.enter(layer)
            try:
                out = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                book.exit()
                return stop.value
            except BaseException:
                book.exit()
                raise
            book.exit()
            value, error = None, None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                error = exc

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls under ``name`` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.book().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- patching
    def _set(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def patch(self, owner, attr: str, layer: str, before=None, after=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        span wrapper."""
        original = owner[attr] if isinstance(owner, dict) \
            else owner.__dict__[attr]
        self._set(owner, attr, self.wrap(layer, original, before, after))

    def patch_counter(self, owner, attr: str, name: str) -> None:
        self._set(owner, attr, self.counter(name, owner.__dict__[attr]))

    def patch_factory(self, owner, attr: str, layer: str) -> None:
        """``owner.attr`` returns a function (e.g. a rank program built
        around a solver); wrap what it returns in spans of ``layer``."""
        factory = owner.__dict__[attr]
        tracer = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.wrap(layer, factory(*args, **kwargs))

        self._set(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# ---------------------------------------------------------------- hooks
def _flush_flops(book: Book, args, kwargs) -> None:
    # PanelAccumulator.flush(table, lo): tail[lo:, :] -= C[:k, lo:]ᵀ M[:k]
    acc, lo = args[0], (args[2] if len(args) > 2 else kwargs.get("lo", 0))
    if acc.k and lo < acc.nc:
        book.counts["solvers.kernels.flush_flop"] += \
            2.0 * acc.k * (acc.nc - lo) * acc.nm


def _degrade(book: Book, args, kwargs) -> None:
    book.counts["simmpi.fastp2p.degrades"] += 1


def _cache_hit(book: Book, result, args) -> None:
    if result is not None:
        book.counts["experiments.cache.hits"] += 1


def _cache_bytes(book: Book, args, kwargs) -> None:
    # ResultCache.write_text(self, address, payload)
    book.counts["experiments.cache.bytes_written"] += \
        len(args[2].encode("utf-8"))


def install_repro_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports.

    Each function is patched where its callers look it up: the
    communicator calls ``fastcoll.fast_bcast`` through the module, the
    monitoring framework calls the solver programs through its own
    module globals, ``run_skeleton_job`` reads the skeleton table at call
    time, and the runner calls the analytic model through names it
    imported.
    """
    from repro.core import framework
    from repro.energy.papi import PapiLibrary
    from repro.energy.rapl import RaplNode, RaplPackage
    from repro.experiments import runner, sweep
    from repro.experiments.cache import ResultCache
    from repro.experiments.cache_tiers import TieredResultCache
    from repro.obs import symbolic
    from repro.runtime.context import RankContext
    from repro.runtime.job import Job
    from repro.serve.app import _Handler
    from repro.serve.scheduler import Flight
    from repro.simmpi import aggregate, engine, fastcoll, fastp2p
    from repro.solvers.kernels import PanelAccumulator
    from repro.workloads import generator

    patch = tracer.patch
    patch(engine.Simulator, "run", "simmpi.engine")
    tracer.patch_counter(engine.Process, "_step", "simmpi.engine.resumes")
    for name in ("fast_bcast", "fast_reduce", "fast_gather", "fast_scatter",
                 "fast_allreduce", "fast_allgather", "fast_barrier"):
        patch(fastcoll, name, "simmpi.fastcoll")
    for name in ("vector_env", "bcast_times", "gather_times", "gather_sizes"):
        patch(aggregate, name, "simmpi.aggregate")
    for name in ("fast_send", "fast_isend", "fast_recv", "fast_pipeline"):
        patch(fastp2p, name, "simmpi.fastp2p")
    patch(fastp2p, "degrade", "simmpi.fastp2p", before=_degrade)
    patch(Job, "__init__", "runtime.job.build")
    patch(Job, "make_contexts", "runtime.job.build")
    patch(RankContext, "compute", "runtime.compute")
    for name in ("begin_core_activity", "end_core_activity",
                 "charge_dram_traffic", "begin_core_spin", "end_core_spin"):
        patch(RaplPackage, name, "energy.rapl")
    patch(RaplNode, "exact_domain_energy_j", "energy.rapl")
    for name in ("library_init", "thread_init", "create_eventset",
                 "add_named_events", "start", "read", "stop",
                 "hl_region_begin", "hl_region_end", "hl_read", "hl_stop"):
        patch(PapiLibrary, name, "energy.papi")
    patch(framework, "ime_parallel_program", "solvers.program")
    patch(framework, "pdgesv_program", "solvers.program")
    tracer.patch_factory(framework, "monitored_program",
                         "core.monitoring.program")
    patch(PanelAccumulator, "flush", "solvers.kernels.flush",
          before=_flush_flops)
    for name in list(symbolic.EXACT_SKELETON_PROGRAMS):
        patch(symbolic.EXACT_SKELETON_PROGRAMS, name, "obs.symbolic.program")
    patch(generator, "generate_system", "workloads.generate")
    patch(runner, "analytic_run", "perfmodel.analytic")
    patch(runner, "analytic_repetitions", "perfmodel.analytic")
    patch(ResultCache, "get_dict", "experiments.cache.get", after=_cache_hit)
    patch(ResultCache, "write_text", "experiments.cache.put",
          before=_cache_bytes)
    patch(sweep, "run_sweep", "experiments.sweep")
    patch(sweep, "run_task", "experiments.sweep.task")
    patch(TieredResultCache, "get", "experiments.cache_tiers.get")
    patch(TieredResultCache, "put", "experiments.cache_tiers.put")
    patch(_Handler, "do_POST", "serve.handler")
    patch(Flight, "wait", "serve.flight_wait")
