"""Single-flight compute scheduler over a persistent fork process pool.

Every cold request the daemon serves funnels through here, and this
module is the **only** place serve-layer code is allowed to touch the
compute path (SRV001 enforces that): handlers hold a
:class:`Flight` and wait; the scheduler owns the worker pool, the
in-flight table, and the write-back into the cache tiers.

Single-flight dedup: flights are keyed by cache address.  When N
identical cold requests arrive concurrently, the first creates the
flight and launches one pool task; the other N-1 join the same flight
(``coalesced`` counts them) and every waiter is released by the same
completion.  The cache write-back happens *before* waiters are released,
so a released waiter re-reading the tiers always hits.

Workers run with the disk cache disabled (``REPRO_CACHE_DIR=off`` set in
the pool initializer): the daemon is the sole writer of its cache root,
which keeps the journal-tracked eviction accounting (and the ``--cache-size``
bound) single-process and exact.

A worker that dies mid-task (OOM kill, signal) breaks the pool: every
flight the pool held fails with ``BrokenProcessPool`` and its waiters are
released at once, and the next submit replaces the pool, so a retried
address computes afresh instead of joining a flight that cannot finish.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading


def _worker_init() -> None:
    # Workers compute from scratch and return plain dicts; the daemon
    # process is the one writer of the (bounded, journal-tracked) root.
    os.environ["REPRO_CACHE_DIR"] = "off"
    # A terminal Ctrl-C reaches the whole process group; shutdown is the
    # daemon's job (close() terminates the workers), not each worker's.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_run(task) -> dict:
    from repro.experiments.cache import result_to_dict
    from repro.experiments.sweep import _compute_task
    from repro.memo import reset_hot_caches

    result = _compute_task(task)  # repro: allow[SRV001] -- the scheduler IS the canonical compute path
    row = result_to_dict(result)
    # Long-lived pool workers walk many (n, ranks) shapes; drop the
    # module-level memo tables between tasks (the sweep-worker idiom).
    reset_hot_caches()
    return row


class Flight:
    """One in-flight computation; N waiters share it."""

    __slots__ = ("address", "meta", "done", "row", "error", "waiters")

    def __init__(self, address: str, meta=None):
        self.address = address
        self.meta = meta
        self.done = threading.Event()
        self.row: dict | None = None
        self.error: BaseException | None = None
        self.waiters = 1

    def wait(self, timeout: float | None = None) -> dict:
        if not self.done.wait(timeout):
            raise TimeoutError(f"flight {self.address[:12]} timed out")
        if self.error is not None:
            raise self.error
        return self.row


class SingleFlightScheduler:
    """Address-keyed single-flight dispatch onto a fork process pool."""

    def __init__(self, jobs: int = 2, store=None):
        """``store(flight, row)`` is called exactly once per completed
        flight, before any waiter is released — the daemon passes the
        cache-tier write-back here (``flight.meta`` carries whatever
        context ``submit`` was given, e.g. the (config, fingerprint)
        pair the tiers key by)."""
        self._store = store
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}
        self.launched = 0
        self.coalesced = 0
        self.failed = 0
        self._jobs = max(1, jobs)
        self._closed = False
        self._pool = self._new_pool()

    def _new_pool(self):
        # Imported here, not at module load, as run_sweep does: importing
        # the serve layer does not pay for the executor machinery.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=self._jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init)
        # The first submit forks every worker.  Do it now, as the daemon
        # starts, not on the first miss: that would fork from a request
        # thread while the server's threads run, and charge the miss.
        pool.submit(int)
        return pool

    def submit(self, address: str, task, meta=None) -> Flight:
        """Launch (or join) the flight computing ``task``."""
        with self._lock:
            flight = self._flights.get(address)
            if flight is not None:
                flight.waiters += 1
                self.coalesced += 1
                return flight
            flight = Flight(address, meta)
            self._flights[address] = flight
            self.launched += 1
            pool = self._pool
        # Outside the lock: a future that is already done runs its
        # callback, and so _finish, on this thread.
        try:
            try:
                future = pool.submit(_worker_run, task)
            except RuntimeError:  # BrokenProcessPool, or closed (kept)
                future = self._replace(pool).submit(_worker_run, task)
        except BaseException as exc:  # closed or broken again: fail it
            self._finish(flight, None, exc)
            return flight
        future.add_done_callback(
            lambda done, f=flight: self._complete(f, done))
        return flight

    def _replace(self, broken):
        """The pool after ``broken``: replaced once, by whichever submit
        first finds it broken, and never after close()."""
        with self._lock:
            if self._pool is broken and not self._closed:
                broken.shutdown(wait=False)
                self._pool = self._new_pool()
            return self._pool

    def _complete(self, flight: Flight, future) -> None:
        try:
            row, error = future.result(), None
        except BaseException as exc:  # task error, dead worker, cancel
            row, error = None, exc
        self._finish(flight, row, error)

    def _finish(self, flight: Flight, row: dict | None,
                error: BaseException | None) -> None:
        # Runs on the pool's manager thread.  Order matters: write-back,
        # then retire the flight, then release the waiters — a waiter
        # that re-reads the cache after wait() must hit.
        if error is None and self._store is not None:
            try:
                self._store(flight, row)
            except BaseException as exc:  # surface store failures to waiters
                error = exc
        flight.row, flight.error = row, error
        with self._lock:
            self.failed += error is not None
            self._flights.pop(flight.address, None)
        flight.done.set()

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._flights)

    def stats(self) -> dict:
        with self._lock:
            return {
                "launched": self.launched,
                "coalesced": self.coalesced,
                "failed": self.failed,
                "inflight": len(self._flights),
            }

    def close(self) -> None:
        """Kill the workers, running tasks included, and reap them; the
        flights they held fail.  (``ProcessPoolExecutor`` has no public
        terminate before Python 3.14, hence ``_processes``.)"""
        with self._lock:
            self._closed = True
            pool = self._pool
        for worker in list((pool._processes or {}).values()):
            worker.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
