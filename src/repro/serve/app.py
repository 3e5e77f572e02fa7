"""The campaign daemon: HTTP/JSON serving of analytic/DES campaign points.

One long-lived process owns the cache tiers
(:class:`~repro.experiments.cache_tiers.TieredResultCache`) and the
single-flight scheduler (:mod:`repro.serve.scheduler`); request handler
threads only look up, submit, and stream.  The wire contract is the
repo's existing one, re-served:

* ``POST /run`` — the body **is** a YAML experiment spec, the same text
  ``repro run config.yaml`` takes (``?grid=quick|skeleton`` selects the
  spec's other grids).  The response streams NDJSON: a header line, one
  ``point`` line per task as it completes, and a ``done`` line.  Each
  point carries the task's canonical config and cache address — served
  results share cache entries with ``repro run``/``repro sweep`` byte
  for byte.
* ``POST /batch`` — a JSON list of canonical analytic config dicts
  (exactly the ``config`` objects ``/run`` echoes); misses are evaluated
  through the batched analytic engine instead of one loop per request.
* ``GET /stats`` — tier hit/miss/eviction counters, scheduler
  launched/coalesced counts, request counters.
* ``GET /health`` — liveness plus the calibration/model fingerprints.

Versioning: every address includes the model fingerprint, so a client
pinning ``?model=<fp>`` is rejected with 409 when the server's model
changed — the wire-level form of the cache's no-staleness property.
"""

from __future__ import annotations

import functools
import json
import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.cluster.machine import marconi_a3
from repro.experiments.cache import (
    _cache_root,
    calibration_fingerprint,
    model_fingerprint,
    result_to_dict,
)
from repro.experiments.cache_tiers import TieredResultCache
from repro.experiments.spec.loader import compile_tasks, load_text
from repro.experiments.spec.schema import SpecError
from repro.experiments.sweep import _task_config, _task_machine, task_from_config
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.serve.scheduler import SingleFlightScheduler

#: bumped when the wire schema (not the cache schema) changes
WIRE_SCHEMA = 1
#: per-flight wait bound: paper-scale analytic tasks are sub-second, DES
#: validation points are minutes; beyond this something is wedged
COMPUTE_TIMEOUT_S = 900.0

#: largest request body the daemon reads; the full §5 ``/batch`` (72
#: canonical configs) is about 9 KB as compact JSON and 13 KB indented,
#: so this leaves over 300x headroom while bounding what one request
#: can make a handler thread buffer
MAX_BODY_BYTES = 4 << 20

_GRIDS = ("experiment", "quick", "skeleton")


@functools.lru_cache(maxsize=64)
def _fingerprint_for(machine) -> str:
    return model_fingerprint(DEFAULT_CALIBRATION, machine)


class CampaignServer(ThreadingHTTPServer):
    """HTTP server owning the tiers, the scheduler, and the counters."""

    daemon_threads = True
    # Bursts of simultaneous clients (the single-flight case the daemon
    # exists for) must not overflow the listen backlog into resets.
    request_queue_size = 128

    def __init__(self, address, *, tiers: TieredResultCache,
                 scheduler: SingleFlightScheduler,
                 compute_timeout_s: float = COMPUTE_TIMEOUT_S):
        super().__init__(address, _Handler)
        self.tiers = tiers
        self.scheduler = scheduler
        self.compute_timeout_s = compute_timeout_s
        self.calibration = calibration_fingerprint(DEFAULT_CALIBRATION)
        self.model = _fingerprint_for(marconi_a3())
        self.started = time.monotonic()
        self.counters_lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self._wake_r, self._wake_w = socket.socketpair()
        self._stop_requested = False
        self._stopped = threading.Event()

    def handle_error(self, request, client_address) -> None:
        # Keep-alive clients that vanish mid-read are routine under load;
        # everything else keeps the stdlib traceback.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionResetError, BrokenPipeError,
                            TimeoutError)):
            return
        super().handle_error(request, client_address)

    def count(self, endpoint: str) -> None:
        with self.counters_lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def stats(self) -> dict:
        with self.counters_lock:
            requests = dict(self.requests)
        return {
            "schema": WIRE_SCHEMA,
            "uptime_s": time.monotonic() - self.started,
            "calibration": self.calibration,
            "model": self.model,
            "requests": requests,
            "cache": self.tiers.stats(),
            "scheduler": self.scheduler.stats(),
        }

    def serve_forever(self, poll_interval: float | None = None) -> None:
        """Accept connections until :meth:`shutdown`.

        The stdlib loop wakes every ``poll_interval`` (0.5 s) to look for
        a stop request, so each stop waited up to half a second, and a
        short interval wakes a busy daemon's threads for nothing.  This
        loop sleeps until a client connects or ``shutdown`` writes to the
        wake-up socket; ``poll_interval`` is accepted and ignored.
        """
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_r, selectors.EVENT_READ)
                while not self._stop_requested:
                    for key, _events in selector.select():
                        if key.fileobj is self._wake_r:
                            self._wake_r.recv(1)
                        elif not self._stop_requested:
                            self._handle_request_noblock()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (from another thread) and wait."""
        self._stop_requested = True
        self._wake_w.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()

    def shutdown_all(self) -> None:
        self.shutdown()
        self.server_close()
        self.scheduler.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Responses are written as separate header/body segments; without
    # TCP_NODELAY the second segment waits out Nagle vs delayed-ACK
    # (~40 ms per request — dwarfing the sub-ms warm hit path).
    disable_nagle_algorithm = True
    server: CampaignServer  # narrowed for readability

    # quiet by default; the daemon's own log line per request is noise at
    # thousands of requests per loadtest
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # ------------------------------------------------------------- plumbing
    def _send_json(self, code: int, payload: dict,
                   close: bool = False) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` once a 400 (``Content-Length``
        not a non-negative integer) or 413 (over :data:`MAX_BODY_BYTES`)
        has been sent.  Those answers close the connection: the unread
        body cannot be skipped to find the next request."""
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._send_json(400, {"error": "bad-content-length",
                                  "value": raw}, close=True)
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "body-too-large",
                                  "limit": MAX_BODY_BYTES,
                                  "length": length}, close=True)
            return None
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------------ GET
    def do_GET(self) -> None:  # noqa: N802 - stdlib method name
        path = urlparse(self.path).path
        if path == "/health":
            self.server.count("health")
            self._send_json(200, {
                "ok": True,
                "schema": WIRE_SCHEMA,
                "calibration": self.server.calibration,
                "model": self.server.model,
            })
        elif path == "/stats":
            self.server.count("stats")
            self._send_json(200, self.server.stats())
        else:
            self._send_json(404, {"error": "not-found", "path": path})

    # ----------------------------------------------------------------- POST
    def do_POST(self) -> None:  # noqa: N802 - stdlib method name
        # Read the body before dispatch: an answer sent with the body
        # still unread would leave it on a keep-alive connection, to be
        # parsed as the next request line.
        body = self._read_body()
        if body is None:
            return
        url = urlparse(self.path)
        if url.path == "/run":
            self.server.count("run")
            self._handle_run(url, body)
        elif url.path == "/batch":
            self.server.count("batch")
            self._handle_batch(body)
        else:
            self._send_json(404, {"error": "not-found", "path": url.path})

    # ----------------------------------------------------------------- /run
    def _handle_run(self, url, body: bytes) -> None:
        t0 = time.perf_counter()
        query = parse_qs(url.query)
        grid = query.get("grid", ["experiment"])[0]
        if grid not in _GRIDS:
            self._send_json(400, {"error": "bad-grid", "grid": grid,
                                  "choices": list(_GRIDS)})
            return
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._send_json(400, {"error": "body-not-utf8"})
            return
        try:
            spec, warnings = load_text(text, "<request>")
        except SpecError as exc:
            self._send_json(400, {
                "error": "spec",
                "issues": [issue.format() for issue in exc.issues],
            })
            return
        try:
            tasks = compile_tasks(spec, quick=(grid == "quick"),
                                  skeleton=(grid == "skeleton"))
        except ValueError as exc:
            self._send_json(400, {"error": "grid", "detail": str(exc)})
            return

        fingerprints = [_fingerprint_for(_task_machine(t)) for t in tasks]
        pin = query.get("model", [None])[0]
        if pin is not None and any(fp != pin for fp in fingerprints):
            self._send_json(409, {
                "error": "model-mismatch",
                "pinned": pin,
                "served": sorted(set(fingerprints)),
            })
            return

        tiers, scheduler = self.server.tiers, self.server.scheduler
        points = []
        for task, fingerprint in zip(tasks, fingerprints):
            config = _task_config(task)
            address = tiers.address(config, fingerprint)
            row = tiers.get(config, fingerprint, address)
            flight = None
            if row is None:
                # Submit every miss before streaming: misses of one
                # request compute in parallel across the pool, and
                # identical concurrent requests coalesce per address.
                flight = scheduler.submit(address, task,
                                          meta=(config, fingerprint))
            points.append((task, config, address, row, flight))

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

        def line(obj: dict) -> None:
            self.wfile.write((json.dumps(obj, sort_keys=True) + "\n").encode())
            self.wfile.flush()

        line({
            "type": "header",
            "schema": WIRE_SCHEMA,
            "grid": grid,
            "tasks": len(tasks),
            "calibration": self.server.calibration,
            "warnings": [issue.format() for issue in warnings],
        })
        cached = 0
        for task, config, address, row, flight in points:
            if flight is not None:
                try:
                    row = flight.wait(self.server.compute_timeout_s)
                except BaseException as exc:
                    line({"type": "error", "label": task.label,
                          "detail": str(exc)})
                    continue
            else:
                cached += 1
            line({
                "type": "point",
                "label": task.label,
                "config": config,
                "address": address,
                "cached": flight is None,
                "result": row,
                "wall_s": time.perf_counter() - t0,
            })
        line({
            "type": "done",
            "tasks": len(tasks),
            "from_cache": cached,
            "wall_s": time.perf_counter() - t0,
        })

    # --------------------------------------------------------------- /batch
    def _handle_batch(self, body: bytes) -> None:
        t0 = time.perf_counter()
        from repro.experiments.runner import run_analytic_batch

        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": "bad-json", "detail": str(exc)})
            return
        configs = payload.get("configs") if isinstance(payload, dict) else None
        if not isinstance(configs, list) or not configs:
            self._send_json(400, {
                "error": "bad-batch",
                "detail": "body must be {\"configs\": [<config>, ...]}",
            })
            return
        pin = payload.get("model") if isinstance(payload, dict) else None
        if pin is not None and pin != self.server.model:
            self._send_json(409, {"error": "model-mismatch", "pinned": pin,
                                  "served": [self.server.model]})
            return
        tasks = []
        for index, config in enumerate(configs):
            try:
                if not isinstance(config, dict):
                    raise ValueError("config must be a mapping")
                task = task_from_config(config)
                if task.mode != "analytic":
                    raise ValueError("/batch serves analytic configs only")
            except (ValueError, TypeError) as exc:
                self._send_json(400, {"error": "bad-config", "index": index,
                                      "detail": str(exc)})
                return
            tasks.append(task)

        tiers = self.server.tiers
        fingerprint = self.server.model
        rows: list[tuple] = []
        misses: list[int] = []
        for index, task in enumerate(tasks):
            config = _task_config(task)
            address = tiers.address(config, fingerprint)
            row = tiers.get(config, fingerprint, address)
            rows.append((task, config, address, row))
            if row is None:
                misses.append(index)
        if misses:
            # One pass over all cold configs through the batched engine.
            # The daemon stays the sole cache writer (cache=None inside
            # the batch engine); keys are the sweep-level configs, so
            # /batch results land at the exact addresses /run and
            # ``repro sweep`` use.
            requests = [
                {
                    "algorithm": rows[i][0].algorithm,
                    "n": rows[i][0].n,
                    "ranks": rows[i][0].ranks,
                    "shape": rows[i][0].shape_value,
                    "repetitions": rows[i][0].repetitions,
                    "base_seed": rows[i][0].seed,
                    "power_cap_w": rows[i][0].power_cap_w,
                }
                for i in misses
            ]
            results = run_analytic_batch(requests, cache=None)
            for index, result in zip(misses, results):
                task, config, address, _ = rows[index]
                row = result_to_dict(result)
                tiers.put(config, fingerprint, row)
                rows[index] = (task, config, address, row)
        body = [
            {
                "label": task.label,
                "config": config,
                "address": address,
                "result": row,
            }
            for task, config, address, row in rows
        ]
        self._send_json(200, {
            "schema": WIRE_SCHEMA,
            "model": fingerprint,
            "count": len(body),
            "from_cache": len(tasks) - len(misses),
            "results": body,
            "wall_s": time.perf_counter() - t0,
        })


def create_server(host: str = "127.0.0.1", port: int = 0, *,
                  jobs: int = 2,
                  cache_dir: str | None = None,
                  max_bytes: int | None = None,
                  l1_entries: int = 1024,
                  compute_timeout_s: float = COMPUTE_TIMEOUT_S) -> CampaignServer:
    """Build a ready-to-serve daemon (port 0 = ephemeral, for tests).

    ``cache_dir`` follows the CLI precedence: explicit value beats
    ``$REPRO_CACHE_DIR`` beats ``.repro-cache/``; ``"off"`` serves from
    the in-memory L1 alone.
    """
    if cache_dir is not None:
        root = None if cache_dir.strip().lower() in ("", "0", "off", "none") \
            else cache_dir
    else:
        resolved = _cache_root()
        root = None if resolved is None else str(resolved)
    tiers = TieredResultCache(root, max_bytes=max_bytes,
                              l1_entries=l1_entries)

    def store(flight, row: dict) -> None:
        # Runs on the scheduler's completion thread, before waiters are
        # released: a handler that re-reads the tiers after wait() hits.
        config, fingerprint = flight.meta
        tiers.put(config, fingerprint, row)

    scheduler = SingleFlightScheduler(jobs=jobs, store=store)
    return CampaignServer((host, port), tiers=tiers, scheduler=scheduler,
                          compute_timeout_s=compute_timeout_s)
