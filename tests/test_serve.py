"""Campaign daemon tests: endpoints, bit-identity, dedup, eviction.

The daemon's core contract: a served result is *the same cache entry*
``repro run`` / ``repro sweep`` would produce — same sweep-level config
key, same model fingerprint, same address, same bytes on disk.  These
tests run the server in-process on an ephemeral port and check that
contract from both sides, plus the serving-layer behaviors (NDJSON
streaming, single-flight dedup, model pinning, bounded eviction).
"""

import copy
import http.client
import json
import statistics
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import cache as cache_mod
from repro.experiments.cache import ResultCache, model_fingerprint
from repro.experiments.runner import _run_analytic_cached
from repro.experiments.sweep import (
    _task_config,
    _task_machine,
    run_task,
    task_from_config,
)
from repro.perfmodel.calibration import DEFAULT_CALIBRATION
from repro.serve.app import MAX_BODY_BYTES, create_server
from repro.serve.loadtest import check_regression, load_report

SPEC = """\
schema: 1
experiment:
  mode: analytic
  algorithms: [ime]
  matrix_sizes: [8640]
  ranks: [144]
  shapes: [full]
  repetitions: 2
  seed: 0
"""

TWO_SPEC = """\
schema: 1
experiment:
  mode: analytic
  algorithms: [ime, scalapack]
  matrix_sizes: [8640]
  ranks: [144]
  shapes: [full]
  repetitions: 2
  seed: 0
"""


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        conn.request(method, path, body=body.encode() if body else None)
        response = conn.getresponse()
        text = response.read().decode()
    finally:
        conn.close()
    if response.headers.get_content_type() == "application/x-ndjson":
        return response.status, [json.loads(line)
                                 for line in text.splitlines()]
    return response.status, json.loads(text) if text else None


@pytest.fixture()
def server(tmp_path, monkeypatch):
    # The daemon owns its root; keep the ambient env out of the picture.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ambient"))
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()
    srv = create_server(port=0, jobs=2, cache_dir=str(tmp_path / "daemon"))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown_all()
    thread.join(timeout=10)
    cache_mod._DEFAULT_CACHES.clear()


def port_of(srv):
    return srv.server_address[1]


def test_shutdown_of_an_idle_daemon_is_prompt():
    """shutdown_all() wakes serve_forever at once instead of waiting for
    the stdlib loop's next 0.5 s poll; the median of five stops keeps a
    loaded host from flaking it."""
    waits = []
    for _ in range(5):
        srv = create_server(port=0, jobs=2, cache_dir="off")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        time.sleep(0.05)  # let the loop enter its poll
        t0 = time.perf_counter()
        srv.shutdown_all()
        waits.append(time.perf_counter() - t0)
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert statistics.median(waits) < 0.2, waits


# -------------------------------------------------------------- endpoints
class TestEndpoints:
    def test_health(self, server):
        status, body = request(port_of(server), "GET", "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["schema"] == 1
        assert body["model"] == server.model
        assert body["calibration"] == server.calibration

    def test_stats_shape(self, server):
        status, body = request(port_of(server), "GET", "/stats")
        assert status == 200
        assert {"cache", "scheduler", "requests"} <= set(body)
        assert {"l1", "l2", "puts"} <= set(body["cache"])
        assert {"launched", "coalesced", "failed", "inflight"} \
            <= set(body["scheduler"])

    def test_unknown_path_404(self, server):
        status, _ = request(port_of(server), "GET", "/nope")
        assert status == 404

    def test_run_rejects_bad_spec_with_issues(self, server):
        status, body = request(port_of(server), "POST", "/run",
                               "schema: 1\nexperiment:\n  mode: warp\n")
        assert status == 400
        assert body["error"] == "spec"
        assert body["issues"]

    def test_run_rejects_unknown_grid(self, server):
        status, body = request(port_of(server), "POST",
                               "/run?grid=bogus", SPEC)
        assert status == 400

    def test_batch_rejects_non_analytic_config(self, server):
        config = {"mode": "monitored", "algorithm": "ime", "n": 64,
                  "ranks": 4, "shape": "full", "repetitions": 1, "seed": 0}
        status, body = request(port_of(server), "POST", "/batch",
                               json.dumps({"configs": [config]}))
        assert status == 400

    def test_model_pin_mismatch_is_409(self, server):
        status, body = request(port_of(server), "POST",
                               "/run?model=deadbeef", SPEC)
        assert status == 409
        assert body["error"] == "model-mismatch"
        assert body["served"] == [server.model]
        config = {"mode": "analytic", "algorithm": "ime", "n": 8640,
                  "ranks": 144, "shape": "full", "repetitions": 2,
                  "seed": 0}
        status, body = request(
            port_of(server), "POST", "/batch",
            json.dumps({"configs": [config], "model": "deadbeef"}))
        assert status == 409
        assert body["served"] == [server.model]

    def test_model_pin_match_is_accepted(self, server):
        status, lines = request(port_of(server), "POST",
                                f"/run?model={server.model}", SPEC)
        assert status == 200
        assert lines[-1]["type"] == "done"


# ------------------------------------------------------ request framing
def request_with_length(port, path, content_length):
    """POST with a hand-set ``Content-Length`` and no body bytes; the
    short timeout turns a server that waits for the body into a failure
    instead of a hang."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read().decode())
        closing = response.headers.get("Connection")
    finally:
        conn.close()
    return response.status, body, closing


class TestContentLength:
    @pytest.mark.parametrize("path", ["/run", "/batch"])
    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "0x10"])
    def test_malformed_length_is_400(self, server, path, value):
        status, body, closing = request_with_length(port_of(server), path,
                                                    value)
        assert status == 400
        assert body["error"] == "bad-content-length"
        assert closing == "close"

    @pytest.mark.parametrize("path", ["/run", "/batch"])
    def test_oversized_body_is_413(self, server, path):
        status, body, closing = request_with_length(
            port_of(server), path, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert body["error"] == "body-too-large"
        assert body["limit"] == MAX_BODY_BYTES
        assert closing == "close"

    def test_limit_admits_the_full_section5_batch(self, server):
        from repro.experiments.sweep import paper_tasks

        configs = [_task_config(task) for task in paper_tasks()]
        text = json.dumps({"configs": configs}, indent=2)
        assert 100 * len(text) < MAX_BODY_BYTES
        status, body = request(port_of(server), "POST", "/batch", text)
        assert status == 200

    def test_daemon_keeps_serving_after_rejects(self, server):
        port = port_of(server)
        request_with_length(port, "/batch", "abc")
        request_with_length(port, "/batch", str(MAX_BODY_BYTES + 1))
        status, body = request(port, "GET", "/health")
        assert status == 200 and body["ok"] is True


class TestKeepAlive:
    @pytest.mark.parametrize("path", ["/nope", "/run?grid=bogus"])
    def test_rejected_post_consumes_its_body(self, server, path):
        # An answer sent before reading the body must not leave it on the
        # connection, where it would be parsed as the next request.
        conn = http.client.HTTPConnection("127.0.0.1", port_of(server),
                                          timeout=10.0)
        try:
            conn.request("POST", path, body=json.dumps({"configs": []}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            assert response.status in (400, 404)
            assert response.headers.get("Connection") != "close"
            conn.request("GET", "/health")
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        assert response.status == 200
        assert json.loads(text)["ok"] is True


# ------------------------------------------------------------ bit-identity
class TestRunContract:
    def test_run_streams_and_caches(self, server):
        port = port_of(server)
        status, cold = request(port, "POST", "/run", TWO_SPEC)
        assert status == 200
        assert cold[0]["type"] == "header"
        points = [line for line in cold if line["type"] == "point"]
        assert len(points) == 2
        assert all(p["cached"] is False for p in points)
        assert cold[-1]["type"] == "done"
        status, warm = request(port, "POST", "/run", TWO_SPEC)
        warm_points = [line for line in warm if line["type"] == "point"]
        assert all(p["cached"] is True for p in warm_points)
        assert [p["result"] for p in warm_points] == \
            [p["result"] for p in points]

    def test_served_entry_is_the_sweep_cache_entry(self, server,
                                                   monkeypatch):
        """The bytes the daemon wrote are the bytes `repro run`/`repro
        sweep` address: run_task pointed at the daemon's root hits."""
        port = port_of(server)
        _, lines = request(port, "POST", "/run", SPEC)
        point = next(line for line in lines if line["type"] == "point")

        task = task_from_config(point["config"])
        config = _task_config(task)
        assert config == point["config"]
        fp = model_fingerprint(DEFAULT_CALIBRATION, _task_machine(task))
        assert fp == server.model

        disk = ResultCache(server.tiers.disk.root)
        address = disk.address(config, fp)
        assert address == point["address"]
        on_disk = disk.path_for(address).read_text()
        assert on_disk == disk.entry_text(address, config, fp,
                                          point["result"])

        # The sweep runner, pointed at the same root, answers from it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(server.tiers.disk.root))
        cache_mod._DEFAULT_CACHES.clear()
        _run_analytic_cached.cache_clear()
        row = run_task(task)
        assert row["cached"] is True
        for key, value in point["result"].items():
            assert row[key] == value

    def test_batch_equals_run(self, server):
        port = port_of(server)
        _, lines = request(port, "POST", "/run", TWO_SPEC)
        points = [line for line in lines if line["type"] == "point"]
        status, batch = request(
            port, "POST", "/batch",
            json.dumps({"configs": [p["config"] for p in points]}))
        assert status == 200
        assert batch["count"] == 2
        assert batch["from_cache"] == 2
        assert [r["result"] for r in batch["results"]] == \
            [p["result"] for p in points]
        assert [r["address"] for r in batch["results"]] == \
            [p["address"] for p in points]

    def test_cold_batch_equals_cold_run(self, tmp_path, monkeypatch):
        """Two fresh daemons, one asked via /run and one via /batch,
        produce identical results and addresses for the same configs."""
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        cache_mod._DEFAULT_CACHES.clear()
        servers, threads = [], []
        for name in ("a", "b"):
            srv = create_server(port=0, jobs=2,
                                cache_dir=str(tmp_path / name))
            thread = threading.Thread(target=srv.serve_forever,
                                      daemon=True)
            thread.start()
            servers.append(srv)
            threads.append(thread)
        try:
            _, lines = request(port_of(servers[0]), "POST", "/run", SPEC)
            point = next(l for l in lines if l["type"] == "point")
            status, batch = request(
                port_of(servers[1]), "POST", "/batch",
                json.dumps({"configs": [point["config"]]}))
            assert status == 200
            assert batch["from_cache"] == 0
            assert batch["results"][0]["result"] == point["result"]
            assert batch["results"][0]["address"] == point["address"]
        finally:
            for srv, thread in zip(servers, threads):
                srv.shutdown_all()
                thread.join(timeout=10)


# ------------------------------------------------------------------ dedup
class TestSingleFlight:
    CLIENTS = 6

    def test_identical_cold_requests_cost_one_computation(
            self, server, monkeypatch):
        port = port_of(server)
        scheduler = server.scheduler
        before = scheduler.stats()
        # The scheduler writes back before it retires the flight, so
        # holding the write-back keeps the flight open until every other
        # client has joined it; otherwise a late client hits the cache
        # instead of coalescing.  The hold is bounded: a dedup bug fails
        # the asserts below rather than hanging the test.
        all_joined = threading.Event()
        store = scheduler._store

        def gated_store(flight, row):
            all_joined.wait(timeout=30)
            store(flight, row)

        monkeypatch.setattr(scheduler, "_store", gated_store)
        barrier = threading.Barrier(self.CLIENTS)
        results, errors = [], []

        def worker():
            try:
                barrier.wait()
                status, lines = request(port, "POST", "/run", SPEC)
                assert status == 200
                point = next(l for l in lines if l["type"] == "point")
                results.append(point)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker)
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while (scheduler.stats()["coalesced"] - before["coalesced"]
               < self.CLIENTS - 1 and time.monotonic() < deadline):
            time.sleep(0.005)
        all_joined.set()
        for t in threads:
            t.join()

        assert errors == []
        assert len(results) == self.CLIENTS
        after = scheduler.stats()
        assert after["launched"] - before["launched"] == 1
        assert after["coalesced"] - before["coalesced"] == self.CLIENTS - 1
        first = results[0]["result"]
        assert all(p["result"] == first for p in results)


# ----------------------------------------------------------- worker death
#: Runs in a fresh interpreter: the first task's worker parks until the
#: hold file goes and is SIGKILLed meanwhile; then the same address is
#: submitted again.  Prints what the waiters and counters saw, as JSON.
WORKER_DEATH_SCRIPT = textwrap.dedent("""\
    import json, os, signal, sys, time
    from pathlib import Path

    from repro.experiments import sweep
    from repro.serve.scheduler import SingleFlightScheduler

    hold, pid_file = Path(sys.argv[1]), Path(sys.argv[2])
    compute = sweep._compute_task

    def parked(task):
        pid_file.write_text(str(os.getpid()))
        while hold.exists():
            time.sleep(0.02)
        return compute(task)

    sweep._compute_task = parked  # inherited by the forked workers
    task = sweep.paper_tasks()[0]
    scheduler = SingleFlightScheduler(jobs=1)
    out = {}
    try:
        flight = scheduler.submit("addr", task)
        while not pid_file.exists():
            time.sleep(0.02)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        t0 = time.monotonic()
        try:
            flight.wait(timeout=20)
            out["first"] = "row"
        except BaseException as exc:
            out["first"] = type(exc).__name__
        out["first_wait_s"] = time.monotonic() - t0
        out["after_death"] = scheduler.stats()
        hold.unlink()
        again = scheduler.submit("addr", task)
        out["retry_is_new_flight"] = again is not flight
        try:
            out["retry"] = sorted(again.wait(timeout=20))
        except BaseException as exc:
            out["retry"] = type(exc).__name__
        out["after_retry"] = scheduler.stats()
    finally:
        scheduler.close()
    print(json.dumps(out))
""")


class TestWorkerDeath:
    def test_a_killed_worker_fails_its_flight_and_a_retry_recomputes(
            self, tmp_path):
        hold = tmp_path / "hold"
        hold.touch()
        proc = subprocess.run(
            [sys.executable, "-c", WORKER_DEATH_SCRIPT, str(hold),
             str(tmp_path / "worker.pid")],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src"),
                 "PATH": "/usr/bin:/bin", "REPRO_CACHE_DIR": "off"})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["first"] == "BrokenProcessPool"
        assert out["first_wait_s"] < 10
        assert out["after_death"] == {
            "launched": 1, "coalesced": 0, "failed": 1, "inflight": 0}
        assert out["retry_is_new_flight"]
        assert "mean_duration" in out["retry"]
        assert out["after_retry"] == {
            "launched": 2, "coalesced": 0, "failed": 1, "inflight": 0}


# --------------------------------------------------------------- eviction
class TestBoundedDaemon:
    def test_eviction_bounds_hold_and_recompute_is_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        cache_mod._DEFAULT_CACHES.clear()
        # ~820 B per entry: a 1 KiB budget holds exactly one of the two.
        srv = create_server(port=0, jobs=2,
                            cache_dir=str(tmp_path / "small"),
                            max_bytes=1024, l1_entries=1)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            port = port_of(srv)
            _, first = request(port, "POST", "/run", TWO_SPEC)
            points = [l for l in first if l["type"] == "point"]
            stats = srv.tiers.stats()
            assert stats["l2"]["bytes"] <= 1024
            assert stats["l2"]["evictions"] > 0
            # The evicted config recomputes to the identical result at
            # the identical address.
            _, again = request(port, "POST", "/run", TWO_SPEC)
            again_points = [l for l in again if l["type"] == "point"]
            assert [p["result"] for p in again_points] == \
                [p["result"] for p in points]
            assert [p["address"] for p in again_points] == \
                [p["address"] for p in points]
            assert srv.tiers.stats()["l2"]["bytes"] <= 1024
        finally:
            srv.shutdown_all()
            thread.join(timeout=10)


# ------------------------------------------------------ load-test guards
class TestLoadtestGuards:
    """``repro loadtest --check`` against the committed quick baseline."""

    @staticmethod
    def baseline():
        path = Path(__file__).resolve().parents[1] / "BENCH_serve.json"
        return load_report(path)["modes"]["quick"]

    def section(self, **phases):
        section = copy.deepcopy(self.baseline())
        for phase, fields in phases.items():
            section[phase].update(fields)
        return section

    def test_batch_ratio_is_reported_not_guarded(self):
        # One engine on both sides: the ratio can fall below 1.
        section = self.section(batch={"per_config_speedup": 0.5})
        assert check_regression(section, self.baseline()) == []

    def test_cold_fill_guarded_at_twice_the_baseline(self):
        baseline = self.baseline()
        limit = 2.0 * baseline["cold"]["wall_s"]
        within = self.section(cold={"wall_s": 0.99 * limit})
        assert check_regression(within, baseline) == []
        slow = self.section(cold={"wall_s": 1.01 * limit})
        [failure] = check_regression(slow, baseline)
        assert failure.startswith("cold wall_s:")
        assert "baseline host unrecorded; current host " in failure
        baseline["host"] = {"cpu": "Example CPU", "nproc": 64,
                            "python": "3.11.7", "numpy": "2.0.0"}
        [failure] = check_regression(slow, baseline)
        assert "baseline host Example CPU, 64 cores" in failure
