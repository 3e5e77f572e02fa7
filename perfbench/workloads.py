"""The four benchmark workloads.

Each workload owns its inputs (made from ``--seed``), a repeatable
:meth:`~Workload.prepare` (the set-up a user pays once per process), a
:meth:`~Workload.round` of measured work, and the correctness checks of
every operation it runs.  Operations that raise or fail a check are
counted in :attr:`Workload.failed`; the first few messages are kept.

The end-to-end metrics are the same for every workload, with the
operation they time named per workload (see ``perfbench/README.md``):

* ``slow_op_ms`` — median host ms of the workload's heavier operation;
* ``fast_op_ms`` — median host ms of its lighter operation;
* ``work_per_s`` — the workload's throughput;
* ``setup_s`` and ``peak_rss_mb`` come from the harness.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import json
import os
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from perfbench.stats import tail_percentile

#: the seed the committed goldens were made with
DEFAULT_SEED = 0
#: failure messages kept per run
MAX_MESSAGES = 5
#: relative solution error a solver may leave against LAPACK
SOLUTION_RTOL = 1e-8

_clock = time.perf_counter

#: the host-speed reference's wall time on the reference host at full
#: speed (see :func:`host_probe`)
PROBE_NOMINAL_S = 0.015


@functools.lru_cache(maxsize=1)
def _probe_data():
    """A shuffled successor table and a small dict for the probe."""
    size = 1 << 16
    order = list(range(size))
    random.Random(0).shuffle(order)
    successor = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        successor[a] = b
    values = [float(i) for i in range(size)]
    table = {i: (i, str(i)) for i in range(20_000)}
    return successor, values, table


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python reference at the host's current
    speed: integer arithmetic, pointer chasing through a shuffled list,
    and dict lookups with small allocations — the mix the simulator's
    interpreter-bound code runs, so neighbours that slow one slow the
    other alike."""
    successor, values, table = _probe_data()
    t0 = _clock()
    acc = 0.0
    for i in range(50_000):
        acc += i * i % 7
    j = 0
    for _ in range(50_000):
        j = successor[j]
        acc += values[j]
    for i in range(30_000):
        key = i * 7919 % 20_000
        acc += table[key][0] + len([key, i])
    return _clock() - t0


def _modeled(job) -> dict:
    """The modeled quantities of one DES job (a ``JobResult``)."""
    return {
        "virtual_s": job.duration,
        "messages": job.traffic["messages"],
        "bytes": job.traffic["bytes"],
        "total_energy_j": job.total_energy_j,
    }


class Workload:
    """Shared bookkeeping: samples, failures, per-pass layer counters."""

    name = ""
    #: the ``goldens.json`` entry checked at the default seed, when it is
    #: not the workload's own name
    golden_key = ""
    #: modules a fresh interpreter imports before it can run the workload
    imports: tuple[str, ...] = ()
    #: process-pool workers and closed-loop clients the workload uses
    workers = 0
    clients = 1

    def __init__(self, seed: int, workdir: Path, goldens: dict):
        self.seed = seed
        self.workdir = Path(workdir)
        self.goldens = goldens.get(self.golden_key or self.name) \
            if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()
        self.reset_samples()

    # ------------------------------------------------------------ helpers
    def reset_samples(self) -> None:
        self.samples: dict[str, list[float]] = {}
        #: layer counters of the current pass the tracer cannot see
        self.pass_stats: dict[str, float] = {}

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def stat(self, key: str, amount: float) -> None:
        with self._lock:
            self.pass_stats[key] = self.pass_stats.get(key, 0) + amount

    def op(self, ok: bool, message: str = "") -> None:
        """Count one attempted operation; ``ok=False`` counts a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < MAX_MESSAGES:
                    self.messages.append(f"{self.name}: {message}")

    def check(self, ok: bool, message: str) -> bool:
        """A run-level check: a failure counts as one failed operation."""
        if not ok:
            self.op(False, message)
        return ok

    def measure(self, fn):
        """Run ``fn`` between two host probes.

        Returns ``(result, wall_s, factor)``: ``wall_s * factor`` is the
        interval in reference-host seconds (the wall time scaled by how
        much slower the reference loop ran around it than nominal).
        """
        before = host_probe()
        t0 = _clock()
        out = fn()
        wall = _clock() - t0
        factor = 2.0 * PROBE_NOMINAL_S / (before + host_probe())
        self.sample("host_speed", factor)
        return out, wall, factor

    # ----------------------------------------------------------- interface
    def prepare(self) -> None:
        """Set-up a user pays once per process (repeatable)."""

    def round(self) -> None:
        """One unit of measured work."""
        raise NotImplementedError

    def metrics(self) -> dict[str, float]:
        """``slow_op_ms``/``fast_op_ms``/``work_per_s`` from the samples."""
        raise NotImplementedError

    def unattributed_share(self, totals: dict, wall: float) -> float:
        """Share of traced time no layer span covers (single thread:
        wall time outside every top-level span)."""
        return 1.0 - sum(totals["self_s"].values()) / wall

    def server_stats(self) -> dict[str, float]:
        """Layer counters the program keeps itself (none by default)."""
        return {}

    def hit_tail(self) -> tuple[float, float] | None:
        """``(pctile, ms)`` tail of the fast operation, where reported."""
        return None

    def finish(self) -> None:
        """Run-level checks after the last round."""

    def close(self) -> None:
        """Release what the workload holds (servers, scratch dirs)."""


# ---------------------------------------------------------------- DES
class _DesWorkload(Workload):
    """Rounds of one job per solver; ``slow`` is IMe, ``fast`` ScaLAPACK."""

    def __init__(self, seed, workdir, goldens):
        super().__init__(seed, workdir, goldens)
        #: first job's modeled quantities per solver (determinism check)
        self._first: dict[str, dict] = {}

    def _run_job(self, kind: str):
        raise NotImplementedError

    def _check_job(self, kind: str, job) -> str | None:
        modeled = _modeled(job)
        first = self._first.setdefault(kind, modeled)
        if modeled != first:
            return f"{kind}: modeled quantities changed between runs"
        if self.goldens is not None and modeled != self.goldens[kind]:
            return (f"{kind}: modeled {modeled} differs from golden "
                    f"{self.goldens[kind]}")
        return None

    def round(self) -> None:
        for kind in self.order:
            try:
                (job, problem), dt, factor = self.measure(
                    lambda: self._run_job(kind))
            except Exception as exc:  # one failed job must not end the run
                self.op(False, f"{kind}: {exc!r}")
                continue
            problem = problem or self._check_job(kind, job)
            self.op(problem is None, problem or "")
            self.sample(kind, dt * factor * 1e3)
            self.sample(f"wall:{kind}", dt * 1e3)
            self.sample("messages", job.traffic["messages"])
            self.sample("job_s", dt * factor)

    def metrics(self) -> dict[str, float]:
        return {
            "slow_op_ms": median(self.samples["ime"]),
            "fast_op_ms": median(self.samples["scalapack"]),
            "work_per_s": sum(self.samples["messages"])
            / sum(self.samples["job_s"]),
        }


class DesNumeric(_DesWorkload):
    """IMe and ScaLAPACK pdgesv with real numerics through the monitored
    white-box pipeline, p=16 on the validation machine."""

    name = "des-numeric"
    imports = ("repro.core.framework", "repro.workloads.generator")
    n = 1080
    ranks = 16
    order = ("ime", "scalapack")
    #: raw-job points of BENCH_simperf.json re-run at the default seed
    crosscheck_labels = ("ime-n1080-p4", "scalapack-n1080-p4")

    def prepare(self) -> None:
        from repro.memo import reset_hot_caches
        from repro.workloads import generator

        reset_hot_caches()
        # The seed reaches the program only through the generated system.
        self.system = generator.generate_system(self.n, seed=self.seed)
        self.reference = self.system.reference_solution()
        self._run_job("ime")  # first touch: lazy tables, allocator, BLAS
        self._run_job("scalapack")

    def _run_job(self, kind: str):
        from repro.cluster.machine import small_test_machine
        from repro.core.framework import ExperimentSpec, MonitoringFramework

        spec = ExperimentSpec(
            algorithm=kind, system=self.system, ranks=self.ranks,
            repetitions=1,
            machine=small_test_machine(cores_per_socket=self.ranks // 2),
        )
        record = MonitoringFramework().run_experiment(spec).runs[0]
        error = float(np.max(np.abs(record.solution - self.reference))
                      / np.max(np.abs(self.reference)))
        problem = None
        if not error <= SOLUTION_RTOL:
            problem = f"{kind}: solution error {error:.3g} > {SOLUTION_RTOL}"
        return record.oracle, problem

    def finish(self) -> None:
        if self.goldens is None:
            return
        from repro.bench import DEFAULT_POINTS, run_point

        bench_file = Path(__file__).resolve().parents[1] / "BENCH_simperf.json"
        committed = {entry["label"]: entry for entry in
                     json.loads(bench_file.read_text())["points"]}
        for point in DEFAULT_POINTS:
            if point.label not in self.crosscheck_labels:
                continue
            got = run_point(point, "fast")
            want = committed[point.label]["results"]["fast"]
            same = all(got[k] == want[k] for k in
                       ("virtual_s", "messages", "bytes", "total_energy_j"))
            self.check(same, f"{point.label} differs from {bench_file}")


class DesSkeleton(_DesWorkload):
    """The exact skeletons on Marconi A3 at p=144: no numerics, so the
    engine loop, fast collectives, aggregate forms and energy
    accounting carry the work."""

    name = "des-skeleton"
    imports = ("repro.obs.symbolic",)
    ranks = 144
    nb = 64
    sizes = {"ime": 288, "scalapack": 576}

    def __init__(self, seed, workdir, goldens):
        super().__init__(seed, workdir, goldens)
        # Skeletons take no data; the seed sets only the job order.
        order = sorted(self.sizes)
        random.Random(seed).shuffle(order)
        self.order = tuple(order)

    def prepare(self) -> None:
        from repro.memo import reset_hot_caches

        reset_hot_caches()
        for kind in self.order:  # first touch
            self._run_job(kind)

    def _run_job(self, kind: str):
        from repro.obs.symbolic import run_skeleton_job

        job = run_skeleton_job(kind, self.sizes[kind], self.ranks, nb=self.nb)
        return job, None


# ----------------------------------------------------------- campaign
def _grid_tasks(seed: int):
    """The §5 grid (72 analytic configs) with ``seed`` as base seed."""
    from repro.experiments.sweep import paper_tasks

    return [dataclasses.replace(task, seed=seed) for task in paper_tasks()]


def _entry_bytes(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(root.glob("??/*.json"))}


class Campaign(Workload):
    """The §5 grid through ``run_sweep`` against a fresh cache root: one
    cold pass (compute and write), then warm passes (read only)."""

    name = "campaign"
    imports = ("repro.experiments.sweep", "repro.experiments.runner")
    #: warm passes per cold pass, as in the committed load test: one cold
    #: pass over the grid, then 14 warm rounds over it (BENCH_serve.json,
    #: full mode, ``warm.rounds``)
    warm_passes = 14
    _row_meta = ("label", "cached", "wall_s")

    def prepare(self) -> None:
        from repro.experiments import runner
        from repro.memo import reset_hot_caches

        runner._run_analytic_cached.cache_clear()
        reset_hot_caches()
        self.tasks = _grid_tasks(self.seed)

    def _results(self, report: dict) -> dict[str, dict]:
        return {row["label"]: {k: v for k, v in row.items()
                               if k not in self._row_meta}
                for row in report["rows"]}

    def _lru(self) -> None:
        from repro.experiments import runner

        info = runner._run_analytic_cached.cache_info()
        self.stat("experiments.runner.lru_hits", info.hits)
        self.stat("experiments.runner.lru_misses", info.misses)

    def _sweep(self) -> tuple[dict, list[float]]:
        """One ``run_sweep`` pass; returns the report and the wall
        seconds of each config, between consecutive completions as the
        progress callback sees them."""
        from repro.experiments import sweep

        marks = [_clock()]
        report = sweep.run_sweep(jobs=1, tasks=self.tasks,
                                 progress=lambda _row: marks.append(_clock()))
        return report, [b - a for a, b in zip(marks, marks[1:])]

    def _record(self, key: str, config_s: list[float], factor: float):
        for dt in config_s:
            self.sample(key, dt * factor * 1e3)
            self.sample(f"wall:{key}", dt * 1e3)
        self.sample("pass_s", sum(config_s) * factor)
        self.sample("pass_configs", len(config_s))

    def round(self) -> None:
        from repro.experiments import runner

        configs = len(self.tasks)
        root = Path(tempfile.mkdtemp(prefix="campaign-", dir=self.workdir))
        os.environ["REPRO_CACHE_DIR"] = str(root)
        try:
            runner._run_analytic_cached.cache_clear()
            (cold, config_s), _, factor = self.measure(self._sweep)
            self._record("cold", config_s, factor)
            self.stat("configs_cold", configs)
            cold_results = self._results(cold)
            written = _entry_bytes(root)
            for label, row in cold_results.items():
                problem = None
                if self.goldens is not None:
                    want = self.goldens[label]
                    if [row["mean_duration"], row["mean_total_j"]] != want:
                        problem = f"{label}: cold result differs from golden"
                self.op(problem is None, problem or "")
            self.check(cold["from_cache"] == 0,
                       f"cold pass found {cold['from_cache']} cached configs")
            self.check(len(written) == 2 * configs,
                       f"cold pass wrote {len(written)} entries, "
                       f"expected {2 * configs}")
            warm, _, factor = self.measure(
                lambda: [self._sweep() for _ in range(self.warm_passes)])
            for report, config_s in warm:
                self._record("warm", config_s, factor)
                same = self._results(report) == cold_results
                for _row in report["rows"]:
                    self.op(same and report["from_cache"] == configs,
                            "warm pass differs from the cold pass")
            self._lru()
            self.check(_entry_bytes(root) == written,
                       "warm passes changed the cache entries")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def metrics(self) -> dict[str, float]:
        return {
            "slow_op_ms": median(self.samples["cold"]),
            "fast_op_ms": median(self.samples["warm"]),
            "work_per_s": sum(self.samples["pass_configs"])
            / sum(self.samples["pass_s"]),
        }


# -------------------------------------------------------------- serve
def _config(task) -> dict:
    """The canonical analytic config dict of a §5 grid task."""
    return {"mode": "analytic", "algorithm": task.algorithm, "n": task.n,
            "ranks": task.ranks, "shape": task.shape_value,
            "repetitions": task.repetitions, "seed": task.seed}


def _run_spec(config: dict) -> str:
    """A one-task ``/run`` body for an analytic config."""
    return (f"schema: 1\n"
            f"experiment:\n"
            f"  mode: analytic\n"
            f"  algorithms: [{config['algorithm']}]\n"
            f"  matrix_sizes: [{config['n']}]\n"
            f"  ranks: [{config['ranks']}]\n"
            f"  shapes: [{config['shape']}]\n"
            f"  repetitions: {config['repetitions']}\n"
            f"  seed: {config['seed']}\n")


class _Client:
    """One closed-loop client on a persistent HTTP connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: str) -> tuple[int, str]:
        self.conn.request("POST", path, body=body.encode())
        response = self.conn.getresponse()
        text = response.read().decode()
        if response.will_close:
            self.conn.close()
        return response.status, text

    def close(self) -> None:
        self.conn.close()


class ServeMixed(Workload):
    """Closed-loop clients against an in-process ``create_server`` daemon
    restarted over a warm cache: single-config ``/batch`` hits with
    fresh-seed ``/run`` misses interleaved, every second miss requested
    by all clients at once."""

    name = "serve-mixed"
    #: the daemon serves the campaign's grid
    golden_key = "campaign"
    imports = ("repro.serve.app",)
    workers = min(2, os.cpu_count() or 1)
    clients = min(2, os.cpu_count() or 1)
    #: hits per miss in a client script: the committed load test's daemon
    #: ended its full run with 1083 L1 hits to 133 misses
    #: (BENCH_serve.json), 8.1 hits per miss
    hits_per_miss = 8
    #: scripts per client and round; odd scripts end in a shared miss
    scripts_per_round = 16
    #: the shared miss's (algorithm, n, ranks, shape): the load test's
    #: dedup request, the grid's largest config
    shared_shape = ("ime", 34560, 1296, "full")
    #: served misses re-computed through ``repro sweep`` at the end
    recheck_misses = 3

    def __init__(self, seed, workdir, goldens):
        super().__init__(seed, workdir, goldens)
        tasks = _grid_tasks(seed)
        self.hit_configs = [_config(task) for task in tasks]
        self.labels = [task.label for task in tasks]
        self.shared_config = next(
            config for config in self.hit_configs
            if (config["algorithm"], config["n"], config["ranks"],
                config["shape"]) == self.shared_shape)
        rng = random.Random(seed)
        #: per-client hit orders (the seed shuffles who asks for what)
        self.hit_orders = [rng.sample(range(len(tasks)), len(tasks))
                           for _ in range(self.clients)]
        self.server = None
        self.root = None
        self.rounds = 0
        self.misses: list[tuple[dict, dict]] = []

    # ---------------------------------------------------------- daemon
    def _start(self):
        from repro.serve.app import create_server

        server = create_server(port=0, jobs=self.workers,
                               cache_dir=str(self.root))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def _stop(self) -> None:
        if self.server is not None:
            server, thread = self.server
            self.server = None
            server.shutdown_all()
            thread.join(timeout=30)

    def prepare(self) -> None:
        self._stop()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.root = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        self.rounds = 0
        self.misses = []
        # Fill the cache through one daemon, then restart over it: the
        # measured daemon starts with a warm disk and a cold L1.
        self.server = self._start()
        client = _Client(self.server[0].server_address[1])
        t0 = _clock()
        status, text = client.post(
            "/batch", json.dumps({"configs": self.hit_configs}))
        self.stat("client_rtt_s", _clock() - t0)
        client.close()
        self._stop()
        if status != 200:
            raise RuntimeError(f"prefill failed: HTTP {status}: {text[:200]}")
        self.prefill = {row["label"]: row["result"]
                        for row in json.loads(text)["results"]}
        if self.goldens is not None:
            for label in self.labels:
                row = self.prefill[label]
                self.check([row["mean_duration"], row["mean_total_j"]]
                           == self.goldens[label],
                           f"{label}: served result differs from golden")
        self.server = self._start()

    # --------------------------------------------------------- clients
    def _miss_config(self, index: int, slot: int | None) -> dict:
        """The ``index``-th fresh config of client ``slot``, or of the
        shared misses (``slot=None``), with a seed distinct from every
        other miss's and from the hit set's."""
        if slot is None:
            config = dict(self.shared_config)
            offset = 500_000 + index
        else:
            config = dict(self.hit_configs[(index * self.clients + slot)
                                           % len(self.hit_configs)])
            offset = self.clients * index + slot
        config["seed"] = 1_000_000 * (self.seed + 1) + offset + 1
        return config

    def _hit(self, client: _Client, slot: int, index: int) -> None:
        config = self.hit_configs[index]
        t0 = _clock()
        status, text = client.post("/batch",
                                   json.dumps({"configs": [config]}))
        dt = _clock() - t0
        self.sample("hit", dt * 1e3)
        self.stat("client_rtt_s", dt)
        ok = status == 200
        if ok:
            payload = json.loads(text)
            ok = payload["from_cache"] == 1 and \
                payload["results"][0]["result"] == self.prefill[
                    self.labels[index]]
        self.op(ok, f"hit {self.labels[index]}: HTTP {status} {text[:120]}")

    def _miss(self, client: _Client, config: dict, key: str,
              cold: bool) -> dict | None:
        """One ``/run`` of ``config``, sampled under ``key``; returns the
        point when it answers ``config`` (uncached, if ``cold``)."""
        t0 = _clock()
        status, text = client.post("/run", _run_spec(config))
        dt = _clock() - t0
        self.sample(key, dt * 1e3)
        self.stat("client_rtt_s", dt)
        points = []
        if status == 200:
            points = [line for line in map(json.loads, text.splitlines())
                      if line["type"] == "point"]
        ok = len(points) == 1 and points[0]["config"] == config \
            and not (cold and points[0]["cached"])
        self.op(ok, f"{key} {config}: HTTP {status} {text[:120]}")
        return points[0] if ok else None

    def _client_loop(self, slot: int, port: int, barrier) -> None:
        client = _Client(port)
        order = self.hit_orders[slot]
        try:
            for script in range(self.scripts_per_round):
                for i in range(self.hits_per_miss):
                    position = script * self.hits_per_miss + i
                    self._hit(client, slot, order[position % len(order)])
                index = (self.rounds * self.scripts_per_round + script) // 2
                if script % 2:
                    barrier.wait(timeout=120)
                    point = self._miss(client, self._miss_config(index, None),
                                       "shared", cold=False)
                    # Arrived after the flight ended: a late cache hit.
                    if point is not None and point["cached"]:
                        self.stat("late_hits", 1)
                    continue
                config = self._miss_config(index, slot)
                point = self._miss(client, config, "miss", cold=True)
                if point is not None and slot == 0 \
                        and len(self.misses) < self.recheck_misses:
                    self.misses.append((config, point))
        except Exception as exc:  # keep the other clients going
            barrier.abort()
            self.op(False, f"client {slot}: {exc!r}")
        finally:
            client.close()

    def round(self) -> None:
        server = self.server[0]
        port = server.server_address[1]
        barrier = threading.Barrier(self.clients)
        threads = [threading.Thread(target=self._client_loop,
                                    args=(slot, port, barrier))
                   for slot in range(self.clients)]
        first = {key: len(self.samples.get(key, ()))
                 for key in ("hit", "miss", "shared")}
        before = server.scheduler.stats()
        late = self.pass_stats.get("late_hits", 0)

        def clients():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return server.scheduler.stats()

        after, dt, factor = self.measure(clients)
        # Work the round left running would slow the closing probe and
        # so scale down the latencies it added.
        self.check(after["inflight"] == 0,
                   f"{after['inflight']} flights still running after a round")
        shared = self.scripts_per_round // 2
        launched = after["launched"] - before["launched"]
        self.check(launched == (self.clients + 1) * shared,
                   f"{launched} computations for "
                   f"{(self.clients + 1) * shared} distinct misses")
        joined = after["coalesced"] - before["coalesced"] \
            + self.pass_stats.get("late_hits", 0) - late
        self.check(joined == (self.clients - 1) * shared,
                   f"{joined} shared requests coalesced or hit late, "
                   f"expected {(self.clients - 1) * shared}")
        self.rounds += 1
        # Latencies are recorded as wall time by the clients; scale this
        # round's share by the host speed measured around the round.
        for key, start in first.items():
            raw = self.samples.get(key, [])[start:]
            if raw:
                self.samples.setdefault(f"wall:{key}", []).extend(raw)
                self.samples[key][start:] = [v * factor for v in raw]
        self.sample("requests", self.clients * self.scripts_per_round
                    * (self.hits_per_miss + 1))
        self.sample("round_s", dt * factor)

    def server_stats(self) -> dict[str, float]:
        """Tier and scheduler counters of the measured daemon."""
        stats = self.server[0].stats()
        l1, l2 = stats["cache"]["l1"], stats["cache"]["l2"]
        sched = stats["scheduler"]
        return {
            "experiments.cache_tiers.l1_hits": l1["hits"],
            "experiments.cache_tiers.l1_misses": l1["misses"],
            "experiments.cache_tiers.l2_hits": l2["hits"],
            "experiments.cache_tiers.evictions": l2["evictions"],
            "serve.scheduler.launched": sched["launched"],
            "serve.scheduler.coalesced": sched["coalesced"],
            "serve.scheduler.failed": sched["failed"],
        }

    def metrics(self) -> dict[str, float]:
        return {
            "slow_op_ms": median(self.samples["miss"]),
            "fast_op_ms": median(self.samples["hit"]),
            "work_per_s": sum(self.samples["requests"])
            / sum(self.samples["round_s"]),
        }

    def hit_tail(self) -> tuple[float, float] | None:
        return tail_percentile(self.samples.get("hit", []))

    def unattributed_share(self, totals: dict, wall: float) -> float:
        # Client round trips not covered by a request handler span.
        rtt = self.pass_stats.get("client_rtt_s", 0.0)
        handled = totals["total_s"].get("serve.handler", 0.0)
        return (rtt - handled) / rtt if rtt else 0.0

    def finish(self) -> None:
        """A served entry's bytes equal the entry ``repro sweep`` writes."""
        from repro.experiments import sweep
        from repro.experiments.cache import ResultCache

        self.check(self.server_stats()["serve.scheduler.failed"] == 0,
                   "the scheduler reported failed flights")
        served = ResultCache(self.root)
        for config, point in self.misses:
            root = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
            os.environ["REPRO_CACHE_DIR"] = str(root)
            try:
                sweep.run_task(sweep.task_from_config(config))
                address = point["address"]
                ours = ResultCache(root).path_for(address)
                theirs = served.path_for(address)
                self.check(ours.is_file() and theirs.is_file()
                           and ours.read_bytes() == theirs.read_bytes(),
                           f"served entry {address[:12]} differs from the "
                           f"sweep entry")
            finally:
                shutil.rmtree(root, ignore_errors=True)

    def close(self) -> None:
        self._stop()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (DesNumeric, DesSkeleton, Campaign, ServeMixed)}
