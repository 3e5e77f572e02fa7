"""Content-addressed result cache + parallel sweep executor tests."""

import dataclasses
import json
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster.machine import marconi_a3
from repro.cluster.placement import LoadShape
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ResultCache,
    default_result_cache,
    model_fingerprint,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.runner import (
    ConfigResult,
    _run_analytic_cached,
    run_analytic,
)
from repro.experiments.sweep import (
    SweepTask,
    paper_tasks,
    quick_tasks,
    run_sweep,
    run_task,
)
from repro.perfmodel.analytic import analytic_run
from repro.perfmodel.calibration import DEFAULT_CALIBRATION


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the default cache at a fresh directory; clear the L1."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()
    yield
    cache_mod._DEFAULT_CACHES.clear()
    _run_analytic_cached.cache_clear()


def sample_result(**overrides) -> ConfigResult:
    kwargs = dict(
        algorithm="ime", n=8640, ranks=144, shape=LoadShape.FULL,
        repetitions=10, mean_duration=1.5, stdev_duration=0.01,
        mean_total_j=1000.0, mean_package_j=800.0, mean_dram_j=200.0,
        domain_means_j={"package-0": 400.0, "dram-0": 100.0},
    )
    kwargs.update(overrides)
    return ConfigResult(**kwargs)


CONFIG = {"algorithm": "ime", "n": 8640, "ranks": 144, "shape": "full"}


# ------------------------------------------------------------ cache core
class TestResultCache:
    def test_roundtrip_preserves_result_exactly(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        result = sample_result()
        cache.put(CONFIG, fp, result)
        assert cache.get(CONFIG, fp) == result

    def test_miss_on_unknown_config(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        assert cache.get(CONFIG, fp) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_calibration_change_invalidates(self, tmp_path):
        """Editing any calibration coefficient must miss the cache."""
        cache = ResultCache(tmp_path / "c")
        machine = marconi_a3()
        fp = model_fingerprint(DEFAULT_CALIBRATION, machine)
        cache.put(CONFIG, fp, sample_result())
        edited = dataclasses.replace(DEFAULT_CALIBRATION,
                                     scal_pivot_factor=1.99)
        fp2 = model_fingerprint(edited, machine)
        assert fp2 != fp
        assert cache.get(CONFIG, fp2) is None
        assert cache.get(CONFIG, fp) is not None

    def test_machine_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        cache.put(CONFIG, fp, sample_result())
        other = dataclasses.replace(marconi_a3(), cores_per_socket=48)
        fp2 = model_fingerprint(DEFAULT_CALIBRATION, other)
        assert fp2 != fp
        assert cache.get(CONFIG, fp2) is None

    def test_entries_are_sharded_json(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        path = cache.put(CONFIG, fp, sample_result())
        address = cache.address(CONFIG, fp)
        assert path == tmp_path / "c" / address[:2] / f"{address}.json"
        entry = json.loads(path.read_text())
        assert entry["config"] == CONFIG
        assert entry["model"] == fp

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        path = cache.put(CONFIG, fp, sample_result())
        path.write_text("{not json")
        assert cache.get(CONFIG, fp) is None

    @pytest.mark.parametrize("payload", [
        '{"schema": 1}',                      # valid JSON, no result key
        '{"result": {"algorithm": "ime"}}',   # result fails the schema
        '{"result": "not-a-dict"}',           # result of the wrong type
        '{"result": null}',
    ], ids=["no-result-key", "schema-reject", "wrong-type", "null"])
    def test_malformed_valid_json_is_a_miss_and_deleted(self, tmp_path,
                                                        payload):
        """A foreign or truncated file at the right path must not keep
        poisoning every reader: treat it as a miss and unlink it."""
        cache = ResultCache(tmp_path / "c")
        fp = model_fingerprint(DEFAULT_CALIBRATION, marconi_a3())
        path = cache.put(CONFIG, fp, sample_result())
        path.write_text(payload)
        assert cache.get(CONFIG, fp) is None
        assert not path.exists()
        assert cache.misses == 1
        # The slot is usable again: a re-put round-trips.
        cache.put(CONFIG, fp, sample_result())
        assert cache.get(CONFIG, fp) == sample_result()

    def test_result_dict_roundtrip_handles_shape_enum(self):
        result = sample_result(shape=LoadShape.HALF_TWO_SOCKETS)
        d = result_to_dict(result)
        assert d["shape"] == "half-2sockets"
        assert result_from_dict(json.loads(json.dumps(d))) == result


class TestDefaultCache:
    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert default_result_cache() is None

    def test_same_root_shares_instance(self):
        assert default_result_cache() is default_result_cache()


# ------------------------------------------------- analytic runner L1/L2
class TestRunnerDiskCache:
    def test_results_shared_across_simulated_processes(self, tmp_path):
        r1 = run_analytic("ime", 8640, 144)
        disk = default_result_cache()
        assert disk.misses >= 1
        # A new process would start with a cold lru but a warm disk.
        _run_analytic_cached.cache_clear()
        hits_before = disk.hits
        r2 = run_analytic("ime", 8640, 144)
        assert disk.hits == hits_before + 1
        assert r1 == r2

    def test_disabled_cache_still_computes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        _run_analytic_cached.cache_clear()
        r = run_analytic("scalapack", 8640, 144)
        assert r.mean_duration > 0


# ------------------------------------------------ reference analytic loop
def reference_analytic(algorithm, n, ranks, shape, repetitions, base_seed,
                       power_cap_w, machine) -> ConfigResult:
    """The oracle for every production analytic path: one
    ``analytic_run`` per seed, folded by rescanning each run's
    ``node_energy_j`` once per domain and once per sum (the
    ``AnalyticResult`` properties)."""
    runs = [
        analytic_run(algorithm, n, ranks, shape, machine,
                     seed=base_seed + rep, node_efficiency_spread=0.02,
                     fabric_jitter=0.02, power_cap_w=power_cap_w)
        for rep in range(repetitions)
    ]
    durations = [r.duration for r in runs]
    domains = sorted({d for r in runs for (_n, d) in r.node_energy_j})
    return ConfigResult(
        algorithm=algorithm,
        n=n,
        ranks=ranks,
        shape=shape,
        repetitions=repetitions,
        mean_duration=statistics.fmean(durations),
        stdev_duration=statistics.stdev(durations) if len(runs) > 1 else 0.0,
        mean_total_j=statistics.fmean(r.total_energy_j for r in runs),
        mean_package_j=statistics.fmean(r.package_energy_j for r in runs),
        mean_dram_j=statistics.fmean(r.dram_energy_j for r in runs),
        domain_means_j={
            d: statistics.fmean(r.domain_energy_j(d) for r in runs)
            for d in domains
        },
    )


def assert_bitwise_equal(got: ConfigResult, want: ConfigResult) -> None:
    """Every field equal by ``repr`` (exact for floats, signed zeros
    included; dicts in insertion order)."""
    for field in dataclasses.fields(ConfigResult):
        assert repr(getattr(got, field.name)) == \
            repr(getattr(want, field.name)), (want, field.name)


# ----------------------------------------------------- batched evaluation
class TestBatchedAnalytic:
    """The batched engine's whole point is doing *less work for the same
    floats*: these tests pin it, bit for bit, to the per-repetition
    reference loop it replaced on every analytic path."""

    GRID = [
        (alg, n, ranks, shape)
        for alg in ("ime", "scalapack")
        for n, ranks in ((8640, 144), (17280, 576))
        for shape in (LoadShape.FULL, LoadShape.HALF_ONE_SOCKET)
    ]

    @staticmethod
    def assert_sums_match_runs(sums, runs, where):
        """Each ``RepetitionEnergy`` carries its reference run's
        ``AnalyticResult`` properties, compared by ``repr``."""
        assert len(sums) == len(runs), where
        for got, run in zip(sums, runs):
            domains = list(dict.fromkeys(d for (_n, d) in run.node_energy_j))
            assert repr(tuple(got)) == repr((
                run.duration, run.total_energy_j, run.package_energy_j,
                run.dram_energy_j,
                {d: run.domain_energy_j(d) for d in domains},
            )), where

    def test_analytic_repetitions_bit_identical_to_loop(self):
        """Every per-repetition sum equals the property of the reference
        loop's ``AnalyticResult`` that it replaces, bit for bit."""
        from repro.perfmodel.analytic import (
            analytic_repetitions,
            analytic_run,
        )
        machine = marconi_a3()
        for alg, n, ranks, shape in self.GRID:
            for cap in (None, 120.0):
                sums = analytic_repetitions(
                    alg, n, ranks, shape, machine, base_seed=7,
                    repetitions=3, node_efficiency_spread=0.02,
                    fabric_jitter=0.02, power_cap_w=cap)
                loop = [
                    analytic_run(alg, n, ranks, shape, machine, seed=7 + rep,
                                 node_efficiency_spread=0.02,
                                 fabric_jitter=0.02, power_cap_w=cap)
                    for rep in range(3)
                ]
                self.assert_sums_match_runs(sums, loop,
                                            (alg, n, ranks, shape, cap))

    def test_tail_node_occupancy_classes(self, monkeypatch):
        """A layout with a tail node has two occupancy classes; the
        per-run fold still equals the reference's per-node dict walk.
        Table 1 layouts have no tail, so ``layout_for`` is patched to
        accept one (both engines read it through the module)."""
        import functools

        from repro.cluster.placement import layout_for
        from repro.perfmodel import analytic
        monkeypatch.setattr(analytic, "layout_for",
                            functools.partial(layout_for, allow_tail=True))
        machine = marconi_a3()
        for alg in ("ime", "scalapack"):
            for ranks, shape in ((169, LoadShape.FULL),
                                 (169, LoadShape.HALF_TWO_SOCKETS),
                                 (121, LoadShape.HALF_ONE_SOCKET)):
                layout = analytic.layout_for(ranks, shape, machine)
                assert layout.tail_ranks, (ranks, shape)
                assert len(set(layout.socket_occupancies(2))) == 2
                sums = analytic.analytic_repetitions(
                    alg, 8640, ranks, shape, machine, base_seed=1,
                    repetitions=2, node_efficiency_spread=0.02,
                    fabric_jitter=0.02)
                loop = [
                    analytic.analytic_run(alg, 8640, ranks, shape, machine,
                                          seed=1 + rep,
                                          node_efficiency_spread=0.02,
                                          fabric_jitter=0.02)
                    for rep in range(2)
                ]
                self.assert_sums_match_runs(sums, loop, (alg, ranks, shape))

    def test_fold_matches_the_per_node_walk(self):
        """Runs of classes in any order, a class recurring after another:
        each sum equals the builtin ``sum`` over the per-node dict."""
        from repro.perfmodel.analytic import AnalyticResult, _fold_energy
        a = {"package-0": 0.1, "dram-0": 0.7, "package-1": 0.2,
             "dram-1": 1e-17}
        b = {"package-0": 3.3, "dram-0": 0.01, "package-1": 0.0,
             "dram-1": 0.0}
        runs = [(a, 5), (b, 1), (a, 3)]
        node_energy = {}
        node = 0
        for energy, count in runs:
            for _ in range(count):
                for domain, joules in energy.items():
                    node_energy[(node, domain)] = joules
                node += 1
        walk = AnalyticResult("ime", 1, None, 1.0, 0.0, 0.0, node_energy,
                              0.0, 0.0)
        total, package, dram, per_domain = _fold_energy(runs)
        assert repr(total) == repr(walk.total_energy_j)
        assert repr(package) == repr(walk.package_energy_j)
        assert repr(dram) == repr(walk.dram_energy_j)
        assert repr(per_domain) == repr(
            {d: walk.domain_energy_j(d) for d in a})

    def test_run_analytic_batch_matches_per_request_runs(self, monkeypatch):
        """The §5 grid, plus its n=8640 slice under a 120 W cap, at base
        seeds 0, 1 and 7, through run_analytic_batch and run_analytic,
        against the reference loop."""
        from repro.experiments.runner import run_analytic_batch
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        _run_analytic_cached.cache_clear()
        machine = marconi_a3()
        points = [
            (dataclasses.replace(task, seed=seed), cap)
            for seed in (0, 1, 7)
            for task in paper_tasks()
            for cap in ((None, 120.0) if task.n == 8640 else (None,))
        ]
        requests = [
            {"algorithm": task.algorithm, "n": task.n, "ranks": task.ranks,
             "shape": task.shape_value, "repetitions": task.repetitions,
             "base_seed": task.seed, "power_cap_w": cap}
            for task, cap in points
        ]
        batched = run_analytic_batch(requests, cache=None)
        assert len(batched) == len(points) == 270
        for (task, cap), got in zip(points, batched):
            shape = LoadShape(task.shape_value)
            want = reference_analytic(task.algorithm, task.n, task.ranks,
                                      shape, task.repetitions, task.seed,
                                      cap, machine)
            assert_bitwise_equal(got, want)
            assert_bitwise_equal(
                run_analytic(task.algorithm, task.n, task.ranks, shape,
                             repetitions=task.repetitions,
                             base_seed=task.seed, power_cap_w=cap),
                want)

    def test_run_analytic_batch_shares_the_disk_cache(self):
        from repro.experiments.runner import run_analytic_batch
        requests = [{"algorithm": "ime", "n": 8640, "ranks": 144,
                     "repetitions": 2}]
        cold = run_analytic_batch(requests)
        disk = default_result_cache()
        hits_before = disk.hits
        warm = run_analytic_batch(requests)
        assert disk.hits == hits_before + 1
        assert warm == cold
        # ...and run_analytic addresses the same entry.
        _run_analytic_cached.cache_clear()
        assert run_analytic("ime", 8640, 144, repetitions=2) == cold[0]
        assert disk.hits == hits_before + 2


# ------------------------------------------------------------- the sweep
class TestSweep:
    def test_grids_cover_the_paper_and_quick_sets(self):
        paper = paper_tasks()
        assert len(paper) == 72  # 2 algs x 4 sizes x 3 ranks x 3 shapes
        assert all(t.mode == "analytic" for t in paper)
        quick = quick_tasks()
        assert all(t.mode == "monitored" for t in quick)
        assert {t.algorithm for t in quick} == {"ime", "scalapack"}

    def test_run_task_caches_monitored_runs(self):
        task = SweepTask("monitored", "ime", 64, 4, "full", repetitions=1)
        cold = run_task(task)
        warm = run_task(task)
        assert cold["cached"] is False
        assert warm["cached"] is True
        for key in ("mean_duration", "mean_total_j", "domain_means_j"):
            assert warm[key] == cold[key]

    def test_sweep_serial_then_warm(self):
        tasks = [
            SweepTask("analytic", alg, 8640, 144, "full", repetitions=2)
            for alg in ("ime", "scalapack")
        ]
        cold = run_sweep(jobs=1, tasks=tasks)
        assert cold["from_cache"] == 0
        assert [r["label"] for r in cold["rows"]] == \
            [t.label for t in tasks]
        warm = run_sweep(jobs=1, tasks=tasks)
        assert warm["from_cache"] == len(tasks)

    def test_warm_row_equals_cold_row(self):
        """A hit is served as the stored dict: apart from ``cached`` and
        ``wall_s``, the warm row is the cold row by ``repr``, key order
        included."""
        tasks = [
            SweepTask("analytic", "ime", 8640, 144, "full", repetitions=10),
            SweepTask("analytic", "scalapack", 17280, 576, "half-1socket",
                      repetitions=10, seed=7, power_cap_w=120.0),
        ]
        keys = ["label", "cached", "wall_s"] + \
            [field.name for field in dataclasses.fields(ConfigResult)]
        for task in tasks:
            cold = run_task(task)
            _run_analytic_cached.cache_clear()
            warm = run_task(task)
            assert (cold["cached"], warm["cached"]) == (False, True)
            assert list(cold) == list(warm) == keys
            for row in (cold, warm):
                del row["cached"], row["wall_s"]
            assert repr(warm) == repr(cold)

    def test_cli_sweep_json_warm_equals_cold(self, tmp_path):
        """``repro sweep --json`` twice on one fresh cache root: the warm
        report's rows are the cold report's, in order and key order,
        once the volatile fields are dropped."""
        src = Path(__file__).resolve().parents[1] / "src"

        def sweep_rows() -> tuple[int, str]:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "sweep", "--json",
                 "--cache-dir", str(tmp_path / "cache")],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin",
                     "OPENBLAS_NUM_THREADS": "1"},
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            rows = [{k: v for k, v in row.items()
                     if k not in ("cached", "wall_s")}
                    for row in report["rows"]]
            return report["from_cache"], json.dumps(rows)

        cold_hits, cold = sweep_rows()
        warm_hits, warm = sweep_rows()
        assert (cold_hits, warm_hits) == (0, 72)
        assert warm == cold

    def test_sweep_pool_matches_serial(self):
        """The fork pool must produce the same rows, in task order."""
        tasks = [
            SweepTask("analytic", alg, n, 144, "full", repetitions=2)
            for alg in ("ime", "scalapack") for n in (8640, 17280)
        ]
        seen = []
        pooled = run_sweep(jobs=2, tasks=tasks, progress=seen.append)
        serial = run_sweep(jobs=1, tasks=tasks)
        assert sorted(r["label"] for r in seen) == \
            sorted(t.label for t in tasks)  # one call per completed task
        assert serial["from_cache"] == len(tasks)  # pool warmed the disk
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in r.items() if k not in ("wall_s", "cached")}
            for r in rows
        ]
        assert strip(pooled["rows"]) == strip(serial["rows"])

    def test_sweep_pool_worker_death_raises(self, tmp_path):
        """A pool worker that dies mid-task fails the sweep instead of
        hanging it; run in a child so a regression times out there."""
        code = textwrap.dedent("""
            import os
            from concurrent.futures.process import BrokenProcessPool

            from repro.experiments import sweep

            tasks = sweep.paper_tasks()[:4]
            real_run_task = sweep.run_task

            def run_task(task):
                if task == tasks[1]:
                    os._exit(3)
                return real_run_task(task)

            sweep.run_task = run_task
            try:
                sweep.run_sweep(jobs=2, tasks=tasks)
            except BrokenProcessPool:
                raise SystemExit(0)
            raise SystemExit("the sweep survived its dead worker")
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin",
                 "REPRO_CACHE_DIR": str(tmp_path / "cache")},
        )
        assert proc.returncode == 0, proc.stderr
