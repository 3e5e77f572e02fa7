"""``--seed`` reaches workload generation and nothing else."""

import dataclasses
import json
from pathlib import Path

from perfbench import workloads
from perfbench.workloads import (
    Campaign,
    DesNumeric,
    DesSkeleton,
    ServeMixed,
    _grid_tasks,
)


def test_des_numeric_seed_reaches_only_the_generated_system(tmp_path,
                                                           monkeypatch):
    from repro.runtime.job import Job
    from repro.workloads import generator

    generated, job_seeds = [], []
    real_generate, real_init = generator.generate_system, Job.__init__

    def spy_generate(n, seed=0, **kwargs):
        generated.append(seed)
        return real_generate(48, seed=seed, **kwargs)

    def spy_init(self, *args, seed=0, **kwargs):
        job_seeds.append(seed)
        real_init(self, *args, seed=seed, **kwargs)

    monkeypatch.setattr(generator, "generate_system", spy_generate)
    monkeypatch.setattr(Job, "__init__", spy_init)
    monkeypatch.setattr(DesNumeric, "ranks", 4)
    workload = DesNumeric(7, tmp_path, {})
    workload.prepare()
    workload.round()
    assert generated == [7]
    assert job_seeds and set(job_seeds) == {0}   # the Job seed stays fixed
    assert workload.failed == 0 and workload.attempted == 2


def test_campaign_seed_is_the_grids_base_seed_only():
    from repro.experiments.sweep import paper_tasks

    seeded = _grid_tasks(5)
    assert {task.seed for task in seeded} == {5}
    assert [dataclasses.replace(t, seed=0) for t in seeded] == paper_tasks()


def test_serve_inputs_follow_the_seed(tmp_path):
    a, b, c = (ServeMixed(seed, tmp_path, {}) for seed in (3, 3, 4))
    assert a.hit_configs == b.hit_configs and a.hit_orders == b.hit_orders
    assert a.hit_configs != c.hit_configs
    assert {config["seed"] for config in a.hit_configs} == {3}
    seeds = [a._miss_config(index, slot)["seed"] for index in range(100)
             for slot in (*range(a.clients), None)]
    assert len(set(seeds)) == len(seeds)   # every miss is fresh
    assert 3 not in seeds


def test_skeleton_seed_sets_only_the_job_order(tmp_path):
    runs = [DesSkeleton(seed, tmp_path, {}) for seed in range(8)]
    assert {run.order for run in runs} == {("ime", "scalapack"),
                                           ("scalapack", "ime")}
    assert all(run.sizes == runs[0].sizes and run.ranks == runs[0].ranks
               for run in runs)


def test_goldens_apply_only_at_the_default_seed(tmp_path):
    path = Path(workloads.__file__).parent / "goldens.json"
    goldens = json.loads(path.read_text())
    default = workloads.DEFAULT_SEED
    assert Campaign(default, tmp_path, goldens).goldens == goldens["campaign"]
    assert Campaign(default + 1, tmp_path, goldens).goldens is None
    assert ServeMixed(default, tmp_path, goldens).goldens \
        == goldens["campaign"]
