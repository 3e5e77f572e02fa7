"""Exact-skeleton equality: modeled quantities match the full solvers.

The contract (see ``repro/obs/symbolic.py`` and docs/performance.md):
an *exact* skeleton issues the full solver's complete communication
schedule and flop charges without doing the numerics, so every modeled
quantity — virtual duration, per-domain energy, traffic counters — is
bitwise equal to a full-solver run of the same Job.  For IMe the
schedule is data-independent; for ScaLAPACK it matches the no-swap
pivot trajectory, i.e. column diagonally dominant systems.
"""

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.runtime.job import Job
from repro.obs.symbolic import (
    EXACT_SKELETON_PROGRAMS,
    SymbolicOptions,
    run_skeleton_job,
)
from repro.solvers.ime.parallel import ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import LinearSystem, generate_system


def _machine(ranks):
    return small_test_machine(cores_per_socket=max(1, ranks // 2))


def diag_dominant_system(n, seed=0):
    """A system whose PDGESV pivot trajectory is swap-free (piv == j)."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) + n * np.eye(n)
    b = rng.random(n)
    return LinearSystem(a=a, b=b, seed=seed)


def run_full_ime(system, ranks, fast):
    machine = _machine(ranks)
    placement = place_ranks(ranks, LoadShape.FULL, machine)
    job = Job(machine, placement)
    job.sim.fast = fast

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_parallel_program(ctx, comm, system=sys_arg))

    return job.run(program)


def run_full_scalapack(system, ranks, nb, fast):
    machine = _machine(ranks)
    placement = place_ranks(ranks, LoadShape.FULL, machine)
    job = Job(machine, placement)
    job.sim.fast = fast
    options = ScalapackOptions(nb=nb)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from pdgesv_program(ctx, comm, system=sys_arg,
                                          options=options))

    return job.run(program)


def assert_modeled_equal(full, skel):
    assert full.duration == skel.duration
    assert full.node_energy_j == skel.node_energy_j
    assert full.traffic == skel.traffic


# ------------------------------------------------------------------- IMe
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "message"])
@pytest.mark.parametrize("n,ranks", [(24, 4), (37, 4), (30, 6)])
def test_ime_skeleton_matches_full_solver(n, ranks, fast):
    """IMe's schedule is data-independent: equality holds for any system."""
    full = run_full_ime(generate_system(n, seed=3), ranks, fast)
    skel = run_skeleton_job("ime", n, ranks, machine=_machine(ranks),
                            fast=fast)
    assert_modeled_equal(full, skel)


def test_ime_skeleton_is_system_independent():
    """Two different systems produce the same modeled quantities, both
    equal to the skeleton — the schedule never looks at the values."""
    skel = run_skeleton_job("ime", 24, 4, machine=_machine(4))
    for seed in (0, 11):
        full = run_full_ime(generate_system(24, seed=seed), 4, True)
        assert_modeled_equal(full, skel)


# -------------------------------------------------------------- ScaLAPACK
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "message"])
@pytest.mark.parametrize("n,ranks,nb", [(24, 4, 8), (37, 4, 5), (48, 6, 6)])
def test_scalapack_skeleton_matches_full_solver(n, ranks, nb, fast):
    """On a swap-free (diag-dominant) system the ScaLAPACK skeleton's
    pivot chain, message sizes, and flop charges replay exactly."""
    system = diag_dominant_system(n, seed=7)
    full = run_full_scalapack(system, ranks, nb, fast)
    skel = run_skeleton_job("scalapack", n, ranks, machine=_machine(ranks),
                            nb=nb, fast=fast)
    assert_modeled_equal(full, skel)


def test_scalapack_full_solver_still_solves_the_probe_system():
    """The diag-dominant probe is a real system — sanity-check that the
    full solver actually solves it (the skeleton never computes x)."""
    system = diag_dominant_system(24, seed=7)
    result = run_full_scalapack(system, 4, 8, True)
    x = result.rank_results[0]
    np.testing.assert_allclose(x, np.linalg.solve(system.a, system.b),
                               atol=1e-10)


# --------------------------------------------------------------- sampling
def run_sampled(algorithm, n, ranks, nb, chunks, fast):
    machine = _machine(ranks)
    job = Job(machine, place_ranks(ranks, LoadShape.FULL, machine))
    job.sim.fast = fast
    return job.run(EXACT_SKELETON_PROGRAMS[algorithm], n=n,
                   options=SymbolicOptions(nb=nb, chunks=chunks))


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "message"])
@pytest.mark.parametrize("extra", [0, 5])
@pytest.mark.parametrize("algorithm,n,ranks,nb,levels", [
    ("ime", 37, 4, 8, 37),        # one chunk per level
    ("scalapack", 37, 6, 5, 8),   # one chunk per panel (last one short)
])
def test_sampling_every_level_is_the_unsampled_run(algorithm, n, ranks, nb,
                                                   levels, extra, fast):
    """``chunks`` ≥ the loop length replays every level and charges each
    level's own flops, so the modeled run is bitwise the unsampled one."""
    unsampled = run_skeleton_job(algorithm, n, ranks, machine=_machine(ranks),
                                 nb=nb, fast=fast)
    sampled = run_sampled(algorithm, n, ranks, nb, levels + extra, fast)
    assert_modeled_equal(unsampled, sampled)


@pytest.mark.parametrize("algorithm", ["ime", "scalapack"])
def test_sampling_replays_fewer_rounds(algorithm):
    full = run_sampled(algorithm, 48, 4, 6, None, True)
    sampled = run_sampled(algorithm, 48, 4, 6, 3, True)
    assert sampled.traffic["messages"] < full.traffic["messages"]


# ---------------------------------------------------------------- driver
def test_unknown_algorithm_raises():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_skeleton_job("cholesky", 24, 4, machine=_machine(4))


def test_skeleton_run_is_deterministic():
    a = run_skeleton_job("ime", 24, 4, machine=_machine(4))
    b = run_skeleton_job("ime", 24, 4, machine=_machine(4))
    assert a.duration == b.duration
    assert a.node_energy_j == b.node_energy_j
    assert a.traffic == b.traffic


def test_runner_run_skeleton_wraps_job_result():
    from repro.experiments.runner import run_skeleton

    raw = run_skeleton_job("ime", 24, 4, machine=_machine(4))
    agg = run_skeleton("ime", 24, 4, machine=_machine(4))
    assert agg.mean_duration == raw.duration
    assert agg.stdev_duration == 0.0
    assert agg.mean_total_j == raw.total_energy_j
    assert agg.mean_dram_j == raw.dram_energy_j
