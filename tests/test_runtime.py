"""Tests for the runtime layer: contexts, jobs, oracle accounting."""

import pytest

from repro.cluster.machine import marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.perfmodel.calibration import ComputeProfile
from repro.runtime.job import Job


def make_job(ranks=4, shape=LoadShape.FULL, machine=None, **kwargs):
    machine = machine or small_test_machine(cores_per_socket=2)  # 4 cores/node
    placement = place_ranks(ranks, shape, machine)
    return Job(machine, placement, **kwargs)


def test_compute_charges_time_and_energy():
    job = make_job(ranks=4)

    def program(ctx, comm):
        yield from ctx.compute(flops=12.0e9)  # 1 s at the default profile
        return ctx.compute_seconds

    result = job.run(program)
    assert result.duration == pytest.approx(1.0, rel=1e-6)
    assert all(r == pytest.approx(1.0) for r in result.rank_results)
    # Package energy exceeds a pure-idle run of the same length.
    idle_only = job.machine.power.pkg_idle_w * result.duration * 2  # 2 sockets
    assert result.package_energy_j > idle_only


def test_compute_profile_controls_duration():
    fast = ComputeProfile(eff_flops_per_core=20e9)
    job = make_job(ranks=4, profile=fast)

    def program(ctx, comm):
        yield from ctx.compute(flops=40e9)

    result = job.run(program)
    assert result.duration == pytest.approx(2.0, rel=1e-6)


def test_dram_traffic_charged_per_flop():
    prof = ComputeProfile(eff_flops_per_core=1e9, dram_bytes_per_flop=0.5)
    job = make_job(ranks=4, profile=prof)

    def program(ctx, comm):
        yield from ctx.compute(flops=1e9)
        return ctx.dram_bytes_charged

    result = job.run(program)
    assert all(r == pytest.approx(0.5e9) for r in result.rank_results)
    assert result.dram_energy_j > 0


def test_node_energy_covers_all_domains():
    job = make_job(ranks=4)

    def program(ctx, comm):
        yield from ctx.compute(flops=1e9)

    result = job.run(program)
    domains = {d for (_n, d) in result.node_energy_j}
    assert domains == {"package-0", "package-1", "dram-0", "dram-1"}


def test_half_load_one_socket_socket1_sees_only_idle():
    machine = small_test_machine(cores_per_socket=2)
    placement = place_ranks(2, LoadShape.HALF_ONE_SOCKET, machine)
    job = Job(machine, placement)

    def program(ctx, comm):
        yield from ctx.compute(flops=12e9)

    result = job.run(program)
    e_pkg0 = result.node_energy_j[(0, "package-0")]
    e_pkg1 = result.node_energy_j[(0, "package-1")]
    assert e_pkg1 == pytest.approx(
        machine.power.pkg_idle_w * result.duration, rel=1e-9
    )
    assert e_pkg0 > e_pkg1


def test_ranks_communicate_through_job_world():
    job = make_job(ranks=4)

    def program(ctx, comm):
        total = yield from comm.allreduce(ctx.rank + 1)
        return total

    result = job.run(program)
    assert result.rank_results == [10, 10, 10, 10]


def test_job_multiple_nodes_and_mean_power():
    machine = small_test_machine(cores_per_socket=2)
    placement = place_ranks(8, LoadShape.FULL, machine)  # 2 nodes
    job = Job(machine, placement)

    def program(ctx, comm):
        yield from ctx.compute(flops=12e9)

    result = job.run(program)
    nodes = {n for (n, _d) in result.node_energy_j}
    assert nodes == {0, 1}
    assert result.mean_power_w == pytest.approx(
        result.total_energy_j / result.duration
    )


def test_power_cap_stretches_duration():
    machine = small_test_machine(cores_per_socket=24)
    placement = place_ranks(48, LoadShape.FULL, machine)
    prof = ComputeProfile(flop_util=1.0, mem_util=1.0)

    def program(ctx, comm):
        yield from comm.barrier()
        yield from ctx.compute(flops=24e9)

    uncapped = Job(machine, placement, profile=prof).run(program)
    capped_job = Job(machine, placement, profile=prof)
    capped_job.set_power_cap(80.0)  # below the full-load package power
    capped = capped_job.run(program)
    assert capped.duration > uncapped.duration
    # Power must actually be reduced while running.
    assert capped.mean_power_w < uncapped.mean_power_w


def test_node_efficiency_spread_perturbs_duration_deterministically():
    def program(ctx, comm):
        yield from ctx.compute(flops=12e9)

    base = make_job(ranks=4).run(program)
    j1 = make_job(ranks=4, seed=3, node_efficiency_spread=0.05).run(program)
    j2 = make_job(ranks=4, seed=3, node_efficiency_spread=0.05).run(program)
    j3 = make_job(ranks=4, seed=4, node_efficiency_spread=0.05).run(program)
    assert j1.duration == j2.duration  # same seed → same draw
    assert j1.duration != base.duration
    assert j1.duration != j3.duration


def test_elapse_inactive_consumes_time_at_spin_floor():
    """A rank blocked without activity still busy-waits (MPI spin floor)."""
    from repro.energy.power_model import PackagePower

    machine = small_test_machine(cores_per_socket=2)
    job = make_job(ranks=2, shape=LoadShape.HALF_ONE_SOCKET, machine=machine)

    def program(ctx, comm):
        yield from ctx.elapse(2.0, active=False)

    result = job.run(program)
    assert result.duration == pytest.approx(2.0)
    params = machine.power
    # 2 ranks fill the 2-core socket: occupancy fraction 1.0.
    spin_w = PackagePower(params).core_active_power(
        params.spin_flop_util, params.spin_mem_util, occupancy_frac=1.0
    )
    # Socket 0 hosts 2 spinning ranks; socket 1 is pure idle.
    assert result.node_energy_j[(0, "package-0")] == pytest.approx(
        (params.pkg_idle_w + 2 * spin_w) * 2.0, rel=1e-9
    )
    assert result.node_energy_j[(0, "package-1")] == pytest.approx(
        params.pkg_idle_w * 2.0, rel=1e-9
    )


def test_context_validation():
    job = make_job(ranks=4)

    def bad_program(ctx, comm):
        yield from ctx.compute(flops=-1.0)

    with pytest.raises(ValueError, match="negative"):
        job.run(bad_program)
