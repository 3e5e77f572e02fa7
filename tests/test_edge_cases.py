"""Edge-case coverage across the substrate layers."""

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.perfmodel.calibration import ComputeProfile
from repro.runtime.job import Job
from repro.simmpi.comm import ANY_TAG, SUM, World
from repro.simmpi.datatypes import copy_payload, payload_nbytes
from repro.simmpi.engine import Simulator
from repro.simmpi.fabric import ZeroFabric


def run_world(size, program, **kwargs):
    sim = Simulator()
    world = World(sim, size, fabric=ZeroFabric(), **kwargs)
    procs = [sim.spawn(program(comm), name=f"rank{comm.rank}")
             for comm in world.comm_world()]
    sim.run()
    return [p.result for p in procs], world


# ------------------------------------------------------------- payload sizes
@pytest.mark.parametrize("payload,expected", [
    (None, 0),
    (b"abcd", 4),
    (bytearray(8), 8),
    (3, 8),
    (2.5, 8),
    (True, 8),
    ("héllo", 6),
    ((1.0, 2.0), 16),
    ([np.zeros(4), np.zeros(2)], 48),
    ({"k": np.zeros(3)}, 25),
    (np.float64(1.0), 8),
])
def test_payload_nbytes(payload, expected):
    assert payload_nbytes(payload) == expected


def test_copy_payload_deep_copies_arrays_in_containers():
    arr = np.arange(3.0)
    payload = {"a": arr, "b": [arr], "c": (arr,)}
    copied = copy_payload(payload)
    arr[:] = -1
    np.testing.assert_array_equal(copied["a"], [0, 1, 2])
    np.testing.assert_array_equal(copied["b"][0], [0, 1, 2])
    np.testing.assert_array_equal(copied["c"][0], [0, 1, 2])


# ------------------------------------------------------------------ comm edge
def test_send_to_self():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send("loopback", dest=0, tag=1)
            got = yield from comm.recv(source=0, tag=1)
            return got
        return None
        yield  # pragma: no cover

    results, _ = run_world(2, program)
    assert results[0] == "loopback"


def test_any_tag_receives_in_arrival_order():
    def program(comm):
        if comm.rank == 0:
            for tag in (5, 9, 2):
                yield from comm.send(tag * 100, dest=1, tag=tag)
            return None
        out = []
        for _ in range(3):
            _, status = yield from comm.recv(source=0, tag=ANY_TAG,
                                             with_status=True)
            out.append(status["tag"])
        return out

    results, _ = run_world(2, program)
    assert results[1] == [5, 9, 2]


def test_single_rank_collectives():
    def program(comm):
        a = yield from comm.bcast("x", root=0)
        b = yield from comm.gather(1, root=0)
        c = yield from comm.allreduce(7, op=SUM)
        d = yield from comm.scatter(["only"], root=0)
        yield from comm.barrier()
        return (a, b, c, d)

    results, _ = run_world(1, program)
    assert results[0] == ("x", [1], 7, "only")


def test_nested_split_of_split():
    def program(comm):
        half = yield from comm.split(color=comm.rank // 4)
        quarter = yield from half.split(color=half.rank // 2)
        return (sorted(quarter.group()), quarter.rank)

    results, _ = run_world(8, program)
    assert results[0] == ([0, 1], 0)
    assert results[5] == ([4, 5], 1)
    assert results[7] == ([6, 7], 1)


def test_traffic_tracking_can_be_disabled():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(10), dest=1)
            return None
        yield from comm.recv(source=0)

    _, world = run_world(2, program, track_traffic=False)
    assert world.stats.messages == 0


def test_world_size_validation():
    with pytest.raises(ValueError, match="positive"):
        World(Simulator(), 0)


# -------------------------------------------------------------- runtime edge
def test_compute_with_explicit_per_call_profile():
    machine = small_test_machine(cores_per_socket=2)
    job = Job(machine, place_ranks(4, LoadShape.FULL, machine))
    special = ComputeProfile(eff_flops_per_core=1e9, flop_util=1.0,
                             mem_util=0.0)

    def program(ctx, comm):
        yield from ctx.compute(flops=1e9, profile=special)
        return ctx.compute_seconds

    result = job.run(program)
    assert result.rank_results[0] == pytest.approx(1.0)


def test_elapse_rejects_negative():
    machine = small_test_machine(cores_per_socket=2)
    job = Job(machine, place_ranks(4, LoadShape.FULL, machine))

    def program(ctx, comm):
        yield from ctx.elapse(-1.0)

    with pytest.raises(ValueError, match="negative duration"):
        job.run(program)


def test_two_jobs_are_isolated():
    """Consecutive jobs share nothing (fresh simulator, RAPL, world)."""
    machine = small_test_machine(cores_per_socket=2)

    def program(ctx, comm):
        yield from ctx.compute(flops=12e9)

    a = Job(machine, place_ranks(4, LoadShape.FULL, machine)).run(program)
    b = Job(machine, place_ranks(4, LoadShape.FULL, machine)).run(program)
    assert a.duration == b.duration
    assert a.node_energy_j == b.node_energy_j


def test_profile_duration_validation():
    prof = ComputeProfile()
    with pytest.raises(ValueError, match="negative"):
        prof.duration(-1.0)
    with pytest.raises(ValueError, match="positive"):
        from repro.runtime.context import RankContext
        from repro.cluster.topology import Core

        RankContext(rank=0, core=Core(0, 0, 0), rapl_node=None, papi=None,
                    profile=prof, node_efficiency=0.0)
