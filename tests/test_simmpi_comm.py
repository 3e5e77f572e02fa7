"""Unit and property tests for simulated MPI communicators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    COMM_TYPE_SHARED,
    MAX,
    MIN,
    SUM,
    World,
)
from repro.simmpi.engine import Delay, Simulator
from repro.simmpi.errors import CommMismatchError, SimMPIError
from repro.simmpi.fabric import UniformFabric, ZeroFabric


def run_world(size, program, fabric=None, node_of=None, **kwargs):
    """Spawn `program(comm, **kwargs)` on every rank; return results by rank."""
    sim = Simulator()
    world = World(sim, size, fabric=fabric or ZeroFabric(), node_of=node_of)
    comms = world.comm_world()
    procs = [
        sim.spawn(program(comm, **kwargs), name=f"rank{comm.rank}")
        for comm in comms
    ]
    sim.run()
    return [p.result for p in procs], sim, world


# --------------------------------------------------------------------- p2p
def test_send_recv_roundtrip():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        data = yield from comm.recv(source=0, tag=11)
        return data

    results, _, _ = run_world(2, program)
    assert results[1] == {"a": 7, "b": 3.14}


def test_send_recv_numpy_copies_buffer():
    def program(comm):
        if comm.rank == 0:
            data = np.arange(10.0)
            yield from comm.send(data, dest=1)
            data[:] = -1.0  # mutate after send; receiver must not see this
            return None
        data = yield from comm.recv(source=0)
        return data

    results, _, _ = run_world(2, program)
    np.testing.assert_array_equal(results[1], np.arange(10.0))


def test_recv_any_source_returns_status():
    def program(comm):
        if comm.rank == 0:
            got = []
            for _ in range(2):
                payload, status = yield from comm.recv(
                    source=ANY_SOURCE, tag=ANY_TAG, with_status=True
                )
                got.append((status["source"], payload))
            return sorted(got)
        yield from comm.send(comm.rank * 10, dest=0, tag=comm.rank)
        return None

    results, _, _ = run_world(3, program)
    assert results[0] == [(1, 10), (2, 20)]


def test_tag_matching_keeps_messages_apart():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send("first", dest=1, tag=1)
            yield from comm.send("second", dest=1, tag=2)
            return None
        second = yield from comm.recv(source=0, tag=2)
        first = yield from comm.recv(source=0, tag=1)
        return (first, second)

    results, _, _ = run_world(2, program)
    assert results[1] == ("first", "second")


def test_message_ordering_same_source_same_tag():
    def program(comm):
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(i, dest=1, tag=0)
            return None
        out = []
        for _ in range(5):
            out.append((yield from comm.recv(source=0, tag=0)))
        return out

    results, _, _ = run_world(2, program)
    assert results[1] == [0, 1, 2, 3, 4]


def test_isend_irecv_requests():
    def program(comm):
        if comm.rank == 0:
            req = comm.isend(np.full(4, 2.0), dest=1)
            yield from req.wait()
            return None
        req = comm.irecv(source=0)
        data = yield from req.wait()
        return float(data.sum())

    results, _, _ = run_world(2, program)
    assert results[1] == pytest.approx(8.0)


def test_transfer_time_charged_by_fabric():
    fabric = UniformFabric(latency=1e-3, bandwidth=1e6, overhead=0.0,
                           overhead_per_byte=0.0)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(125), dest=1)  # 1000 bytes
            return None
        yield from comm.recv(source=0)
        t = yield Delay(0.0)
        return None

    # Ranks on different nodes: latency + nbytes/bw = 1e-3 + 1e-3 = 2e-3.
    _, sim, _ = run_world(2, program, fabric=fabric,
                          node_of=lambda rank: rank)
    assert sim.now == pytest.approx(2e-3)


def test_intra_node_faster_than_inter_node():
    fabric = UniformFabric()

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(100_000), dest=1)
            return None
        yield from comm.recv(source=0)
        return None

    _, sim_intra, _ = run_world(2, program, fabric=fabric,
                                node_of=lambda rank: 0)
    _, sim_inter, _ = run_world(2, program, fabric=fabric,
                                node_of=lambda rank: rank)
    assert sim_intra.now < sim_inter.now


def test_rank_out_of_range_raises():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, dest=5)
        yield Delay(0.0)

    with pytest.raises(SimMPIError, match="out of range"):
        run_world(2, program)


# --------------------------------------------------------------- collectives
@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 13])
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_all_sizes_roots(size, root):
    root = size - 1 if root == "last" else root

    def program(comm):
        payload = {"v": 99} if comm.rank == root else None
        data = yield from comm.bcast(payload, root=root)
        return data

    results, _, _ = run_world(size, program)
    assert all(r == {"v": 99} for r in results)


def test_bcast_latency_scales_logarithmically():
    fabric = UniformFabric(latency=1.0, bandwidth=1e30, overhead=0.0,
                           overhead_per_byte=0.0)

    def program(comm):
        yield from comm.bcast(b"x", root=0)

    durations = {}
    for size in (2, 8, 64):
        _, sim, _ = run_world(size, program, fabric=fabric,
                              node_of=lambda rank: rank)
        durations[size] = sim.now
    assert durations[2] == pytest.approx(1.0)
    assert durations[8] == pytest.approx(3.0)
    assert durations[64] == pytest.approx(6.0)


@pytest.mark.parametrize("size", [1, 2, 5, 8])
def test_gather_collects_in_rank_order(size):
    def program(comm):
        data = yield from comm.gather(comm.rank * 11, root=0)
        return data

    results, _, _ = run_world(size, program)
    assert results[0] == [r * 11 for r in range(size)]
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("size", [1, 3, 6])
def test_scatter_distributes_in_rank_order(size):
    def program(comm):
        payloads = [f"item{r}" for r in range(size)] if comm.rank == 0 else None
        item = yield from comm.scatter(payloads, root=0)
        return item

    results, _, _ = run_world(size, program)
    assert results == [f"item{r}" for r in range(size)]


def test_scatter_wrong_count_raises():
    def program(comm):
        payloads = [1] if comm.rank == 0 else None
        yield from comm.scatter(payloads, root=0)

    with pytest.raises(CommMismatchError):
        run_world(2, program)


@pytest.mark.parametrize("size", [1, 2, 4, 9])
def test_reduce_sum_scalar(size):
    def program(comm):
        out = yield from comm.reduce(comm.rank + 1, op=SUM, root=0)
        return out

    results, _, _ = run_world(size, program)
    assert results[0] == size * (size + 1) // 2


def test_reduce_numpy_arrays():
    def program(comm):
        vec = np.full(3, float(comm.rank + 1))
        out = yield from comm.reduce(vec, op=SUM, root=0)
        return out

    results, _, _ = run_world(4, program)
    np.testing.assert_allclose(results[0], np.full(3, 10.0))


@pytest.mark.parametrize("op,expected", [(MAX, 6), (MIN, 2), (SUM, 12)])
def test_allreduce_ops(op, expected):
    def program(comm):
        out = yield from comm.allreduce((comm.rank + 1) * 2, op=op)
        return out

    results, _, _ = run_world(3, program)
    assert results == [expected] * 3


@pytest.mark.parametrize("size", [1, 2, 6])
def test_allgather(size):
    def program(comm):
        out = yield from comm.allgather(comm.rank ** 2)
        return out

    results, _, _ = run_world(size, program)
    expected = [r ** 2 for r in range(size)]
    assert results == [expected] * size


def test_alltoall():
    size = 4

    def program(comm):
        payloads = [f"{comm.rank}->{dst}" for dst in range(size)]
        out = yield from comm.alltoall(payloads)
        return out

    results, _, _ = run_world(size, program)
    for dst in range(size):
        assert results[dst] == [f"{src}->{dst}" for src in range(size)]


def test_barrier_aligns_ranks():
    def program(comm):
        yield Delay(float(comm.rank))  # rank r arrives at t=r
        yield from comm.barrier()
        t = yield from _now()
        return t

    def _now():
        from repro.simmpi.engine import Now
        t = yield Now()
        return t

    results, _, _ = run_world(4, program)
    # Everyone leaves the barrier no earlier than the last arrival.
    assert all(t >= 3.0 for t in results)
    assert len({round(t, 12) for t in results}) == 1


def test_consecutive_collectives_do_not_crosstalk():
    def program(comm):
        a = yield from comm.bcast(comm.rank if comm.rank == 0 else None, root=0)
        b = yield from comm.bcast(comm.rank if comm.rank == 1 else None, root=1)
        s = yield from comm.allreduce(1, op=SUM)
        return (a, b, s)

    results, _, _ = run_world(5, program)
    assert results == [(0, 1, 5)] * 5


# -------------------------------------------------------------------- split
def test_split_by_parity():
    def program(comm):
        sub = yield from comm.split(color=comm.rank % 2)
        return (sub.rank, sub.size, sorted(sub.group()))

    results, _, _ = run_world(6, program)
    for rank, (sub_rank, sub_size, group) in enumerate(results):
        assert sub_size == 3
        assert group == ([0, 2, 4] if rank % 2 == 0 else [1, 3, 5])
        assert sub_rank == rank // 2


def test_split_with_undefined_color():
    def program(comm):
        color = 0 if comm.rank < 2 else None
        sub = yield from comm.split(color=color)
        return None if sub is None else sub.size

    results, _, _ = run_world(4, program)
    assert results == [2, 2, None, None]


def test_split_key_reorders_ranks():
    def program(comm):
        sub = yield from comm.split(color=0, key=-comm.rank)
        return sub.rank

    results, _, _ = run_world(4, program)
    assert results == [3, 2, 1, 0]


def test_split_type_shared_groups_by_node():
    # 6 ranks on 2 nodes of 3 ranks each.
    def program(comm):
        node = yield from comm.split_type(COMM_TYPE_SHARED)
        return (node.rank, node.size, sorted(node.group()))

    results, _, _ = run_world(6, program, node_of=lambda rank: rank // 3)
    for rank, (sub_rank, sub_size, group) in enumerate(results):
        assert sub_size == 3
        assert group == ([0, 1, 2] if rank < 3 else [3, 4, 5])
        assert sub_rank == rank % 3


def test_messaging_within_split_comm():
    def program(comm):
        sub = yield from comm.split(color=comm.rank % 2)
        if sub.rank == 0:
            yield from sub.send(f"hello-{comm.rank % 2}", dest=1)
            return None
        out = yield from sub.recv(source=0)
        return out

    results, _, _ = run_world(4, program)
    assert results[2] == "hello-0"
    assert results[3] == "hello-1"


def test_dup_creates_isolated_channel():
    def program(comm):
        dup = yield from comm.dup()
        if comm.rank == 0:
            yield from comm.send("on-world", dest=1, tag=5)
            yield from dup.send("on-dup", dest=1, tag=5)
            return None
        on_dup = yield from dup.recv(source=0, tag=5)
        on_world = yield from comm.recv(source=0, tag=5)
        return (on_world, on_dup)

    results, _, _ = run_world(2, program)
    assert results[1] == ("on-world", "on-dup")


def test_comm_world_places_each_rank_once():
    """COMM_WORLD's handles share one member list and one node list, so
    building it asks the placement once per rank, not once per pair."""
    size = 1296
    calls = []

    def node_of(rank):
        calls.append(rank)
        return rank // 36

    comms = World(Simulator(), size, node_of=node_of).comm_world()
    assert len(calls) <= size
    assert all(c._nodes is comms[0]._nodes for c in comms)
    assert comms[5].node_of(100) == 2
    group = comms[0].group()
    group.append(-1)  # group() hands out a copy
    assert comms[1].group() == list(range(size))


def test_split_copies_each_entry_once(monkeypatch):
    """A split's allgather of (color, key, rank) tuples hands every rank
    its own list of the shared tuples: O(p) payload copies per split,
    not one copy per entry per rank."""
    from repro.simmpi import comm as comm_mod
    from repro.simmpi import datatypes, fastcoll

    size = 1296
    calls = [0]
    original = datatypes.copy_payload

    def counting_copy(payload):
        calls[0] += 1
        return original(payload)

    for module in (datatypes, fastcoll, comm_mod):
        monkeypatch.setattr(module, "copy_payload", counting_copy)

    def program(comm):
        sub = yield from comm.split(color=comm.rank % 36, key=-comm.rank)
        return sub.rank, sub.size

    results, _, world = run_world(size, program,
                                  node_of=lambda rank: rank // 36)
    assert calls[0] <= 2 * size
    assert results[0] == (35, 36) and results[size - 1] == (0, 36)
    # The allgather's modeled traffic: a 24-byte entry per rank.
    assert world.stats.messages == 2 * (size - 1)


def test_split_members_share_their_lists():
    """Every member of one split color refers to the same member and
    node lists; other colors get their own."""
    def program(comm):
        sub = yield from comm.split(color=comm.rank % 2, key=-comm.rank)
        return sub

    results, _, _ = run_world(6, program, node_of=lambda rank: rank // 3)
    evens, odds = results[0::2], results[1::2]
    for members in (evens, odds):
        assert all(s._group is members[0]._group for s in members)
        assert all(s._nodes is members[0]._nodes for s in members)
    assert evens[0]._group == [4, 2, 0] and evens[0]._nodes == [1, 0, 0]
    assert odds[0]._group == [5, 3, 1] and odds[0]._nodes == [1, 1, 0]
    assert [s.rank for s in evens] == [2, 1, 0]


# ----------------------------------------------------------- traffic stats
def test_traffic_stats_count_messages_and_bytes():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(100), dest=1)  # 800 bytes
            return None
        yield from comm.recv(source=0)
        return None

    _, _, world = run_world(2, program, node_of=lambda rank: rank)
    assert world.stats.messages == 1
    assert world.stats.bytes == 800
    assert world.stats.inter_node_messages == 1


def test_nbytes_override_charges_symbolic_size():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(None, dest=1, nbytes=10_000)
            return None
        yield from comm.recv(source=0)
        return None

    _, _, world = run_world(2, program)
    assert world.stats.bytes == 10_000


# ------------------------------------------------------------ property tests
@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=1, max_value=12),
       root=st.integers(min_value=0, max_value=11),
       data=st.integers())
def test_property_bcast_delivers_everywhere(size, root, data):
    root = root % size

    def program(comm):
        payload = data if comm.rank == root else None
        out = yield from comm.bcast(payload, root=root)
        return out

    results, _, _ = run_world(size, program)
    assert results == [data] * size


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=1, max_value=12),
       values=st.lists(st.integers(min_value=-10**6, max_value=10**6),
                       min_size=12, max_size=12))
def test_property_reduce_matches_python_sum(size, values):
    def program(comm):
        out = yield from comm.reduce(values[comm.rank], op=SUM, root=0)
        return out

    results, _, _ = run_world(size, program)
    assert results[0] == sum(values[:size])


@settings(max_examples=20, deadline=None)
@given(size=st.integers(min_value=2, max_value=10),
       n_nodes=st.integers(min_value=1, max_value=5))
def test_property_split_type_partitions_world(size, n_nodes):
    def program(comm):
        node = yield from comm.split_type(COMM_TYPE_SHARED)
        return sorted(node.group())

    results, _, _ = run_world(size, program,
                              node_of=lambda rank: rank % n_nodes)
    seen = set()
    for rank, group in enumerate(results):
        assert rank in group
        seen.update(group)
        # Every member of my node-group maps to my node.
        assert len({r % n_nodes for r in group}) == 1
    assert seen == set(range(size))
