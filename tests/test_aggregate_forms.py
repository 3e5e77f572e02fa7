"""Message path vs hop loop: the two implementations of every collective.

The fast engines (``repro/simmpi/fastcoll.py``, ``fastp2p.py``) run each
collective and each fused-pipeline stage as one loop over its modeled
hops.  A collective's loop has one branch, how it prices a hop: from the
fabric's constant hop costs (``Fabric.hop_costs()``), or by calling the
fabric.  Both branches must be bit-identical to each other and to the
message-level reference: same results, same virtual times, same traffic,
same energy.

Every case therefore runs three legs: the fast path on a constant-cost
fabric (constants branch, flow records, fused pipeline), the fast path
on the same fabric wrapped in :class:`HiddenCosts`, which withholds its
constants (fabric-call branch, mailbox p2p, composed pipeline), and the
message path.  The cases cover the solver grid, ft-IMe mid-solve
recovery, wildcard/probe degradation, broadcasts with shuffled entry
times, gathers whose senders reuse their buffers, a fabric swapped for a
NIC-queueing one after the Job is built, and each pipeline stage on its
own.  The pipeline stages fuse only on constant-cost fabrics, so their
loops have the constants branch alone; the stage tests check them
against the message path and against the numpy wave forms of
``aggregate.py``, which have no engine caller.
"""

import random

import numpy as np
import pytest

from repro.cluster.machine import (
    NetworkParams,
    marconi_a3,
    small_test_machine,
)
from repro.cluster.network import ClusterFabric
from repro.cluster.placement import LoadShape, Placement, layout_for, \
    place_ranks
from repro.runtime.job import Job
from repro.simmpi import aggregate, fastcoll
from repro.simmpi.comm import ANY_SOURCE, World
from repro.simmpi.datatypes import DEFAULT_OBJECT_BYTES, payload_nbytes
from repro.simmpi.engine import Delay, SleepUntil, Simulator
from repro.simmpi.fabric import UniformFabric, hop_costs
from repro.simmpi.fastp2p import _bcast_stage, _gather_stage
from repro.solvers.ime.ft_parallel import FtOptions, ime_ft_parallel_program
from repro.solvers.ime.parallel import ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import generate_system


class HiddenCosts:
    """A constant-cost fabric that withholds its constants.

    It prices every hop exactly as the wrapped fabric does but has no
    ``hop_costs``, so the hop loops take their fabric-call branch;
    ``calls`` counts the transfers priced through it.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def cpu_overhead(self, nbytes):
        return self.inner.cpu_overhead(nbytes)

    def transfer_time(self, nbytes, src_node, dst_node):
        self.calls += 1
        return self.inner.transfer_time(nbytes, src_node, dst_node)


def _assert_same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


def _hide(world):
    world.fabric = HiddenCosts(world.fabric)
    return world.fabric


def run_job(program, ranks, fast, hide=False):
    if ranks % 2:
        machine = small_test_machine(cores_per_socket=ranks)
        placement = place_ranks(ranks, LoadShape.HALF_ONE_SOCKET, machine)
    else:
        machine = small_test_machine(cores_per_socket=ranks // 2)
        placement = place_ranks(ranks, LoadShape.FULL, machine)
    job = Job(machine, placement)
    job.sim.fast = fast
    if hide:
        hidden = _hide(job.world)
        result = job.run(program)
        assert hidden.calls > 0
        return result
    return job.run(program)


def three_way(program, ranks):
    """Constants, fabric-call and message legs must be bit-identical."""
    const = run_job(program, ranks, True)
    calls = run_job(program, ranks, True, hide=True)
    msg = run_job(program, ranks, False)
    for name, other in (("fabric-call", calls), ("message", msg)):
        assert const.duration == other.duration, name
        assert const.node_energy_j == other.node_energy_j, name
        assert const.traffic == other.traffic, name
        for a, b in zip(const.rank_results, other.rank_results):
            _assert_same(a, b)
    return const


# ------------------------------------------------------------ solver grid
@pytest.mark.parametrize("n,ranks", [(48, 4), (33, 6)])
def test_ime_three_way(n, ranks):
    system = generate_system(n, seed=1)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_parallel_program(ctx, comm, system=sys_arg))

    result = three_way(program, ranks)
    np.testing.assert_allclose(result.rank_results[0],
                               np.linalg.solve(system.a, system.b),
                               atol=1e-9)


@pytest.mark.parametrize("n,ranks,nb", [(48, 4, 8), (37, 6, 5)])
def test_scalapack_three_way(n, ranks, nb):
    system = generate_system(n, seed=2)
    options = ScalapackOptions(nb=nb)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from pdgesv_program(ctx, comm, system=sys_arg,
                                          options=options))

    result = three_way(program, ranks)
    np.testing.assert_allclose(result.rank_results[0],
                               np.linalg.solve(system.a, system.b),
                               atol=1e-9)


# --------------------------------------------------------- ft-IMe paths
def _ft_program(system, options):
    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_ft_parallel_program(ctx, comm,
                                                   system=sys_arg,
                                                   options=options))
    return program


def test_ft_ime_fault_free_three_way():
    system = generate_system(24, seed=3)
    three_way(_ft_program(system, FtOptions(n_checksums=2)), 5)


def test_ft_ime_mid_solve_recovery_three_way():
    """The shrink/recovery path rebuilds its gather permutation on the
    surviving communicator — all three legs must stay identical through
    the failure, the reconstruction, and the remainder."""
    system = generate_system(20, seed=4)
    options = FtOptions(n_checksums=8, fail_rank=2, fail_level=10)
    result = three_way(_ft_program(system, options), 4)
    x, report = result.rank_results[0]
    np.testing.assert_allclose(x, np.linalg.solve(system.a, system.b),
                               atol=1e-8)
    assert report["recovered_at_level"] == 10
    assert result.rank_results[2] == "failed"


# ------------------------------------------------- world-level programs
def run_world_three_way(size, program, node_of=lambda r: r % 2):
    """World-level three-way comparison (no energy context needed)."""

    def run(fast, hide=False):
        sim = Simulator(fast=fast)
        world = World(sim, size, fabric=UniformFabric(), node_of=node_of)
        if hide:
            _hide(world)
        procs = [sim.spawn(program(comm), name=f"rank{comm.rank}")
                 for comm in world.comm_world()]
        sim.run()
        return [p.result for p in procs], sim.now, world.stats.snapshot()

    rc, tc, sc = run(True)
    rf, tf, sf = run(True, hide=True)
    rm, tm, sm = run(False)
    assert tc == tf == tm
    assert sc == sf == sm
    for a, b, c in zip(rc, rf, rm):
        _assert_same(a, b)
        _assert_same(a, c)
    return rc


@pytest.mark.parametrize("size", [4, 6])
def test_wildcard_recv_degrades_identically(size):
    """An ANY_SOURCE recv flushes fused flows; collectives before and
    after it must still agree across all three legs."""

    def program(comm):
        data = np.arange(5.0) if comm.rank == 0 else None
        data = yield from comm.bcast(data, root=0)
        if comm.rank == 0:
            got = []
            for _ in range(comm.size - 1):
                p, st = yield from comm.recv(source=ANY_SOURCE, tag=9,
                                             with_status=True)
                got.append((st["source"], p))
            got.sort()
        else:
            yield from comm.send(comm.rank * 10, dest=0, tag=9)
            got = None
        back = yield from comm.bcast(got, root=0)
        return (float(data.sum()), back)

    results = run_world_three_way(size, program)
    assert results[1][1] == [(r, r * 10) for r in range(1, size)]


@pytest.mark.parametrize("size", [4, 6])
def test_probe_degrades_identically(size):
    """A probe forces mailbox delivery; surrounding gather traffic must
    match across all three legs."""

    def program(comm):
        if comm.rank == 1:
            yield from comm.send(np.full(3, 7.0), dest=0, tag=2)
        if comm.rank == 0:
            st = yield from comm.probe(source=1, tag=2)
            payload = yield from comm.recv(source=st["source"],
                                           tag=st["tag"])
        else:
            payload = None
        gathered = yield from comm.gather(float(comm.rank), root=0)
        if comm.rank == 0:
            return (float(payload.sum()), gathered)
        return gathered

    results = run_world_three_way(size, program)
    assert results[0] == (21.0, [float(r) for r in range(size)])


CASCADE_SIZES = [2, 3, 12, 33, 144]
# Blocks of 7 leave a partial tail node at every size above; the
# round-robin map makes most hops inter-node.
NODE_MAPS = {
    "block7": lambda r: r // 7,
    "roundrobin3": lambda r: r % 3,
}


@pytest.mark.parametrize("node_map", sorted(NODE_MAPS))
@pytest.mark.parametrize("size", CASCADE_SIZES)
def test_bcast_cascade_with_shuffled_entries(size, node_map, monkeypatch):
    """Ranks enter each broadcast at shuffled times on the scale of a
    hop, so children park before their parent sends, leaves arrive
    after their message did, and inner ranks arriving late run their
    own cascade; every branch must agree across the three legs."""
    late_inner = []
    cascade = fastcoll._bcast_cascade

    def spy(comm, rec, key, root, size_, v, data, t_ready):
        if v:
            late_inner.append(v)
        return cascade(comm, rec, key, root, size_, v, data, t_ready)

    monkeypatch.setattr(fastcoll, "_bcast_cascade", spy)
    delays = [3e-7 * k for k in range(size)]
    random.Random(size).shuffle(delays)
    roots = sorted({0, size // 2, size - 1})

    def program(comm):
        out = []
        for i, root in enumerate(roots):
            yield Delay(delays[(comm.rank + i) % size])
            data = np.arange(4.0) + i if comm.rank == root else None
            got = yield from comm.bcast(data, root=root)
            out.append(got)
        return out

    results = run_world_three_way(size, program, NODE_MAPS[node_map])
    for out in results:
        _assert_same(out, [np.arange(4.0) + i for i in range(len(roots))])
    if size >= 12:
        assert late_inner


@pytest.mark.parametrize("size", [3, 12, 33])
def test_gather_root_list_survives_sender_buffer_reuse(size):
    """A gather's subtree dicts travel by reference, not re-copied per
    hop; the root's list must still hold each sender's value at entry
    after every sender overwrites its buffer."""

    def program(comm):
        buf = np.full(3, float(comm.rank))
        got = yield from comm.gather(buf, root=size // 2)
        buf[:] = -1.0
        yield Delay(1e-5)
        buf[:] = -2.0
        also = yield from comm.allgather(buf)
        buf[:] = -3.0
        yield from comm.barrier()
        return got, also

    results = run_world_three_way(size, program)
    got, also = results[size // 2]
    _assert_same(got, [np.full(3, float(r)) for r in range(size)])
    _assert_same(also, [np.full(3, -2.0)] * size)


def test_swapped_nic_fabric_takes_fabric_call_branch():
    """A fabric swapped in after the Job is built is priced as it is:
    a NIC-queueing fabric has no constant hop costs, so every modeled
    hop calls it, and the run is deterministic."""

    class CountingNic(ClusterFabric):
        def __init__(self, params):
            super().__init__(params, serialize_injection=True)
            self.calls = 0

        def transfer_schedule(self, nbytes, src_node, dst_node, now):
            self.calls += 1
            return super().transfer_schedule(nbytes, src_node, dst_node,
                                             now)

    machine = small_test_machine(cores_per_socket=4)
    placement = place_ranks(16, LoadShape.FULL, machine)  # 2 nodes

    def program(ctx, comm):
        data = np.ones(20_000) if comm.rank == 0 else None
        data = yield from comm.bcast(data, root=0)
        total = yield from comm.allreduce(float(data.sum()))
        yield from comm.gather(data[:100], root=3)
        return total

    runs = []
    for _ in range(2):
        job = Job(machine, placement)
        job.world.fabric = fabric = CountingNic(machine.network)
        assert hop_costs(fabric) is None
        result = job.run(program)
        assert fabric.calls == result.traffic["messages"] > 0
        runs.append((result.duration, result.traffic))
    assert runs[0] == runs[1]


def test_constants_leg_makes_no_fabric_calls():
    """On a constant-cost fabric the collectives price every hop from
    the constants: the fabric is never asked for a transfer."""

    class NoTransfers(UniformFabric):
        def transfer_time(self, nbytes, src_node, dst_node):
            raise AssertionError("constants leg called the fabric")

    def program(comm):
        data = yield from comm.bcast(np.arange(8.0), root=1)
        got = yield from comm.gather(comm.rank, root=0)
        red = yield from comm.reduce(float(comm.rank), root=2)
        total = yield from comm.allreduce(data.sum())
        mine = yield from comm.scatter(
            list(range(comm.size)) if comm.rank == 0 else None, root=0)
        yield from comm.barrier()
        return got, red, total, mine

    sim = Simulator()
    world = World(sim, 12, fabric=NoTransfers(),
                  node_of=lambda r: r // 5)
    procs = [sim.spawn(program(comm)) for comm in world.comm_world()]
    sim.run()
    assert procs[0].result[0] == list(range(12))
    assert procs[2].result[1] == float(sum(range(12)))
    assert world.stats.messages > 0


# ----------------------------------------- paper-scale rank counts
@pytest.mark.parametrize("size", [1296, 3188])
def test_wave_tables_enumeration_is_bounded(size):
    """The closed forms advance whole rank classes per level: at the
    paper's rank counts the wave count must stay logarithmic and the
    waves must partition the rank set exactly."""
    from repro.simmpi.aggregate import _wave_tables

    parent, waves = _wave_tables(size)
    assert len(waves) == size.bit_length()  # floor(log2) + 1
    seen = []
    for vr, slots in waves:
        seen.extend(int(v) for v in vr)
        assert len(slots) <= size.bit_length()
    assert sorted(seen) == list(range(size))
    # Parent links are consistent: every non-root rank's parent sits in
    # a strictly shallower wave.
    depth = {int(v): d for d, (vr, _s) in enumerate(waves) for v in vr}
    for v in range(1, size):
        assert depth[int(parent[v])] < depth[v]


def _skeleton_job(algo, n, ranks, hide):
    from repro.obs.symbolic import EXACT_SKELETON_PROGRAMS, SymbolicOptions

    machine = marconi_a3()
    placement = Placement(
        layout_for(ranks, LoadShape.FULL, machine, allow_tail=True), machine)
    job = Job(machine, placement)
    if hide:
        _hide(job.world)
    return job.run(EXACT_SKELETON_PROGRAMS[algo], n=n,
                   options=SymbolicOptions(nb=8))


@pytest.mark.parametrize("algo,ranks", [
    ("ime", 1296), ("scalapack", 1296),
    ("ime", 3188), ("scalapack", 3188),
])
def test_exact_skeleton_vector_scalar_identity_paper_ranks(algo, ranks):
    """Constants ≡ fabric-call branch at the paper's rank counts (p=3188
    includes the partial tail node), using the exact skeletons at a
    quick matrix size — the structure is what the rank count stresses,
    and it is independent of n."""
    const = _skeleton_job(algo, 36, ranks, hide=False)
    calls = _skeleton_job(algo, 36, ranks, hide=True)
    assert const.duration == calls.duration
    assert const.traffic == calls.traffic
    assert const.node_energy_j == calls.node_energy_j


# ------------------------------------- pipeline stage loops, stage by stage
def _stage_world(size, node_of, fast):
    """A fresh world on a jitter-free cluster fabric."""
    return World(Simulator(fast=fast), size,
                 fabric=ClusterFabric(NetworkParams(), jitter_frac=0.0),
                 node_of=node_of)


def _stage_comm(size, node_of):
    """Rank 0's COMM_WORLD handle and the constant hop costs the stage
    loops are priced from."""
    world = _stage_world(size, node_of, True)
    costs = aggregate.vector_env(world)
    assert costs is not None
    return world.comm_world()[0], costs


def _message_stages(size, node_of, stages):
    """Run ``(kind, root, entry, arg, nbytes)`` stages on the message
    path: every rank enters a stage at its ``entry`` time; returns the
    per-stage completion times and results, rank-indexed, and the
    traffic snapshot."""
    world = _stage_world(size, node_of, False)

    def program(comm):
        out = []
        for kind, root, entry, arg, nbytes in stages:
            yield SleepUntil(entry[comm.rank])
            if kind == "gather":
                res = yield from comm.gather(arg[comm.rank], root=root)
            else:
                res = yield from comm.bcast(
                    arg if comm.rank == root else None, root=root,
                    nbytes=nbytes)
            out.append((world.sim.now, res))
        return out

    procs = [world.sim.spawn(program(comm)) for comm in world.comm_world()]
    world.sim.run()
    per_stage = [list(zip(*stage)) for stage in
                 zip(*(p.result for p in procs))]
    return ([list(t) for t, _res in per_stage],
            [list(res) for _t, res in per_stage],
            world.stats.snapshot())


def _ragged_payload(rng, r):
    kind = r % 4
    if kind == 0:
        return np.arange(int(rng.integers(0, 40)), dtype=float) + r
    if kind == 1:
        return float(r)
    if kind == 2:
        return None
    return (r, np.ones(int(rng.integers(1, 9))))


def _stage_roots(size):
    return sorted({0, 1 % size, size // 2, size - 1})


def _rotate(values, root):
    """Rank-indexed list -> virtual-rank-indexed array (root first)."""
    return np.asarray(values[root:] + values[:root])


def _entries(rng, size, i):
    """Entry times of stage ``i``: a second apart from stage to stage,
    shuffled on the scale of a hop within one."""
    return (float(i) + rng.random(size) * 1e-5).tolist()


STAGE_SIZES = [2, 3, 12, 33, 144, 145, 1296]


@pytest.mark.parametrize("node_map", sorted(NODE_MAPS))
@pytest.mark.parametrize("size", STAGE_SIZES)
def test_gather_stage_flat_matches_fabric_walk(size, node_map):
    """The gather stage's loop equals the message path bit for bit:
    completion times, the root's rank-ordered result, and the traffic
    counters — and the numpy wave forms' wire sizes and completion
    times."""
    rng = np.random.default_rng(size)
    node_of = NODE_MAPS[node_map]
    flat, costs = _stage_comm(size, node_of)
    stages, outs = [], []
    for i, root in enumerate(_stage_roots(size)):
        entry = _entries(rng, size, i)
        payloads = [_ragged_payload(rng, r) for r in range(size)]
        before = flat.world.stats.bytes
        t_flat, res_flat = _gather_stage(flat, costs, entry, payloads, root)
        stages.append(("gather", root, entry, payloads, None))
        outs.append((t_flat, res_flat))
        assert all(res is None for r, res in enumerate(res_flat)
                   if r != root)
        # Copy-on-send: no array in the root's list is a sender's buffer.
        assert not any(got is sent for got, sent
                       in zip(res_flat[root], payloads)
                       if isinstance(sent, np.ndarray))
        wire = aggregate.gather_sizes(
            size, _rotate([payload_nbytes(p) for p in payloads], root),
            DEFAULT_OBJECT_BYTES)
        assert flat.world.stats.bytes - before == int(wire[1:].sum())
        compl, _arr, _msgs, _bytes = aggregate.gather_times(
            costs, size, _rotate(entry, root), wire,
            _rotate(flat._nodes, root))
        assert compl.tolist() == _rotate(t_flat, root).tolist()
    times, results, traffic = _message_stages(size, node_of, stages)
    for (t_flat, res_flat), t_msg, res_msg in zip(outs, times, results):
        assert t_flat == t_msg
        _assert_same(res_flat, res_msg)
    assert flat.world.stats.snapshot() == traffic


@pytest.mark.parametrize("node_map", sorted(NODE_MAPS))
@pytest.mark.parametrize("size", STAGE_SIZES)
def test_bcast_stage_flat_matches_fabric_walk(size, node_map):
    """The bcast stage's loop equals the message path bit for bit, with
    the payload's own size and with a wire-size override — and the numpy
    wave form's completion times."""
    rng = np.random.default_rng(size + 1)
    node_of = NODE_MAPS[node_map]
    flat, costs = _stage_comm(size, node_of)
    stages, outs = [], []
    for root in _stage_roots(size):
        for nbytes in (None, 8 * int(rng.integers(1, 5000))):
            entry = _entries(rng, size, len(stages))
            payload = np.arange(int(rng.integers(1, 64)), dtype=float)
            nb = payload_nbytes(payload) if nbytes is None else nbytes
            t_flat, res_flat = _bcast_stage(flat, costs, entry, payload,
                                            root, nb)
            stages.append(("bcast", root, entry, payload, nbytes))
            outs.append((t_flat, res_flat))
            assert res_flat[root] is payload
            assert all(res is not payload for r, res in enumerate(res_flat)
                       if r != root)
            compl, _inter = aggregate.bcast_times(
                costs, size, _rotate(entry, root), nb,
                _rotate(flat._nodes, root))
            assert compl.tolist() == _rotate(t_flat, root).tolist()
    times, results, traffic = _message_stages(size, node_of, stages)
    for (t_flat, res_flat), t_msg, res_msg in zip(outs, times, results):
        assert t_flat == t_msg
        _assert_same(res_flat, res_msg)
    assert flat.world.stats.snapshot() == traffic


def test_pipeline_shape_mismatch_names_both_ranks():
    """A rank whose stage roots differ from rank 0's fails the fused
    rendezvous with both shapes in the message."""
    from repro.simmpi.errors import CommMismatchError

    def program(comm):
        root = 1 if comm.rank == 2 else 0
        yield from comm.pipeline((("gather", root, float(comm.rank)),
                                  ("bcast", 0, None, 8)))

    sim = Simulator()
    world = World(sim, 4, fabric=UniformFabric())
    for comm in world.comm_world():
        sim.spawn(program(comm), name=f"rank{comm.rank}")
    with pytest.raises(CommMismatchError, match=(
            r"differ between ranks 0 and 2: \[\('gather', 0\), "
            r"\('bcast', 0\)\] vs \[\('gather', 1\), \('bcast', 0\)\]")):
        sim.run()
