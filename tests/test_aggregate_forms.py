"""Three-way equivalence of the stateless-fabric lanes of the fast engines.

The fast engines (``repro/simmpi/fastcoll.py``, ``fastp2p.py``) evaluate
collective and pipeline timing in one of two ways: a scalar per-edge
walk that calls the fabric per hop, or — when the fabric is uniform per
rank pair and the world is large enough
(``aggregate.AGGREGATE_MIN_SIZE``) — a stateless lane that reads the
fabric constants once.  For fused allreduce/allgather that lane is the
numpy wave forms of ``aggregate.py``; for a fused pipeline (IMe's
per-level gather→bcast→bcast) it is a flat Python loop per stage.
Every lane must be bit-identical to the others and to the message-level
reference: same results, same virtual times, same traffic, same energy.

These tests force each path explicitly by pinning
``AGGREGATE_MIN_SIZE`` (2 → stateless lane even for tiny worlds; a huge
value → scalar walk even for big ones) and compare all three legs
across the solver grid, including ft-IMe mid-solve recovery and
wildcard/probe degradation.  The pipeline stage loops are also checked
one stage at a time against the fabric-call walk.
"""

import contextlib

import numpy as np
import pytest

from repro.cluster.machine import NetworkParams, small_test_machine
from repro.cluster.network import ClusterFabric
from repro.cluster.placement import LoadShape, place_ranks
from repro.runtime.job import Job
from repro.simmpi import aggregate
from repro.simmpi.comm import ANY_SOURCE, World
from repro.simmpi.datatypes import DEFAULT_OBJECT_BYTES, payload_nbytes
from repro.simmpi.engine import Simulator
from repro.simmpi.fabric import UniformFabric
from repro.solvers.ime.ft_parallel import FtOptions, ime_ft_parallel_program
from repro.solvers.ime.parallel import ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import generate_system


@contextlib.contextmanager
def aggregate_min_size(value):
    saved = aggregate.AGGREGATE_MIN_SIZE
    aggregate.AGGREGATE_MIN_SIZE = value
    try:
        yield
    finally:
        aggregate.AGGREGATE_MIN_SIZE = saved


FORCE_VECTOR = 2          # vectorize even two-rank worlds
FORCE_SCALAR = 10 ** 9    # never vectorize


def _assert_same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


def run_job(program, ranks, fast):
    if ranks % 2:
        machine = small_test_machine(cores_per_socket=ranks)
        placement = place_ranks(ranks, LoadShape.HALF_ONE_SOCKET, machine)
    else:
        machine = small_test_machine(cores_per_socket=ranks // 2)
        placement = place_ranks(ranks, LoadShape.FULL, machine)
    job = Job(machine, placement)
    job.sim.fast_collectives = fast
    job.sim.fast_p2p = fast
    return job.run(program)


def three_way(program, ranks):
    """Vector, scalar-fast, and message legs must all be bit-identical."""
    with aggregate_min_size(FORCE_VECTOR):
        vec = run_job(program, ranks, True)
    with aggregate_min_size(FORCE_SCALAR):
        scal = run_job(program, ranks, True)
    msg = run_job(program, ranks, False)
    for name, other in (("scalar", scal), ("message", msg)):
        assert vec.duration == other.duration, name
        assert vec.node_energy_j == other.node_energy_j, name
        assert vec.traffic == other.traffic, name
        for a, b in zip(vec.rank_results, other.rank_results):
            _assert_same(a, b)
    return vec


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
    surviving communicator — all three timing legs must stay identical
    through the failure, the reconstruction, and the remainder."""
    system = generate_system(20, seed=4)
    options = FtOptions(n_checksums=8, fail_rank=2, fail_level=10)
    result = three_way(_ft_program(system, options), 4)
    x, report = result.rank_results[0]
    np.testing.assert_allclose(x, np.linalg.solve(system.a, system.b),
                               atol=1e-8)
    assert report["recovered_at_level"] == 10
    assert result.rank_results[2] == "failed"


# ----------------------------------------- wildcard / probe degradation
def run_world_three_way(size, program):
    """World-level three-way comparison (no energy context needed)."""

    def run(fast):
        sim = Simulator()
        sim.fast_collectives = fast
        sim.fast_p2p = fast
        world = World(sim, size, fabric=UniformFabric(),
                      node_of=lambda r: r % 2)
        procs = [sim.spawn(program(comm), name=f"rank{comm.rank}")
                 for comm in world.comm_world()]
        sim.run()
        return [p.result for p in procs], sim.now, world.stats.snapshot()

    with aggregate_min_size(FORCE_VECTOR):
        rv, tv, sv = run(True)
    with aggregate_min_size(FORCE_SCALAR):
        rs, ts, ss = run(True)
    rm, tm, sm = run(False)
    assert tv == ts == tm
    assert sv == ss == sm
    for a, b, c in zip(rv, rs, rm):
        _assert_same(a, b)
        _assert_same(a, c)
    return rv


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


@pytest.mark.parametrize("algo,ranks", [
    ("ime", 1296), ("scalapack", 1296),
    ("ime", 3188), ("scalapack", 3188),
])
def test_exact_skeleton_vector_scalar_identity_paper_ranks(algo, ranks):
    """Vector ≡ scalar bit-identity at the paper's rank counts (p=3188
    includes the partial tail node), using the exact skeletons at a
    quick matrix size — the structure is what the rank count stresses,
    and it is independent of n."""
    from repro.obs.symbolic import run_skeleton_job

    with aggregate_min_size(FORCE_VECTOR):
        vec = run_skeleton_job(algo, 36, ranks)
    with aggregate_min_size(FORCE_SCALAR):
        scal = run_skeleton_job(algo, 36, ranks)
    assert vec.duration == scal.duration
    assert vec.traffic == scal.traffic
    assert vec.node_energy_j == scal.node_energy_j


# ------------------------------------------------------------ gate sanity
def test_vector_leg_actually_vectorizes(monkeypatch):
    """Guard against the vector leg silently falling back to scalar:
    count vector_env() hits during a forced-vector solver run."""
    hits = []
    real = aggregate.vector_env

    def spy(world):
        venv = real(world)
        if venv is not None:
            hits.append(venv)
        return venv

    monkeypatch.setattr(aggregate, "vector_env", spy)
    system = generate_system(24, seed=5)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_parallel_program(ctx, comm, system=sys_arg))

    with aggregate_min_size(FORCE_VECTOR):
        run_job(program, 4, True)
    assert hits, "forced-vector run never reached the aggregate forms"


def test_scalar_gate_respected(monkeypatch):
    """Below AGGREGATE_MIN_SIZE the closed forms must not be consulted."""
    calls = []
    monkeypatch.setattr(aggregate, "vector_env",
                        lambda world: calls.append(world) or None)
    system = generate_system(24, seed=5)

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        return (yield from ime_parallel_program(ctx, comm, system=sys_arg))

    with aggregate_min_size(FORCE_SCALAR):
        run_job(program, 4, True)
    assert not calls


# ------------------------------------- pipeline stage loops, stage by stage
def _stage_comm(size, node_of):
    """Rank 0's COMM_WORLD handle on a fresh jitter-free cluster fabric."""
    world = World(Simulator(), size,
                  fabric=ClusterFabric(NetworkParams(), jitter_frac=0.0),
                  node_of=node_of)
    return world.comm_world()[0]


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


STAGE_SIZES = [2, 3, 12, 33, 144, 145, 1296]
# Blocks of 7 leave a partial tail node at every size above; the
# round-robin map makes most hops inter-node.
STAGE_NODE_MAPS = {
    "block7": lambda r: r // 7,
    "roundrobin3": lambda r: r % 3,
}


@pytest.mark.parametrize("node_map", sorted(STAGE_NODE_MAPS))
@pytest.mark.parametrize("size", STAGE_SIZES)
def test_gather_stage_flat_matches_fabric_walk(size, node_map):
    """The stateless-fabric gather loop equals the fabric-call walk
    bit for bit: completion times, the root's rank-ordered result, and
    the traffic counters — also against the aggregate wire sizes."""
    from repro.simmpi.fastp2p import (
        _gather_stage, _gather_stage_flat, _stage_env)

    rng = np.random.default_rng(size)
    node_of = STAGE_NODE_MAPS[node_map]
    ref = _stage_comm(size, node_of)
    flat = _stage_comm(size, node_of)
    for root in _stage_roots(size):
        entry = (rng.random(size) * 1e-5).tolist()
        payloads = [_ragged_payload(rng, r) for r in range(size)]
        before = flat.world.stats.bytes
        t_ref, res_ref = _gather_stage(ref, _stage_env(ref), entry,
                                       payloads, root)
        t_flat, res_flat = _gather_stage_flat(
            flat, aggregate.vector_env(flat.world), entry, payloads, root)
        assert t_flat == t_ref
        assert all(res is None for r, res in enumerate(res_flat)
                   if r != root)
        _assert_same(res_flat[root], res_ref[root])
        # Copy-on-send: no array in the root's list is a sender's buffer.
        assert not any(got is sent for got, sent
                       in zip(res_flat[root], payloads)
                       if isinstance(sent, np.ndarray))
        snap = flat.world.stats.snapshot()
        assert snap == ref.world.stats.snapshot()
        vr = [(v + root) % size for v in range(size)]
        wire = aggregate.gather_sizes(
            size, [payload_nbytes(payloads[r]) for r in vr],
            DEFAULT_OBJECT_BYTES)
        assert snap["bytes"] - before == int(wire[1:].sum())


@pytest.mark.parametrize("node_map", sorted(STAGE_NODE_MAPS))
@pytest.mark.parametrize("size", STAGE_SIZES)
def test_bcast_stage_flat_matches_fabric_walk(size, node_map):
    """The stateless-fabric bcast loop equals the fabric-call walk bit
    for bit, with the payload's own size and with a wire-size override."""
    from repro.simmpi.fastp2p import (
        _bcast_stage, _bcast_stage_flat, _stage_env)

    rng = np.random.default_rng(size + 1)
    node_of = STAGE_NODE_MAPS[node_map]
    ref = _stage_comm(size, node_of)
    flat = _stage_comm(size, node_of)
    for root in _stage_roots(size):
        for nbytes in (None, 8 * int(rng.integers(1, 5000))):
            entry = (rng.random(size) * 1e-5).tolist()
            payload = np.arange(int(rng.integers(1, 64)), dtype=float)
            t_ref, res_ref = _bcast_stage(ref, _stage_env(ref), entry,
                                          payload, root, nbytes=nbytes)
            nb = payload_nbytes(payload) if nbytes is None else nbytes
            t_flat, res_flat = _bcast_stage_flat(
                flat, aggregate.vector_env(flat.world), entry, payload,
                root, nb)
            assert t_flat == t_ref
            assert res_flat[root] is payload and res_ref[root] is payload
            assert all(res is not payload for r, res in enumerate(res_flat)
                       if r != root)
            _assert_same(res_flat, res_ref)
            assert flat.world.stats.snapshot() == ref.world.stats.snapshot()


def test_pipeline_shape_mismatch_names_both_ranks():
    """A rank whose stage roots differ from rank 0's fails the fused
    rendezvous with both shapes in the message."""
    from repro.simmpi.errors import CommMismatchError

    def program(comm):
        root = 1 if comm.rank == 2 else 0
        yield from comm.pipeline((("gather", root, float(comm.rank)),
                                  ("bcast", 0, None, 8)))

    sim = Simulator()
    sim.fast_collectives = True
    sim.fast_p2p = True
    world = World(sim, 4, fabric=UniformFabric())
    for comm in world.comm_world():
        sim.spawn(program(comm), name=f"rank{comm.rank}")
    with pytest.raises(CommMismatchError, match=(
            r"differ between ranks 0 and 2: \[\('gather', 0\), "
            r"\('bcast', 0\)\] vs \[\('gather', 1\), \('bcast', 0\)\]")):
        sim.run()
