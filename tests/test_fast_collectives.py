"""Fast-path collective engine equivalence tests.

The contract (see ``repro/simmpi/fastcoll.py`` and docs/performance.md):
with a fabric whose per-message cost is a pure function of
``(nbytes, src_node, dst_node)``, a ``fast=True`` run is
*bit-identical* to the message-level reference — same results, same
virtual times, same traffic counters, same energy totals.
"""

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.runtime.job import Job
from repro.simmpi.comm import MAX, SUM, World
from repro.simmpi.engine import Simulator
from repro.simmpi.fabric import UniformFabric
from repro.solvers.ime.parallel import ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import generate_system


def run_world(size, program, fast, node_of=None):
    """Run `program(comm)` on every rank; return (results, now, traffic)."""
    sim = Simulator()
    sim.fast = fast
    world = World(sim, size, fabric=UniformFabric(),
                  node_of=node_of or (lambda r: r % 2))
    procs = [sim.spawn(program(comm), name=f"rank{comm.rank}")
             for comm in world.comm_world()]
    sim.run()
    return [p.result for p in procs], sim.now, world.stats.snapshot()


def both_modes(size, program, node_of=None):
    """Run in fast and message mode; assert bit-identical; return results."""
    rf, tf, sf = run_world(size, program, True, node_of)
    rm, tm, sm = run_world(size, program, False, node_of)
    assert tf == tm, f"virtual time diverged: {tf!r} != {tm!r}"
    assert sf == sm, f"traffic counters diverged: {sf} != {sm}"
    for a, b in zip(rf, rm):
        _assert_same(a, b)
    return rf


def _assert_same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


def _subcomm(comm, variant):
    """Build the communicator under test from a world communicator."""
    if variant == "world":
        return comm
    if variant == "dup":
        return (yield from comm.dup())
    if variant == "split":
        # Two interleaved groups; collective runs inside each.
        return (yield from comm.split(color=comm.rank % 2,
                                      key=comm.rank // 2))
    raise AssertionError(variant)


COMM_VARIANTS = ("world", "dup", "split")


def _collective(op, comm, rank):
    """Issue one collective on ``comm``; payload depends on world rank."""
    size = comm.size
    if op == "bcast":
        data = np.arange(6.0) * (rank + 1) if comm.rank == 1 % size else None
        return (yield from comm.bcast(data, root=1 % size))
    if op == "bcast_nbytes":
        tok = ("hdr", rank) if comm.rank == 0 else None
        return (yield from comm.bcast(tok, root=0, nbytes=4096))
    if op == "reduce":
        out = yield from comm.reduce(float(rank + 1), op=SUM,
                                     root=(size - 1))
        return out
    if op == "gather":
        return (yield from comm.gather((rank, float(rank) / 3.0),
                                       root=1 % size))
    if op == "scatter":
        parts = ([np.full(3, float(i)) for i in range(size)]
                 if comm.rank == 0 else None)
        return (yield from comm.scatter(parts, root=0))
    if op == "allreduce":
        return (yield from comm.allreduce((float(rank), rank), op=MAX))
    if op == "allgather":
        return (yield from comm.allgather(rank * 2 + 1))
    if op == "barrier":
        yield from comm.barrier()
        return comm.rank
    if op == "scan":
        return (yield from comm.scan(float(rank + 1), op=SUM))
    if op == "reduce_scatter":
        return (yield from comm.reduce_scatter(
            [float(rank + d) for d in range(size)], op=SUM))
    raise AssertionError(op)


ALL_OPS = ("bcast", "bcast_nbytes", "reduce", "gather", "scatter",
           "allreduce", "allgather", "barrier", "scan", "reduce_scatter")


@pytest.mark.parametrize("variant", COMM_VARIANTS)
@pytest.mark.parametrize("op", ALL_OPS)
@pytest.mark.parametrize("size", (2, 5, 8))
def test_collective_equivalence(op, variant, size):
    def program(comm):
        sub = yield from _subcomm(comm, variant)
        first = yield from _collective(op, sub, comm.rank)
        # A second round on the same communicator exercises tag-sequence
        # lockstep between the fast and composed/message paths.
        second = yield from _collective(op, sub, comm.rank)
        return first, second

    both_modes(size, program)


def test_mixed_sequence_back_to_back():
    """Different collectives interleaved on world + split communicators."""
    def program(comm):
        row = yield from comm.split(color=comm.rank % 2, key=comm.rank)
        acc = []
        for k in range(4):
            s = yield from comm.allreduce(float(comm.rank + k), op=SUM)
            piv = yield from row.bcast((k, s), root=k % row.size)
            g = yield from row.gather(piv[1] + comm.rank, root=0)
            yield from comm.barrier()
            acc.append((s, piv, None if g is None else tuple(g)))
        return acc

    both_modes(6, program)


def test_single_rank_communicator():
    def program(comm):
        sub = yield from comm.split(color=comm.rank, key=0)
        a = yield from sub.bcast(np.ones(3), root=0)
        b = yield from sub.allreduce(2.0, op=SUM)
        c = yield from sub.gather(comm.rank, root=0)
        yield from sub.barrier()
        return a.sum(), b, tuple(c)

    both_modes(3, program)


def test_fast_path_copy_on_send_semantics():
    """Root mutating its buffer after bcast must not leak to receivers."""
    def program(comm):
        data = np.arange(4.0) if comm.rank == 0 else None
        out = yield from comm.bcast(data, root=0)
        if comm.rank == 0:
            data[:] = -1.0
        yield from comm.barrier()
        return out.tolist()

    results = both_modes(3, program)
    assert results[1] == [0.0, 1.0, 2.0, 3.0]
    assert results[2] == [0.0, 1.0, 2.0, 3.0]


def test_reduce_associativity_matches_message_path():
    """Non-commutative op: fold order must equal the message-level order."""
    def join(a, b):
        return f"({a}+{b})"

    def program(comm):
        return (yield from comm.reduce(str(comm.rank), op=join, root=0))

    for size in (3, 4, 7):
        both_modes(size, lambda comm: program(comm))


# ------------------------------------------------------------ solver level
@pytest.mark.parametrize("solver", ("ime", "scalapack"))
def test_solver_end_to_end_equivalence(solver):
    """Fixed seed: identical solutions, virtual time, and energy totals."""
    def run(fast):
        ranks = 4
        machine = small_test_machine(cores_per_socket=2)
        placement = place_ranks(ranks, LoadShape.FULL, machine)
        job = Job(machine, placement)
        job.sim.fast = fast
        system = generate_system(48, seed=11)
        if solver == "ime":
            def program(ctx, comm):
                sys_arg = system if comm.rank == 0 else None
                return (yield from ime_parallel_program(
                    ctx, comm, system=sys_arg))
        else:
            options = ScalapackOptions(nb=6)

            def program(ctx, comm):
                sys_arg = system if comm.rank == 0 else None
                return (yield from pdgesv_program(
                    ctx, comm, system=sys_arg, options=options))
        return job.run(program)

    rf, rm = run(True), run(False)
    assert rf.duration == rm.duration
    assert rf.node_energy_j == rm.node_energy_j
    assert rf.total_energy_j == rm.total_energy_j
    assert rf.traffic == rm.traffic
    for a, b in zip(rf.rank_results, rm.rank_results):
        if a is not None or b is not None:
            np.testing.assert_array_equal(a, b)


# --------------------------------------------------- mailbox determinism
def test_any_source_interleaved_tags_deterministic():
    """ANY_SOURCE must match probes in arrival order, per tag, repeatably."""
    from repro.simmpi.comm import ANY_SOURCE

    def program(comm):
        if comm.rank == 0:
            got = []
            # Interleave tag-specific and wildcard receives; matching must
            # follow virtual arrival order within each tag filter.
            for _ in range(3):
                p, st = yield from comm.recv(source=ANY_SOURCE, tag=7,
                                             with_status=True)
                got.append(("t7", st["source"], p))
                p, st = yield from comm.recv(source=ANY_SOURCE, tag=9,
                                             with_status=True)
                got.append(("t9", st["source"], p))
            return got
        # Senders emit both tags with rank-staggered delays.
        for k in range(3):
            yield from comm.send((comm.rank, k, "a"), dest=0, tag=7)
            yield from comm.send((comm.rank, k, "b"), dest=0, tag=9)
        return None

    runs = [run_world(4, program, fast)[0][0] for fast in (True, False)
            for _ in range(2)]
    assert all(r == runs[0] for r in runs[1:])
    assert [tag for tag, _, _ in runs[0]] == ["t7", "t9"] * 3


# ------------------------------------------------------------ traced runs
def test_traced_fast_collectives_nest_under_solver_phases():
    """Fast-path collective spans appear under ime:levels, as documented."""
    from repro.obs.symbolic import run_traced

    _, tracer = run_traced("ime", n=96, ranks=4, chunks=4,
                           fabric_jitter=0.0, node_efficiency_spread=0.0)
    by_id = {s.id: s for s in tracer.spans}
    phase_names = set()
    coll_under_levels = 0
    for s in tracer.spans:
        if s.cat != "coll":
            continue
        p = s
        while p.parent_id is not None:
            p = by_id[p.parent_id]
            if p.name == "ime:levels":
                coll_under_levels += 1
                phase_names.add(s.name)
                break
    assert coll_under_levels > 0
    assert {"gather", "bcast"} <= phase_names


# ------------------------------------------------------ binding power cap
#: a package cap at which a second active core lowers the DVFS point of
#: ``small_test_machine(cores_per_socket=2)``
BINDING_CAP_W = 47.0


def _capped_bcast_job(fast):
    """12 ranks, every package capped at 47 W: ranks 0, 3, 6 and 9
    compute first, root 1 broadcasts two arrays, then every rank
    computes an unequal amount on its shared socket."""
    machine = small_test_machine(cores_per_socket=2)
    job = Job(machine, place_ranks(12, LoadShape.FULL, machine))
    job.sim.fast = fast
    for node in job.rapl_nodes:
        for pkg in node.packages:
            pkg.set_power_cap(BINDING_CAP_W)

    def program(ctx, comm):
        rank = comm.rank
        if rank % 3 == 0:
            yield from ctx.compute(flops=5e4)
        last = None
        for i in range(2):
            last = yield from comm.bcast(
                np.arange(3.0) * i if rank == 1 else None, root=1)
        yield from ctx.compute(flops=2e4 * (1 + rank % 3))
        return last

    return job.run(program)


@pytest.fixture(scope="module")
def capped_runs():
    return _capped_bcast_job(True), _capped_bcast_job(False)


def test_binding_cap_keeps_times_traffic_and_values(capped_runs):
    fast, message = capped_runs
    assert fast.duration == message.duration
    assert fast.traffic == message.traffic
    for a, b in zip(fast.rank_results, message.rank_results):
        np.testing.assert_array_equal(a, b)


@pytest.mark.xfail(strict=True, reason=(
    "under a binding package cap the two paths resume ranks of one "
    "socket at equal virtual times in a different order, and "
    "RaplPackage.begin_core_activity prices a compute segment by the "
    "socket's active_cores at its start (e.g. total 0.004593745880933057 J "
    "fast vs 0.004593312560937427 J message)"))
def test_binding_cap_per_node_energy(capped_runs):
    fast, message = capped_runs
    assert fast.node_energy_j == message.node_energy_j
