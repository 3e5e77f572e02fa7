"""Fast point-to-point (flow fusion) equivalence tests.

The contract (see ``repro/simmpi/fastp2p.py`` and docs/performance.md):
with ``fast=True``, a constant-cost fabric and no tracer/sanitizer
attached, deterministic p2p traffic and fused pipeline compositions are
*bit-identical* to the message-level reference (``fast=False``) — same
results, same virtual times, same traffic counters, same oracle energy.
Wildcards (``ANY_SOURCE``/``ANY_TAG``) and probes degrade back to the
mailbox; attaching a tracer composes the pipeline (with its spans).  On
a jittered fabric the pipeline always composes, so a jittered job reads
the same whichever way the pipeline could have run.
"""

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, place_ranks
from repro.runtime.job import Job
from repro.simmpi.comm import ANY_SOURCE, Communicator, World
from repro.simmpi.engine import Simulator
from repro.simmpi.fabric import UniformFabric
from repro.solvers.ime.ft_parallel import FtOptions, ime_ft_parallel_program
from repro.solvers.ime.parallel import ImeOptions, ime_parallel_program
from repro.solvers.scalapack.pdgesv import ScalapackOptions, pdgesv_program
from repro.workloads.generator import LinearSystem, generate_system


def run_world(size, program, fast):
    """Run ``program(comm)`` per rank; return (results, now, traffic)."""
    sim = Simulator(fast=fast)
    world = World(sim, size, fabric=UniformFabric(),
                  node_of=lambda r: r % 2)
    procs = [sim.spawn(program(comm), name=f"rank{comm.rank}")
             for comm in world.comm_world()]
    sim.run()
    return [p.result for p in procs], sim.now, world.stats.snapshot()


def both_modes(size, program):
    """Fast and message runs must be bit-identical; returns the results."""
    rf, tf, sf = run_world(size, program, True)
    rm, tm, sm = run_world(size, program, False)
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


def run_ime_job(n, ranks, fast, seed=0, ft_options=None, ime_options=None,
                job_kwargs=None):
    """Full-stack IMe job (energy accounting included) in one mode;
    ``job_kwargs`` reach :class:`Job` (fabric jitter, seed)."""
    machine = small_test_machine(cores_per_socket=max(1, ranks // 2))
    placement = place_ranks(ranks, LoadShape.FULL, machine)
    system = generate_system(n, seed=seed)
    job = Job(machine, placement, **(job_kwargs or {}))
    job.sim.fast = fast

    def program(ctx, comm):
        sys_arg = system if comm.rank == 0 else None
        if ft_options is not None:
            return (yield from ime_ft_parallel_program(
                ctx, comm, system=sys_arg, options=ft_options))
        return (yield from ime_parallel_program(
            ctx, comm, system=sys_arg, options=ime_options))

    return job.run(program), system


def assert_jobs_identical(rf, rm):
    assert rf.duration == rm.duration
    assert rf.node_energy_j == rm.node_energy_j
    assert rf.traffic == rm.traffic
    for a, b in zip(rf.rank_results, rm.rank_results):
        _assert_same(a, b)


# -------------------------------------------------------- flow primitives
def test_send_recv_chain_equivalence():
    """Deterministic-tag send/recv chains ride flows bit-identically."""
    def program(comm):
        out = []
        if comm.rank == 0:
            for k in range(4):
                yield from comm.send(("payload", k), dest=1, tag=5)
            out.append((yield from comm.recv(source=1, tag=6)))
        elif comm.rank == 1:
            for k in range(4):
                out.append((yield from comm.recv(source=0, tag=5)))
            yield from comm.send("ack", dest=0, tag=6)
        return out

    results = both_modes(2, program)
    assert results[1] == [("payload", k) for k in range(4)]


def test_isend_overlap_equivalence():
    """Nonblocking sends overlapping recvs keep identical Request timing."""
    def program(comm):
        if comm.rank == 0:
            reqs = [comm.isend(np.full(8, float(k)), dest=1, tag=k)
                    for k in range(3)]
            yield from comm.waitall(reqs)
            return None
        if comm.rank == 1:
            out = []
            for k in (2, 0, 1):  # out-of-order matching across tags
                out.append((yield from comm.recv(source=0, tag=k)))
            return out
        return None

    results = both_modes(2, program)
    assert [int(a[0]) for a in results[1]] == [2, 0, 1]


def test_any_source_degrades_to_message_path():
    """A wildcard recv flushes flows to the mailbox; results identical."""
    def program(comm):
        if comm.rank == 0:
            got = []
            for _ in range(comm.size - 1):
                p, st = yield from comm.recv(source=ANY_SOURCE, tag=3,
                                             with_status=True)
                got.append((st["source"], p))
            # After degradation, later deterministic traffic still works.
            p = yield from comm.recv(source=1, tag=4)
            got.append(p)
            return got
        yield from comm.send(comm.rank * 10, dest=0, tag=3)
        if comm.rank == 1:
            yield from comm.send("post-degrade", dest=0, tag=4)
        return None

    results = both_modes(4, program)
    assert sorted(results[0][:3]) == [(1, 10), (2, 20), (3, 30)]
    assert results[0][3] == "post-degrade"


def test_negative_tags_never_ride_flows():
    """Control-plane tags (< 0, e.g. recovery traffic) stay message-level."""
    def program(comm):
        if comm.rank == 0:
            yield from comm.send("ctl", dest=1, tag=-99)
            return (yield from comm.recv(source=1, tag=2))
        yield from comm.send("data", dest=0, tag=2)
        return (yield from comm.recv(source=0, tag=-99))

    results = both_modes(2, program)
    assert results == ["data", "ctl"]


# ----------------------------------------------------- solver equivalence
@pytest.mark.parametrize("block_levels", [1, 24])
def test_ime_job_bit_identical(block_levels):
    """IMe end-to-end: time, energy, traffic, and solution all equal."""
    opts = ImeOptions(block_levels=block_levels)
    (rf, system) = run_ime_job(96, 4, True, ime_options=opts)
    (rm, _) = run_ime_job(96, 4, False, ime_options=opts)
    assert_jobs_identical(rf, rm)
    np.testing.assert_allclose(
        rf.rank_results[0], np.linalg.solve(system.a, system.b), atol=1e-8)
    assert rf.traffic["messages"] > 0


def test_ime_ft_job_bit_identical_fault_free():
    (rf, _) = run_ime_job(96, 4, True, ft_options=FtOptions(n_checksums=4))
    (rm, _) = run_ime_job(96, 4, False, ft_options=FtOptions(n_checksums=4))
    assert_jobs_identical(rf, rm)


def test_ime_ft_job_bit_identical_with_recovery():
    """Recovery (wildcard + negative-tag traffic) degrades transparently."""
    opts = FtOptions(n_checksums=32, fail_rank=2, fail_level=40)
    (rf, system) = run_ime_job(96, 4, True, ft_options=opts)
    (rm, _) = run_ime_job(96, 4, False, ft_options=opts)
    assert_jobs_identical(rf, rm)
    x, report = rf.rank_results[0]
    np.testing.assert_allclose(x, np.linalg.solve(system.a, system.b),
                               atol=1e-7)
    assert report is not None and report["recovered_at_level"] == 40


# ---------------------------------------------------------- jittered jobs
# A jittered fabric draws its jitter in hop order; the fused pipeline
# would draw it in a different order than the composed collectives.
def _jittered_ime(monkeypatch, compose, ft_options=None):
    """IMe (or ft-IMe) at (240, 16) on a jittered fabric with the fast
    path on; ``compose`` forces every pipeline to run stage by stage."""
    with monkeypatch.context() as patch:
        if compose:
            patch.setattr(Communicator, "pipeline",
                          Communicator._pipeline_compose)
        return run_ime_job(240, 16, True, ft_options=ft_options,
                           job_kwargs={"fabric_jitter": 0.02, "seed": 3})[0]


@pytest.mark.parametrize("ft_options", [
    None, FtOptions(n_checksums=16, fail_rank=5, fail_level=100)],
    ids=["ime", "ft-ime-mid-solve-failure"])
def test_jittered_job_reads_the_same_as_composed_pipeline(monkeypatch,
                                                          ft_options):
    """On a jittered fabric the fast path must give the numbers of the
    composed pipeline, which jittered monitored jobs run: a fused
    pipeline there read 0.002716794891635534 s for IMe against the
    composed 0.002716740851384245 s."""
    fast = _jittered_ime(monkeypatch, False, ft_options)
    composed = _jittered_ime(monkeypatch, True, ft_options)
    assert fast.duration == composed.duration
    assert fast.node_energy_j == composed.node_energy_j
    assert fast.traffic == composed.traffic
    if ft_options is None:
        assert fast.duration == 0.002716740851384245
    else:
        _x, report = fast.rank_results[0]
        assert report["recovered_at_level"] == 100


def test_flows_match_mailbox_on_jittered_fabric():
    """Flow records draw the fabric once per message in send order, as
    the mailbox does, so even on a jittered fabric they are bit-identical
    to it: pivoting pdgesv's row swaps run send/recv either way."""
    rng = np.random.default_rng(0)
    system = LinearSystem(a=rng.standard_normal((96, 96)),
                          b=rng.standard_normal(96), seed=0)

    def run(flows):
        machine = small_test_machine(cores_per_socket=8)
        placement = place_ranks(16, LoadShape.FULL, machine)
        job = Job(machine, placement, fabric_jitter=0.02, seed=3)
        assert not job.world._fused()
        # Pretend the fabric is constant-cost so p2p rides flows.
        job.world._constant_cost = flows

        def program(ctx, comm):
            sys_arg = system if comm.rank == 0 else None
            return (yield from pdgesv_program(
                ctx, comm, system=sys_arg, options=ScalapackOptions(nb=8)))

        return job.run(program)

    rf, rm = run(True), run(False)
    assert_jobs_identical(rf, rm)
    assert rf.traffic["messages"] > 0
    np.testing.assert_allclose(rf.rank_results[0],
                               np.linalg.solve(system.a, system.b),
                               atol=1e-9)


# ------------------------------------------------------------ traced runs
def test_tracer_keeps_reference_path_and_spans():
    """With a tracer attached the fused pipeline stands down: the traced
    ``fast=True`` run keeps its per-stage collective spans and the same
    virtual timeline as the untraced, fused one."""
    from repro.obs.tracer import SpanTracer

    def run(traced):
        machine = small_test_machine(cores_per_socket=2)
        placement = place_ranks(4, LoadShape.FULL, machine)
        system = generate_system(64, seed=3)
        job = Job(machine, placement)
        assert job.sim.fast and job.world._fused()
        tracer = SpanTracer()
        if traced:
            job.attach_tracer(tracer)

        def program(ctx, comm):
            sys_arg = system if comm.rank == 0 else None
            return (yield from ime_parallel_program(ctx, comm,
                                                    system=sys_arg))

        return job.run(program), tracer

    traced, tracer = run(True)
    untraced, _ = run(False)
    assert traced.duration == untraced.duration
    assert traced.traffic == untraced.traffic
    # One gather and two bcast spans per level of the 64 on each rank.
    colls = [s.name for s in tracer.spans if s.cat == "coll" and s.tid == 0]
    assert colls.count("gather") == 64 and colls.count("bcast") == 128
