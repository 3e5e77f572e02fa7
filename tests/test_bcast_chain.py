"""Chained broadcasts: ``Communicator.bcast_chain`` against its reference.

A non-root rank's ``bcast_chain(k, root)`` stands for ``k`` back-to-back
``bcast`` calls.  On the fused fast path it parks once for the whole run
(``repro.simmpi.fastcoll.fast_bcast_chain``); everywhere else it *is*
that loop.  Both must agree with the loop and with the message path on
every modeled quantity — times, values, ``TrafficStats.snapshot()`` and
per-(node, domain) energy, compared by ``repr`` — and on the order in
which ranks resume at equal timestamps, which the energy of ranks
computing on a shared socket depends on.
"""

import numpy as np
import pytest

from repro.cluster.machine import small_test_machine
from repro.cluster.placement import LoadShape, Placement, layout_for
from repro.obs.tracer import SpanTracer
from repro.runtime.job import Job
from repro.simmpi import fastcoll
from repro.simmpi.comm import World
from repro.simmpi.engine import Process, Simulator
from repro.simmpi.errors import SimMPIError
from repro.simmpi.fabric import UniformFabric

#: a package cap at which a second active core lowers the DVFS point of
#: the test machine: the order of equal-time compute starts on a socket
#: then changes compute times and energy
BINDING_CAP_W = 47.0


def _roots(size):
    return sorted({0, 1 % size, size // 2, size - 1})


def _scenario(kind, size, k, root):
    """Per-rank compute before the broadcasts, and the root's compute
    before each of its broadcasts (flops)."""
    if kind == "slow-root":  # chains wait for a root that pauses before
        #                       each broadcast, as the pivot column does
        pre = [4e5 if r == root else 0.0 for r in range(size)]
        return pre, [2e5] * k
    if kind == "late-root":  # a late root, then back-to-back broadcasts
        pre = [4e5 if r == root else 0.0 for r in range(size)]
        return pre, [0.0] * k
    if kind == "root-first":  # the root runs ahead of late chains
        return [0.0 if r % 3 else 5e4 for r in range(size)], [0.0] * k
    # interleaved: chains entered before and after a root that pauses
    pre = [((r * 7) % 5) * 3e3 for r in range(size)]
    return pre, [((i * 5) % 4) * 4e3 for i in range(k)]


SCENARIOS = ("slow-root", "late-root", "root-first", "interleaved")


def _job(size, mode, cap=None, **job_kw):
    machine = small_test_machine(cores_per_socket=2)
    layout = layout_for(size, LoadShape.FULL, machine, allow_tail=True)
    job = Job(machine, Placement(layout, machine), **job_kw)
    job.sim.fast = mode != "message"
    if cap is not None:
        for node in job.rapl_nodes:
            for pkg in node.packages:
                pkg.set_power_cap(cap)
    return job


def _pieces(k, rank):
    """A rank-dependent split of ``k`` broadcasts into chain lengths; a
    0 stands for one plain ``bcast``."""
    lengths, left, i = [], k, rank
    while left:
        n = min(left, (i % 5) or 1)
        lengths.append(0 if i % 5 == 0 else n)
        left -= n
        i += 1
    return lengths


def _run(size, root, k, mode, kind, cap=None, job=None):
    """One job: the root broadcasts ``k`` arrays, every other rank
    receives them through ``bcast_chain`` (``mode="chain"``/"message"),
    ``k`` ``bcast`` calls (``"loop"``) or its own mix of both
    (``"split"``, see :func:`_pieces`), then computes.  Returns the job
    result and the ``(time, rank)`` log of resumes after the broadcasts
    and after the compute."""
    job = job or _job(size, mode, cap)
    pre, gaps = _scenario(kind, size, k, root)
    log = []

    def program(ctx, comm):
        rank = comm.rank
        sim = comm.world.sim
        if pre[rank]:
            yield from ctx.compute(flops=pre[rank])
        last = None
        if rank == root:
            for i in range(k):
                if gaps[i]:
                    yield from ctx.compute(flops=gaps[i])
                last = yield from comm.bcast(np.arange(3.0) * i, root=root)
        elif mode == "loop":
            for _ in range(k):
                last = yield from comm.bcast(None, root=root)
        elif mode == "split":
            for n in _pieces(k, rank):
                if n:
                    last = yield from comm.bcast_chain(n, root=root)
                else:
                    last = yield from comm.bcast(None, root=root)
        else:
            last = yield from comm.bcast_chain(k, root=root)
        log.append((sim.now, rank))
        # Unequal work on a shared socket right after the broadcasts.
        yield from ctx.compute(flops=2e4 * (1 + rank % 3))
        log.append((sim.now, rank))
        return last

    return job.run(program), log


def _assert_same_run(a, b, same_order=True):
    (ra, la), (rb, lb) = a, b
    assert ra.duration == rb.duration
    assert ra.traffic == rb.traffic
    assert repr(ra.node_energy_j) == repr(rb.node_energy_j)
    for x, y in zip(ra.rank_results, rb.rank_results):
        np.testing.assert_array_equal(x, y)
    assert sorted(la) == sorted(lb)
    if same_order:
        assert la == lb


@pytest.mark.parametrize("k", (1, 2, 64))
@pytest.mark.parametrize("size", (2, 3, 12, 33, 144))
def test_chain_equals_bcast_loop_and_message_path(size, k):
    for root in _roots(size):
        for kind in SCENARIOS:
            chain = _run(size, root, k, "chain", kind)
            _assert_same_run(chain, _run(size, root, k, "loop", kind))
            # The message path resumes ranks through other events, so
            # only the modeled quantities are compared.
            _assert_same_run(chain, _run(size, root, k, "message", kind),
                             same_order=False)
            assert chain[0].rank_results[(root + 1) % size][2] == 2.0 * (k - 1)


@pytest.mark.parametrize("k", (2, 64))
@pytest.mark.parametrize("size", (12, 33, 144))
def test_chain_keeps_equal_time_order_under_a_binding_cap(size, k):
    """With a cap that makes a second active core slow the first, the
    resume order at equal timestamps decides compute times and energy:
    the chain must reproduce the loop's order, not just its times."""
    for root in _roots(size):
        for kind in SCENARIOS:
            _assert_same_run(
                _run(size, root, k, "chain", kind, cap=BINDING_CAP_W),
                _run(size, root, k, "loop", kind, cap=BINDING_CAP_W))


@pytest.mark.parametrize("size", (3, 12, 33))
def test_chains_split_a_run_anywhere(size):
    """Each rank may split the same run of broadcasts into its own mix of
    chains and single ``bcast`` calls: the records the chains share
    stay consistent and every modeled quantity matches the loop."""
    root = size // 2
    for kind in SCENARIOS:
        _assert_same_run(
            _run(size, root, 24, "split", kind, cap=BINDING_CAP_W),
            _run(size, root, 24, "loop", kind, cap=BINDING_CAP_W))


def test_equal_time_resumes_occur_in_the_scenarios():
    """The order check above is not vacuous: ranks do resume at equal
    timestamps after the broadcasts."""
    _, log = _run(144, 0, 64, "chain", "late-root")
    after_bcast = [t for t, _ in log[:144]]
    assert len(set(after_bcast)) < len(after_bcast)


def test_chain_covers_deferred_and_withdrawn_entries(monkeypatch):
    """The scenarios reach both halves of the chain: cascades that enter
    a completed rank into its next broadcast, and cascades that arrive
    before the skipped wake and withdraw that entry."""
    counts = {"advance": 0, "withdrawn": 0}
    advance, withdraw = fastcoll._Chain.advance, fastcoll._Chain.withdraw

    def counting_advance(self, rec, proc, t, value):
        counts["advance"] += 1
        return advance(self, rec, proc, t, value)

    def counting_withdraw(self, rec, v):
        hit = withdraw(self, rec, v)
        counts["withdrawn"] += hit
        return hit

    monkeypatch.setattr(fastcoll._Chain, "advance", counting_advance)
    monkeypatch.setattr(fastcoll._Chain, "withdraw", counting_withdraw)
    for kind in SCENARIOS:
        _run(33, 5, 64, "chain", kind)
    assert counts["advance"] > 0 and counts["withdrawn"] > 0


def test_chain_parks_once_when_the_root_is_last(monkeypatch):
    """Ranks that wait for a slower root resume once for the whole run."""
    resumes = {}
    step = Process._step

    def counting_step(self, value=None):
        resumes[self.name] = resumes.get(self.name, 0) + 1
        return step(self, value)

    monkeypatch.setattr(Process, "_step", counting_step)
    k = 64
    _run(12, 0, k, "chain", "slow-root")
    chain = dict(resumes)
    resumes.clear()
    _run(12, 0, k, "loop", "slow-root")
    for r in range(1, 12):
        # start, one wake per compute segment, and one for the chain
        assert chain[f"rank{r}"] <= 3 < k <= resumes[f"rank{r}"]


# ------------------------------------------------------------- fallbacks
def _forbid_chain(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the fused chain ran outside World._fused()")
    monkeypatch.setattr(fastcoll, "fast_bcast_chain", forbidden)


def test_chain_is_the_bcast_loop_under_a_tracer(monkeypatch):
    def traced(mode):
        job = _job(33, mode)
        tracer = SpanTracer()
        job.attach_tracer(tracer)
        run = _run(33, 4, 8, mode, "interleaved", job=job)
        names = sorted((s.tid, s.name) for s in tracer.spans
                       if s.cat == "coll")
        return run, names

    loop, loop_spans = traced("loop")
    _forbid_chain(monkeypatch)
    chain, chain_spans = traced("chain")
    _assert_same_run(chain, loop)
    assert chain_spans == loop_spans
    assert chain_spans.count((0, "bcast")) == 8


def test_chain_is_the_bcast_loop_under_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    loop = _run(12, 3, 8, "loop", "interleaved")
    _forbid_chain(monkeypatch)
    job = _job(12, "chain")
    assert job.sim.sanitizer is not None
    chain = _run(12, 3, 8, "chain", "interleaved", job=job)
    _assert_same_run(chain, loop)
    assert job.sim.sanitizer.collectives_checked == 12 * 8


def test_chain_is_the_bcast_loop_on_a_jittered_fabric(monkeypatch):
    def jittered(mode):
        job = _job(12, mode, fabric_jitter=0.05, seed=3)
        return _run(12, 3, 8, mode, "interleaved", job=job)

    loop = jittered("loop")
    _forbid_chain(monkeypatch)
    _assert_same_run(jittered("chain"), loop)


def test_chain_is_the_bcast_loop_on_the_message_path(monkeypatch):
    loop = _run(12, 3, 8, "loop", "interleaved")
    _forbid_chain(monkeypatch)
    _assert_same_run(_run(12, 3, 8, "message", "interleaved"), loop,
                     same_order=False)


# ---------------------------------------------------------------- misuse
def _world_run(size, program):
    sim = Simulator()
    world = World(sim, size, fabric=UniformFabric())
    procs = [sim.spawn(program(comm)) for comm in world.comm_world()]
    sim.run()
    return [p.result for p in procs]


def test_chain_rejects_the_root_and_negative_counts():
    def program(comm):
        if comm.rank == 0:
            with pytest.raises(SimMPIError, match="root"):
                yield from comm.bcast_chain(2, root=0)
            with pytest.raises(SimMPIError, match="root rank"):
                yield from comm.bcast_chain(2, root=3)
        else:
            with pytest.raises(SimMPIError, match="negative"):
                yield from comm.bcast_chain(-1, root=0)
        return comm.rank

    assert _world_run(2, program) == [0, 1]


def test_empty_chain_consumes_no_collective():
    def program(comm):
        if comm.rank == 0:
            return (yield from comm.bcast("x", root=0))
        nothing = yield from comm.bcast_chain(0, root=0)
        got = yield from comm.bcast_chain(1, root=0)
        return nothing, got

    assert _world_run(3, program) == ["x", (None, "x"), (None, "x")]
