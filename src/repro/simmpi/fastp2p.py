"""Closed-form ("fast-path") point-to-point engine: flow fusion.

The message-level point-to-point path in :mod:`repro.simmpi.comm` spawns a
delivery event, a completion event, and mailbox bookkeeping per message —
the dominant wall-clock term of p2p-heavy solvers (IMe's column-wise
scheme).  This module completes deterministic p2p traffic through
per-``(cid, src, dst, tag)`` *flow records* instead: a blocking ``send``
computes its completion in closed form and queues the message on the flow;
an exact-match blocking ``recv`` pops the earliest-arriving queued message
(or parks — :class:`~repro.simmpi.engine.Park` — until a sender wakes it),
reproducing the mailbox's arrival-order matching without any event
objects.

On top of the flow records, :func:`fast_pipeline` executes a
``Communicator.pipeline`` composition — a gather→bcast chain such as IMe's
per-level exchange — as one fused rendezvous: every rank parks exactly
once and the last entrant replays all stages with the exact
:mod:`repro.simmpi.fastcoll` recurrences (same fold order, same float
round trips), so virtual times, traffic counters, and solver values are
bit-identical to driving the stages one collective at a time.  Each
stage is one hop loop (:func:`_gather_stage`, :func:`_bcast_stage`)
priced from the fabric's constant hop costs.

Both run under ``Simulator(fast=True)`` where
:meth:`repro.simmpi.comm.World._fused` allows it: constant hop costs, no
tracer or sanitizer.  On a jittered fabric the fused pipeline would draw
the jitter in a different order than the composed collectives, so there
the pipeline composes and p2p takes the mailbox.

Scope and degradation
---------------------
Flows carry only traffic the closed form can match deterministically:
blocking/non-blocking sends and blocking receives with an exact source
and a non-negative tag.  The wildcard operations (``ANY_SOURCE``/
``ANY_TAG`` receives, ``irecv``, ``probe``, ``iprobe``) *degrade* the
receiving rank's mailbox: pending flow messages are flushed into the
mailbox in ``(arrival, seq)`` order (the exact message-level delivery
order) and the ``(cid, rank)`` pair is marked so every later operation
takes the message-level path.  Degradation is
sticky and per destination — deterministic flows elsewhere keep the fast
path.  With a tracer or sanitizer attached the dispatchers in
:mod:`repro.simmpi.comm` never route through flows at all, so span
nesting and protocol checks are unchanged; attach observers before the
run starts, not mid-flight.

Equivalence contract
--------------------
Identical to :mod:`repro.simmpi.fastcoll`'s (see its module docstring):
on every fabric the flow path runs on, it is bit-identical to the
message-level path in virtual time, energy, message/byte counters, and
payload values.  ``_msg_seq`` is consumed exactly as the message path
would (one per send, one per posted receive), so flushed flows interleave
with mailbox arbitration exactly as an all-message run.
``tests/test_fast_p2p.py`` asserts the contract end to end on IMe and
fault-tolerant IMe, and pins that a jittered job reads the same with
and without the fused pipeline.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import Any

from repro.simmpi.datatypes import (
    DEFAULT_OBJECT_BYTES,
    copy_payload,
    payload_nbytes,
)
from repro.simmpi.engine import Park, SleepUntil
from repro.simmpi.errors import CommMismatchError, SimMPIError
from repro.simmpi import aggregate
from repro.simmpi.fastcoll import (
    _bcast_values,
    _children_desc_table,
    _children_table,
    _COLL_TAG_BASE,
    _parents_table,
)


class _Flow:
    """Messages in flight (and at most one parked receiver) for one
    ``(cid, src, dst, tag)`` key.

    ``msgs`` holds ``(arrival, seq, payload, nbytes)`` tuples sorted by
    ``(arrival, seq)`` — the mailbox's deterministic matching order.  A
    receiver that cannot complete synchronously parks in ``slot[0]``;
    arrival callbacks (one per in-flight message while a receiver waits)
    deliver the queue head the moment virtual time reaches it, so a
    smaller message sent later still overtakes a larger one sent earlier,
    exactly as mailbox delivery would.
    """

    __slots__ = ("world", "src", "dst", "tag", "msgs", "slot", "with_status")

    def __init__(self, world, src: int, dst: int, tag: int):
        self.world = world
        self.src = src
        self.dst = dst
        self.tag = tag
        self.msgs: list[tuple[float, int, Any, int]] = []
        self.slot: list = [None]
        self.with_status = False

    def _on_arrival(self, _arg) -> None:
        """Complete the parked receiver with the queue head, if its time
        has come (stale callbacks — head already delivered, or receiver
        already satisfied — are no-ops)."""
        proc = self.slot[0]
        if proc is None or not self.msgs:
            return
        sim = self.world.sim
        arrival, _seq, payload, nbytes = self.msgs[0]
        if arrival > sim.now:
            return
        self.msgs.pop(0)
        self.slot[0] = None
        overhead = self.world.fabric.cpu_overhead(nbytes)
        if self.with_status:
            value = (payload, {"source": self.src, "tag": self.tag,
                               "nbytes": nbytes})
        else:
            value = payload
        sim.schedule_at(sim.now + overhead, proc._step, value)


def _flow_of(world, cid: int, src: int, dst: int, tag: int) -> _Flow:
    flows = world._flows.get((cid, dst))
    if flows is None:
        flows = world._flows[(cid, dst)] = {}
    flow = flows.get((src, tag))
    if flow is None:
        flow = flows[(src, tag)] = _Flow(world, src, dst, tag)
    return flow


def _push(comm, payload: Any, dest: int, tag: int,
          nbytes: int | None) -> tuple[float, float]:
    """Queue one message on its flow; returns ``(now, send_completion)``.

    Mirrors ``Communicator.isend`` exactly: same fabric queries (on a
    constant-cost fabric ``transfer_schedule``, where present, is
    ``now + transfer_time``), same ``call_at`` float round trips, same
    traffic accounting, same ``_msg_seq`` consumption, same copy-on-send.
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    size = payload_nbytes(payload) if nbytes is None else int(nbytes)
    src_node = comm._nodes[comm.rank]
    dst_node = comm._nodes[dest]
    now = sim.now
    raw = now + fabric.transfer_time(size, src_node, dst_node)
    arrival = now + (raw - now)
    if world.track_traffic:
        world.stats.record(size, src_node != dst_node)
    flow = _flow_of(world, comm.cid, comm.rank, dest, tag)
    insort(flow.msgs, (arrival, next(world._msg_seq),
                       copy_payload(payload), size))
    if flow.slot[0] is not None:
        # A receiver is parked: race this arrival against the queue.
        sim.schedule_at(arrival, flow._on_arrival, None)
    overhead = fabric.cpu_overhead(size)
    return now, now + ((now + overhead) - now)


def fast_send(comm, payload: Any, dest: int, tag: int, nbytes: int | None):
    """Blocking eager send through the flow — no events, no Request."""
    now, done = _push(comm, payload, dest, tag, nbytes)
    if done > now:
        yield SleepUntil(done)
    return None


def fast_isend(comm, payload: Any, dest: int, tag: int, nbytes: int | None):
    """Non-blocking send: the message rides the flow, the completion is a
    regular :class:`~repro.simmpi.comm.Request` (same event timing as the
    message-level eager protocol)."""
    from repro.simmpi.comm import Request

    now, done_t = _push(comm, payload, dest, tag, nbytes)
    sim = comm.world.sim
    done = sim.event(name="isend")
    sim.schedule_at(done_t, done.set, None)
    return Request(done)


def fast_recv(comm, source: int, tag: int, with_status: bool):
    """Blocking exact-match receive through the flow.

    Completes synchronously when the earliest queued message has already
    arrived (future sends cannot overtake it: their arrival is bounded
    below by the current time); otherwise parks until an arrival callback
    delivers the queue head.
    """
    world = comm.world
    sim = world.sim
    # Keep the arbitration counter lockstep with a message-level run.
    next(world._msg_seq)
    flow = _flow_of(world, comm.cid, source, comm.rank, tag)
    now = sim.now
    if flow.msgs and flow.msgs[0][0] <= now:
        _arr, _seq, payload, nbytes = flow.msgs.pop(0)
        overhead = world.fabric.cpu_overhead(nbytes)
        done = now + overhead
        if done > now:
            yield SleepUntil(done)
        if with_status:
            return payload, {"source": source, "tag": tag, "nbytes": nbytes}
        return payload
    if flow.slot[0] is not None:
        raise SimMPIError(
            f"two concurrent receives on flow (cid={comm.cid}, "
            f"src={source}, dst={comm.rank}, tag={tag})"
        )
    flow.with_status = with_status
    if flow.msgs:
        sim.schedule_at(flow.msgs[0][0], flow._on_arrival, None)
    value = yield Park(flow.slot, 0)
    return value


def degrade(comm) -> None:
    """Flush this rank's flows into its mailbox and mark it degraded.

    Called by the wildcard-capable operations (``recv`` with
    ``ANY_SOURCE``/``ANY_TAG``, ``irecv``, ``probe``, ``iprobe``): queued
    flow messages become ordinary mailbox deliveries — already-arrived
    ones immediately, in ``(arrival, seq)`` order; future ones at their
    arrival times — and every later operation on ``(cid, rank)`` takes
    the message-level path.  Idempotent.
    """
    world = comm.world
    key = (comm.cid, comm.rank)
    if key in world._p2p_degraded:
        return
    world._p2p_degraded.add(key)
    flows = world._flows.pop(key, None)
    if not flows:
        return
    from repro.simmpi.comm import _Message

    pending = []
    for (src, tag), flow in flows.items():
        if flow.slot[0] is not None:
            raise SimMPIError(
                f"cannot degrade (cid={comm.cid}, rank={comm.rank}): a "
                f"receive is parked on flow (src={src}, tag={tag})"
            )
        for arrival, seq, payload, nbytes in flow.msgs:
            pending.append((arrival, seq, src, tag, payload, nbytes))
    pending.sort()
    sim = world.sim
    now = sim.now
    box = world._mailbox(comm.cid, comm.rank)
    for arrival, seq, src, tag, payload, nbytes in pending:
        msg = _Message(src=src, tag=tag, payload=payload, nbytes=nbytes,
                       arrival=arrival, seq=seq)
        if arrival <= now:
            box.deliver(msg)
        else:
            sim.schedule_at(arrival, box.deliver, msg)


# ------------------------------------------------- fused pipelines (untraced)

class _PipeRec:
    """Rendezvous record for a fused pipeline composition.

    Every member's completion depends on upstream stage roots, whose
    data-ready times depend on every member's entry — so, as with
    :class:`~repro.simmpi.fastcoll._FusedRec`, the whole chain is
    computed by whichever rank enters last, and every other rank parks
    exactly once.
    """

    __slots__ = ("entry", "procs", "steps", "remaining")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.steps: list = [None] * size
        self.remaining = size


def _gather_stage(comm, costs, entry: list, payloads: list, root: int):
    """Closed-form binomial gather with per-rank entry times ``entry``.

    One loop over the hops of :func:`repro.simmpi.fastcoll._up_cascade`
    (same deepest-first child fold, same ``max(entry, arrival) +
    cpu_overhead`` recurrence, same float round trips), every hop priced
    from the fabric's constant hop costs ``costs``, over plain lists
    rotated to the root (index = virtual rank).  ``if a > t: t = a`` is
    builtin ``max(t, a)`` spelled without the call.  Every payload is copied
    once, straight into the root's rank-ordered list; the subtree wire
    sizes accumulate inline; the traffic is booked once.  Returns
    per-rank completion times and results (the list on the root,
    ``None`` elsewhere).
    """
    size = comm.size
    world = comm.world
    intra_lat, intra_bw, inter_lat, inter_bw, ovh, ovh_pb = costs
    nodes = comm._nodes
    nodes_v = nodes[root:] + nodes[:root]
    entry_v = entry[root:] + entry[:root]
    pbytes = list(map(payload_nbytes, payloads))
    pbytes_v = pbytes[root:] + pbytes[:root]
    children_desc = _children_desc_table(size)
    parents = _parents_table(size)
    arrival = [0.0] * size
    wire = [0] * size
    ovh_in = [0.0] * size
    compl_v = [0.0] * size
    inter_msgs = inter_bytes = 0
    # Virtual ranks descending: every child (vrank > parent) folds first.
    for v in range(size - 1, 0, -1):
        t = entry_v[v]
        abytes = DEFAULT_OBJECT_BYTES + pbytes_v[v]
        for c in children_desc[v]:
            a = arrival[c]
            if a > t:
                t = a
            t = t + ovh_in[c]
            abytes += wire[c]
        src_node = nodes_v[v]
        dst_node = nodes_v[parents[v]]
        if dst_node == src_node:
            dt = intra_lat + abytes / intra_bw
        else:
            dt = inter_lat + abytes / inter_bw
            inter_msgs += 1
            inter_bytes += abytes
        arrival[v] = t + ((t + dt) - t)
        o = ovh + ovh_pb * abytes
        wire[v] = abytes
        ovh_in[v] = o
        compl_v[v] = t + ((t + o) - t)
    t = entry_v[0]
    for c in children_desc[0]:
        a = arrival[c]
        if a > t:
            t = a
        t = t + ovh_in[c]
    compl_v[0] = t
    if world.track_traffic:
        world.stats.record_bulk(size - 1, sum(wire), inter_msgs, inter_bytes)
    results: list = [None] * size
    results[root] = list(map(copy_payload, payloads))
    cut = size - root
    return compl_v[cut:] + compl_v[:cut], results


def _bcast_stage(comm, costs, entry: list, payload: Any, root: int, nb: int):
    """Closed-form binomial broadcast with per-rank entry times ``entry``.

    One loop over the hops of
    :func:`repro.simmpi.fastcoll._bcast_cascade` (same contract as
    :func:`_gather_stage`): the root sends eagerly down the tree, a
    non-root forwards at ``max(entry, arrival) + cpu_overhead``.  ``nb``
    is the modeled wire size (skeleton programs send placeholder
    payloads).  The root's result is the payload object itself, every
    other rank's a copy — the message-level ownership semantics.
    """
    size = comm.size
    world = comm.world
    overhead = costs.ovh + costs.ovh_pb * nb
    dt_intra = costs.intra_lat + nb / costs.intra_bw
    dt_inter = costs.inter_lat + nb / costs.inter_bw
    nodes = comm._nodes
    nodes_v = nodes[root:] + nodes[:root]
    entry_v = entry[root:] + entry[:root]
    children_tbl = _children_table(size)
    barr = [0.0] * size
    compl_v = [0.0] * size
    inter = 0
    # Virtual ranks ascending: every parent (vrank < child) sends first.
    for v in range(size):
        t = entry_v[v]
        if v:
            b = barr[v]
            if b > t:
                t = b
            t = t + overhead
        children = children_tbl[v]
        if children:
            src_node = nodes_v[v]
            for c in children:
                dst_node = nodes_v[c]
                if dst_node == src_node:
                    dt = dt_intra
                else:
                    dt = dt_inter
                    inter += 1
                barr[c] = t + ((t + dt) - t)
                t = t + ((t + overhead) - t)
        compl_v[v] = t
    if world.track_traffic:
        world.stats.record_bulk(size - 1, nb * (size - 1), inter, nb * inter)
    cut = size - root
    return compl_v[cut:] + compl_v[:cut], _bcast_values(payload, size, root)


#: a pipeline stage's ``(kind, root)``, which every rank must agree on
_stage_shape = itemgetter(0, 1)


def _pipe_times(comm, rec: _PipeRec, size: int):
    """Replay every stage of a fused pipeline; returns per-rank
    completion times and per-rank stage-result lists.

    Each stage is one hop loop priced from the fabric's constant hop
    costs (:func:`repro.simmpi.aggregate.vector_env`), which
    ``Communicator.pipeline`` guarantees before it fuses.
    """
    steps0 = rec.steps[0]
    shape0 = list(map(_stage_shape, steps0))
    for r in range(1, size):
        shape = list(map(_stage_shape, rec.steps[r]))
        if shape != shape0:
            raise CommMismatchError(
                f"pipeline stage shapes differ between ranks 0 and {r}: "
                f"{shape0} vs {shape}"
            )
    costs = aggregate.vector_env(comm.world)
    t = list(rec.entry)
    stage_results: list[list] = []
    for si, step0 in enumerate(steps0):
        kind = step0[0]
        root = step0[1]
        if kind == "gather":
            payloads = [steps[si][2] for steps in rec.steps]
            t, res = _gather_stage(comm, costs, t, payloads, root)
        elif kind == "bcast":
            producer = rec.steps[root][si][2]
            prev = stage_results[si - 1][root] if si else None
            payload = producer(prev) if producer is not None else None
            nbytes = step0[3] if len(step0) > 3 else None
            nb = payload_nbytes(payload) if nbytes is None else nbytes
            t, res = _bcast_stage(comm, costs, t, payload, root, nb)
        else:
            raise SimMPIError(f"unknown pipeline stage kind {kind!r}")
        stage_results.append(res)
    if not stage_results:
        return t, [[] for _ in range(size)]
    return t, [list(per_rank) for per_rank in zip(*stage_results)]


def fast_pipeline(comm, steps):
    """Fused execution of a ``Communicator.pipeline`` composition.

    One park/wake per rank for the whole chain; bit-identical virtual
    times, traffic counters, and values to the stage-by-stage reference.
    Stage producers run inside the last entrant's cascade — their side
    effects land before any rank resumes, and an exception they raise
    surfaces on the last-entering rank's process rather than the stage
    root's (values and times are unaffected; use the reference path when
    debugging producer failures).
    """
    world = comm.world
    sim = world.sim
    size = comm.size
    if size == 1:
        # Degenerate chain: the compose path is already all-local (and
        # consumes the stage tags itself).
        return (yield from comm._pipeline_compose(steps))
    nsteps = len(steps)
    seq = comm._coll_seq + 1
    comm._coll_seq += nsteps
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _PipeRec(size)
    now = sim.now
    rank = comm.rank
    rec.entry[rank] = now
    rec.steps[rank] = steps
    rec.remaining -= 1
    if rec.remaining:
        return (yield Park(rec.procs, rank))
    del colls[key]
    compl, results = _pipe_times(comm, rec, size)
    for u in range(size):
        p = rec.procs[u]
        if p is not None:
            sim.schedule_at(compl[u], p._step, results[u])
    t = compl[rank]
    if t > now:
        yield SleepUntil(t)
    return results[rank]
