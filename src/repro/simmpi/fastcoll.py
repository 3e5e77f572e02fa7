"""Closed-form ("fast-path") collective engine.

The message-level collectives in :mod:`repro.simmpi.comm` spawn one
simulated message per binomial-tree hop, which costs mailbox bookkeeping,
event-heap traffic, and Python-generator overhead per hop — the dominant
wall-clock term in paper-scale sweeps.  This module computes every rank's
completion time *in closed form* from the same latency/bandwidth cost
model and suspends each rank exactly once, on a single wake event
scheduled at its completion time.  Byte/hop/inter-node counters add up
to the message path's exactly, so energy accounting, ``PowerTracer``
lanes, and Chrome-trace collective spans are unchanged.
It runs under ``Simulator(fast=True)`` — the default — on any fabric; the
message-level path is kept as the validation reference (``fast=False``).

How a collective executes
-------------------------
All ranks of a collective meet at a per-``(cid, tag)`` rendezvous record
on the :class:`~repro.simmpi.comm.World`.  A rank whose causal inputs are
not yet known parks (:class:`~repro.simmpi.engine.Park` — no event object
at all).  The moment a rank's inputs become complete, a *cascade* computes
its data-ready time, models its sends (arrival times, payload copies,
traffic accounting), determines its completion time, and resumes any
parked dependents directly with ``Simulator.schedule_at``:

* **bcast/scatter** cascade *down* the tree: a rank's completion depends
  only on the entry times along its ancestor path (senders transmit
  eagerly, never waiting on receivers);
* **reduce/gather** cascade *up*: a rank folds its children — deepest
  subtree first, the message-level receive order, so floating-point
  reductions associate identically — once every child has contributed.

Causality holds without any time-travel: a cascade triggered at virtual
time *t* only ever computes completion times ``>= t``, because the chain
of ``max(entry, arrival) + cpu_overhead`` recurrences passes through the
arrival from the rank whose entry (at time *t*) completed the inputs.

The compositions (``allreduce``, ``allgather``, ``barrier``, ``scan``,
``reduce_scatter``, ``split``) are built on these primitives and need no
fast path of their own; ``alltoall`` intentionally stays message-level.

A *chained* broadcast (:func:`fast_bcast_chain`, behind
``Communicator.bcast_chain``) lets a non-root rank receive ``k``
back-to-back broadcasts from one root with one park: when a cascade
completes such a rank it enters it into the next broadcast's record at
its completion time instead of waking it.  Each skipped wake keeps the
sequence number it would have had
(:meth:`repro.simmpi.engine.Simulator.reserve`), so event
order at equal timestamps stays that of ``k`` :func:`fast_bcast` calls.

Equivalence contract
--------------------
For any fabric whose per-message cost is a pure function of ``(nbytes,
src_node, dst_node)`` — :class:`~repro.simmpi.fabric.UniformFabric`, or
:class:`~repro.cluster.network.ClusterFabric` without jitter or NIC
injection serialization — a fast-path run is *exactly* equivalent to a
message-level run: identical solver results (same reduction-tree
associativity, same copy-on-send semantics), bit-identical virtual times,
and therefore identical energy totals, plus identical
:meth:`~repro.simmpi.comm.TrafficStats.record` counters.
``tests/test_fast_collectives.py`` asserts this across all collectives and
communicator splits; ``docs/performance.md`` documents it.

Two details make the virtual times bit-identical rather than merely
approximately equal: every hop reproduces the float round trips of
``Simulator.call_at`` (``now + ((t - now))``) that the message-level path
incurs when scheduling deliveries and send completions — an arrival is
``t + ((t + dt) - t)``, a send completion ``t + ((t + overhead) - t)`` —
and every wake uses ``Simulator.schedule_at`` (exact absolute timestamps,
never a relative delay).

How a hop is priced
-------------------
Every collective here is one loop over its modeled hops, and the loop's
only branch is how it prices a hop.  A fabric with constant hop costs
(:func:`repro.simmpi.fabric.hop_costs` — ``UniformFabric``, or
``ClusterFabric`` without jitter or NIC serialization) has them read once
per collective, and each hop is computed inline with the fabric's own
float expressions.  Any other fabric is called through its arrival-time
callable (:func:`repro.simmpi.fabric.schedule_of`) at the same point of
the same loop, so seeded jitter draws and NIC queue updates keep their
order.  Traffic counters are booked once per loop with
``TrafficStats.record_bulk`` (order-free integer sums); tracer metric
lanes stay per hop.  The fused pipeline stages of
:mod:`repro.simmpi.fastp2p` run only on constant-cost fabrics, so they
have the constants branch alone.

With a *stateful* fabric (seeded jitter, ``serialize_injection``) the fast
path still charges the same cost model per modeled hop, but hops may
query the fabric in a different order than the message-level
interleaving, so runs remain deterministic per seed yet are not
guaranteed bit-identical between the two paths.

The fast path assumes the standard SPMD collective discipline the
message-level path already requires for tag matching: every member of a
communicator reaches each collective call site, and no member's *entry*
depends on another member's *completion* of that same collective.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.memo import register_cache
from repro.simmpi.datatypes import (
    DEFAULT_OBJECT_BYTES,
    IMMUTABLE_SCALARS,
    copy_payload,
    passes_through_copy,
    payload_nbytes,
)
from repro.simmpi.engine import Park, SleepUntil
from repro.simmpi.errors import CommMismatchError
from repro.simmpi.fabric import HopCosts, hop_costs, schedule_of

#: Collective tags live below the valid point-to-point range so they can
#: never collide with user tags.  Defined here (and re-exported by
#: :mod:`repro.simmpi.comm`) so the fast paths can allocate tags with
#: plain arithmetic on ``comm._coll_seq`` instead of a method call.
_COLL_TAG_BASE = -1000

#: placeholder constants for the fabric-call branch: the hop loops
#: evaluate ``dt`` from them but never use it there
_UNPRICED = HopCosts(0.0, 1.0, 0.0, 1.0, 0.0, 0.0)


def _pricing(fabric, costs: HopCosts | None):
    """``(schedule, costs)`` of one collective on ``fabric``.

    ``schedule`` is ``None`` when ``costs`` are the fabric's constant hop
    costs; otherwise it is the fabric's arrival-time callable and
    ``costs`` are placeholders.
    """
    if costs is None:
        return schedule_of(fabric), _UNPRICED
    return None, costs


def _fixed_hop(fabric, schedule, costs: HopCosts, nb: int):
    """``(overhead, dt_intra, dt_inter)`` of an ``nb``-byte hop."""
    if schedule is None:
        overhead = costs.ovh + costs.ovh_pb * nb
    else:
        overhead = fabric.cpu_overhead(nb)
    return (overhead, costs.intra_lat + nb / costs.intra_bw,
            costs.inter_lat + nb / costs.inter_bw)


def _bcast_values(payload: Any, size: int, root: int) -> list:
    """Per-rank broadcast results: the root keeps ``payload`` itself,
    every other rank gets its own copy (copy-on-send)."""
    if type(payload) is list and all(map(passes_through_copy, payload)):
        # Copy-on-send of a list whose items it passes through is a
        # shallow copy (an allgather of scalars or of split's tuples):
        # O(p) item checks, not O(p) copies per rank.
        return [payload if r == root else payload.copy()
                for r in range(size)]
    if copy_payload(payload) is payload:
        # Immutable payloads pass through copy-on-send unchanged.
        return [payload] * size
    return [payload if r == root else copy_payload(payload)
            for r in range(size)]


def _account_trace(tracer, nbytes: int, src_node: int, dst_node: int,
                   wrank: int) -> None:
    """Tracer metric lanes for one modeled hop (identical to ``isend``'s)."""
    metrics = tracer.metrics
    metrics.inc("comm.messages", 1, rank=wrank, node=src_node)
    metrics.inc("comm.bytes", nbytes, rank=wrank, node=src_node)
    if src_node != dst_node:
        metrics.inc("comm.inter_node_bytes", nbytes,
                    rank=wrank, node=src_node)


@register_cache
@functools.lru_cache(maxsize=None)
def _children_desc(vrank: int, size: int) -> tuple[int, ...]:
    """Binomial children sorted deepest-subtree-first (reduce fold order)."""
    from repro.simmpi.comm import _binomial_tree
    return tuple(sorted(_binomial_tree(vrank, size)[1], reverse=True))


@register_cache
@functools.lru_cache(maxsize=None)
def _tree(vrank: int, size: int):
    from repro.simmpi.comm import _binomial_tree
    return _binomial_tree(vrank, size)


@register_cache
@functools.lru_cache(maxsize=None)
def _child_counts(size: int) -> tuple[int, ...]:
    return tuple(len(_tree(v, size)[1]) for v in range(size))


@register_cache
@functools.lru_cache(maxsize=None)
def _children_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Children of every virtual rank, indexed by vrank (hot-loop form)."""
    return tuple(_tree(v, size)[1] for v in range(size))


@register_cache
@functools.lru_cache(maxsize=None)
def _children_desc_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Deepest-first children of every virtual rank, indexed by vrank."""
    return tuple(_children_desc(v, size) for v in range(size))


@register_cache
@functools.lru_cache(maxsize=None)
def _parents_table(size: int) -> tuple[int, ...]:
    """vrank -> parent vrank in the binomial tree (vrank 0 maps to 0)."""
    return tuple(_tree(v, size)[0] if v else 0 for v in range(size))


class _DownRec:
    """Rendezvous record for a broadcast.

    All lists are indexed by virtual rank.  ``arrival[v]``/``value[v]``
    are filled by the parent's cascade; a rank arriving before them
    parks in ``procs[v]``.  The root prices the hop (``schedule``,
    ``overhead``, ``dt_intra``, ``dt_inter`` — see :func:`_fixed_hop`)
    once, before its cascade; every later cascade reads it from here.
    """

    __slots__ = ("entry", "procs", "arrival", "value", "compl", "nbytes",
                 "served", "schedule", "overhead", "dt_intra", "dt_inter",
                 "chains", "next")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.compl: list = [0.0] * size
        self.nbytes = 0
        self.served = 0
        #: ``chains[v]`` is the :class:`_Chain` virtual rank ``v`` is parked
        #: on (``None`` for the whole list until a chain enters)
        self.chains: list | None = None
        #: the communicator's next broadcast record, once a chain looked
        #: it up (:meth:`_Chain.advance`)
        self.next: _DownRec | None = None


class _UpRec:
    """Rendezvous record for leaves-to-root collectives (reduce, gather).

    ``arrival[v]``/``value[v]``/``wire[v]``/``ovh_in[v]`` describe the
    message virtual rank ``v`` sent to its parent (a gather presets
    ``wire[v]`` to ``v``'s own share of it); ``pending[v]`` counts
    children that have not contributed yet.
    """

    __slots__ = ("entry", "procs", "arrival", "value", "wire", "ovh_in",
                 "acc", "pending", "compl", "served")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.wire: list = [0] * size
        self.ovh_in: list = [0.0] * size
        self.acc: list = [None] * size
        self.pending: list = list(_child_counts(size))
        self.compl: list = [0.0] * size
        self.served = 0


# ---------------------------------------------------------------- bcast

def _bcast_cascade(comm, rec: _DownRec, key, root: int, size: int,
                   v: int, data, t_ready: float) -> None:
    """Model ``v``'s sends and completion; recurse into arrived children.

    This is the innermost loop of a fast-path run (one iteration per
    modeled hop), so every attribute lookup is hoisted and each hop's
    arrival is computed inline (see "How a hop is priced").  A completed
    rank that holds a chain (``rec.chains``) moves on to its next
    broadcast instead of being woken (:class:`_Chain`).
    """
    world = comm.world
    sim = world.sim
    nbytes = rec.nbytes
    schedule = rec.schedule
    overhead = rec.overhead
    dt_intra = rec.dt_intra
    dt_inter = rec.dt_inter
    tracer = world.tracer
    nodes = comm._nodes
    arrival, value, entry, procs = rec.arrival, rec.value, rec.entry, rec.procs
    compl = rec.compl
    chains = rec.chains
    if chains is not None:
        now = sim.now
    children_tbl = _children_table(size)
    # Every rank's value is a copy of the root's: share it if immutable.
    shared = type(data) in IMMUTABLE_SCALARS
    hops = inter = 0
    stack = [(v, data, t_ready)]
    while stack:
        u, data, t = stack.pop()
        children = children_tbl[u]
        if children:
            ur = (u + root) % size
            src_node = nodes[ur]
            hops += len(children)
            for c in children:
                dst_node = nodes[(c + root) % size]
                if dst_node == src_node:
                    dt = dt_intra
                else:
                    dt = dt_inter
                    inter += 1
                if schedule is None:
                    arr = t + ((t + dt) - t)
                else:
                    arr = t + (schedule(nbytes, src_node, dst_node, t) - t)
                if tracer is not None:
                    _account_trace(tracer, nbytes, src_node, dst_node,
                                   comm._group[ur])
                data_c = value[c] = data if shared else copy_payload(data)
                t = t + ((t + overhead) - t)
                e = entry[c]
                if e is None or (chains is not None and chains[c] is not None
                                 and chains[c].wake >= now
                                 and chains[c].withdraw(rec, c)):
                    arrival[c] = arr
                    continue
                # ``max(e, arr)`` without the call
                tc = (arr if arr > e else e) + overhead
                if children_tbl[c]:
                    stack.append((c, data_c, tc))
                else:
                    # Leaf child already waiting: complete it inline.
                    compl[c] = tc
                    rec.served += 1
                    p = procs[c]
                    if p is not None:
                        if chains is None or chains[c] is None:
                            sim.schedule_at(tc, p._step, data_c)
                        else:
                            chains[c].advance(rec, p, tc, data_c)
        compl[u] = t
        rec.served += 1
        p = procs[u]
        if p is not None:
            if chains is None or chains[u] is None:
                sim.schedule_at(t, p._step, value[u])
            else:
                chains[u].advance(rec, p, t, value[u])
    if world.track_traffic:
        world.stats.record_bulk(hops, nbytes * hops, inter, nbytes * inter)
    if rec.served == size:
        # A finished record drops its chain link, so a parked chain does
        # not keep its later records alive.
        del world._fast_colls[key]
        rec.next = None


def fast_bcast(comm, payload: Any, root: int, nbytes: int | None):
    """Closed-form binomial-tree broadcast (see module docstring)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return copy_payload(payload)
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _DownRec(size)
    now = sim.now
    rec.entry[v] = now
    if v == 0:
        nb = payload_nbytes(payload) if nbytes is None else int(nbytes)
        fabric = world.fabric
        schedule, costs = _pricing(fabric, hop_costs(fabric))
        rec.nbytes = nb
        rec.schedule = schedule
        rec.overhead, rec.dt_intra, rec.dt_inter = _fixed_hop(
            fabric, schedule, costs, nb)
        _bcast_cascade(comm, rec, key, root, size, 0, payload, now)
        t = rec.compl[0]
        if t > now:
            yield SleepUntil(t)
        return payload
    arr = rec.arrival[v]
    if arr is None:
        return (yield Park(rec.procs, v))
    data = rec.value[v]
    t = (arr if arr > now else now) + rec.overhead
    if not _children_table(size)[v]:
        # Leaf with its message already delivered: no cascade needed.
        rec.served += 1
        if rec.served == size:
            del colls[key]
            rec.next = None
        if t > now:
            yield SleepUntil(t)
        return data
    _bcast_cascade(comm, rec, key, root, size, v, data, t)
    t = rec.compl[v]
    if t > now:
        yield SleepUntil(t)
    return data


# ------------------------------------------------------ chained bcasts

#: :attr:`_Chain.wake` of a rank that entered its record itself
_OWN_ENTRY = float("-inf")


class _Chain:
    """One non-root rank's run of ``count`` back-to-back broadcasts from
    one root (:func:`fast_bcast_chain`).

    ``done`` broadcasts have completed; the rank is parked in (or about
    to enter) broadcast ``done``.  When a cascade completes a broadcast
    for the rank, :meth:`advance` enters it into the next record at its
    completion time instead of waking it.  Such an entry is *provisional*
    until the instant the skipped wake would have run: ``(wake, seq)``
    is that wake's event key, its sequence number reserved from the
    engine at the moment the reference path would have scheduled it.  A
    cascade reaching the rank before that instant finds it not yet
    entered, as the reference does, and :meth:`withdraw` schedules the
    skipped wake at its reserved key — so event order, equal timestamps
    included, stays the reference's.  ``wake`` is ``-inf`` while the
    entry is the rank's own.
    """

    __slots__ = ("comm", "sim", "v", "seq0", "count", "done", "wake", "seq")

    def __init__(self, comm, v: int, seq0: int, count: int):
        self.comm = comm
        self.sim = comm.world.sim
        self.v = v
        self.seq0 = seq0
        self.count = count
        self.done = 0
        self.wake = _OWN_ENTRY
        self.seq = 0

    def record(self, i: int) -> tuple:
        """``(key, record)`` of the chain's ``i``-th broadcast."""
        comm = self.comm
        key = (comm.cid, _COLL_TAG_BASE - (self.seq0 + i + 1))
        colls = comm.world._fast_colls
        rec = colls.get(key)
        if rec is None:
            rec = colls[key] = _DownRec(comm.size)
        return key, rec

    def enter(self, rec: _DownRec, t: float, provisional: bool) -> None:
        """Enter the rank into ``rec`` at ``t``; a provisional entry
        reserves the sequence number of the wake it replaces."""
        v = self.v
        rec.entry[v] = t
        chains = rec.chains
        if chains is None:
            chains = rec.chains = [None] * self.comm.size
        chains[v] = self
        if provisional:
            self.wake = t
            self.seq = self.sim.reserve()
        else:
            self.wake = _OWN_ENTRY

    def advance(self, rec: _DownRec, proc, t: float, value) -> None:
        """A cascade completed the rank's broadcast ``rec`` at ``t``."""
        self.done = done = self.done + 1
        if done == self.count:
            self.sim.schedule_at(t, proc._step, value)
            return
        # Consecutive broadcasts of one chain are linked, so the ranks
        # that follow the first look the next record up once, here.
        nxt = rec.next
        if nxt is None:
            nxt = rec.next = self.record(done)[1]
        v = self.v
        if nxt.arrival[v] is not None:
            # The resumed rank would find its message delivered and run
            # the next cascade itself at its wake: wake it.
            self.sim.schedule_at(t, proc._step, None)
            return
        # enter(nxt, t, True), inline: once per rank and broadcast
        nxt.entry[v] = t
        nxt.procs[v] = proc
        chains = nxt.chains
        if chains is None:
            chains = nxt.chains = [None] * len(nxt.entry)
        chains[v] = self
        self.wake = t
        self.seq = self.sim.reserve()

    def withdraw(self, rec: _DownRec, v: int) -> bool:
        """Undo a provisional entry a cascade reaches too early.

        Returns whether it did: the rank's skipped wake is scheduled at
        its reserved key, and it enters ``rec`` itself when it runs.
        """
        sim = self.sim
        if sim.dispatched(self.wake, self.seq):
            return False
        proc = rec.procs[v]
        rec.entry[v] = rec.procs[v] = rec.chains[v] = None
        sim.schedule_reserved(self.wake, self.seq, proc._step, None)
        self.wake = _OWN_ENTRY
        return True


def fast_bcast_chain(comm, count: int, root: int):
    """``count`` back-to-back broadcasts from ``root``, received by one
    non-root rank that parks once for the whole run.

    Bit-identical to ``count`` :func:`fast_bcast` calls — times, values,
    traffic and event order — since every completion is the same
    ``max(entry, arrival) + overhead`` recurrence and a skipped wake
    keeps its reserved place in the event queue (:class:`_Chain`).
    Returns the last broadcast's value.
    """
    world = comm.world
    sim = world.sim
    seq0 = comm._coll_seq
    comm._coll_seq = seq0 + count
    size = comm.size
    v = (comm.rank - root) % size
    leaf = not _children_table(size)[v]
    chain = _Chain(comm, v, seq0, count)
    data = None
    while chain.done < count:
        key, rec = chain.record(chain.done)
        now = sim.now
        arr = rec.arrival[v]
        if arr is None:
            chain.enter(rec, now, False)
            data = yield Park(rec.procs, v)
            continue
        # The message is already here: the rank's own turn, as in
        # fast_bcast, and then the next broadcast at its completion.
        rec.entry[v] = now
        data = rec.value[v]
        if leaf:
            t = (arr if arr > now else now) + rec.overhead
            rec.served += 1
            if rec.served == size:
                del world._fast_colls[key]
                rec.next = None
        else:
            _bcast_cascade(comm, rec, key, root, size, v, data,
                           (arr if arr > now else now) + rec.overhead)
            t = rec.compl[v]
        chain.done += 1
        if t > now:
            if chain.done < count:
                _key, nxt = chain.record(chain.done)
                if nxt.arrival[v] is None:
                    chain.enter(nxt, t, True)
                    data = yield Park(nxt.procs, v)
                    continue
            yield SleepUntil(t)
    return data


# ------------------------------------------------------- reduce / gather

def _up_cascade(comm, rec: _UpRec, key, root: int, size: int, v: int,
                fold: Callable, finalize: Callable | None = None) -> None:
    """Fold ``v``'s subtree, model its send upward, cascade to ancestors.

    ``fold(acc, item)`` combines one child contribution (``op`` for
    reduce, dict-merge for gather); called in deepest-first child order —
    the message-level receive order.  ``finalize(acc)`` post-processes the
    root's folded value before it is handed to a parked root process
    (gather's rank-ordered list).

    A gather's subtree dict travels up by reference: its payloads were
    copied once at entry, and its wire size is ``wire[v]`` plus the
    children's (``payload_nbytes`` of a rank-keyed dict is a plain sum
    over members), so no hop re-copies or re-sizes it.  A reduction's
    value is copied and sized per hop, as copy-on-send requires.
    """
    world = comm.world
    sim = world.sim
    fabric = world.fabric
    schedule, costs = _pricing(fabric, hop_costs(fabric))
    intra_lat, intra_bw, inter_lat, inter_bw, ovh, ovh_pb = costs
    cpu_overhead = fabric.cpu_overhead
    merge = fold is _merge
    tracer = world.tracer
    nodes = comm._nodes
    children_desc = _children_desc_table(size)
    parents = _parents_table(size)
    entry, procs, accs = rec.entry, rec.procs, rec.acc
    arrival, value, wire, ovh_in = rec.arrival, rec.value, rec.wire, rec.ovh_in
    hops = total = inter_msgs = inter_bytes = 0
    while True:
        t = entry[v]
        acc = accs[v]
        abytes = wire[v]
        for c in children_desc[v]:
            a = arrival[c]
            if a > t:
                t = a
            t = t + ovh_in[c]
            acc = fold(acc, value[c])
            abytes += wire[c]
        accs[v] = acc
        if v == 0:
            compl = t
            result = acc if finalize is None else finalize(acc)
        else:
            parent = parents[v]
            vr = (v + root) % size
            src_node = nodes[vr]
            dst_node = nodes[(parent + root) % size]
            if not merge:
                abytes = payload_nbytes(acc)
            if dst_node == src_node:
                dt = intra_lat + abytes / intra_bw
            else:
                dt = inter_lat + abytes / inter_bw
                inter_msgs += 1
                inter_bytes += abytes
            if schedule is None:
                arrival[v] = t + ((t + dt) - t)
                o = ovh + ovh_pb * abytes
            else:
                arrival[v] = t + (schedule(abytes, src_node, dst_node, t) - t)
                o = cpu_overhead(abytes)
            if tracer is not None:
                _account_trace(tracer, abytes, src_node, dst_node,
                               comm._group[vr])
            hops += 1
            total += abytes
            value[v] = acc if merge else copy_payload(acc)
            wire[v] = abytes
            ovh_in[v] = o
            compl, result = t + ((t + o) - t), None
        rec.compl[v] = compl
        rec.served += 1
        p = procs[v]
        if p is not None:
            sim.schedule_at(compl, p._step, result)
        if rec.served == size:
            del world._fast_colls[key]
            break
        if v == 0:
            break
        rec.pending[parent] -= 1
        if rec.pending[parent] or entry[parent] is None:
            break
        v = parent
    if world.track_traffic and hops:
        world.stats.record_bulk(hops, total, inter_msgs, inter_bytes)


def fast_reduce(comm, payload: Any, op: Callable, root: int):
    """Closed-form binomial-tree reduction (message-level associativity)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return copy_payload(payload)
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _UpRec(size)
    now = sim.now
    rec.entry[v] = now
    rec.acc[v] = copy_payload(payload)
    if rec.pending[v]:
        return (yield Park(rec.procs, v))
    _up_cascade(comm, rec, key, root, size, v, op)
    t = rec.compl[v]
    result = rec.acc[v] if v == 0 else None
    if t > now:
        yield SleepUntil(t)
    return result


def _merge(acc: dict, part: dict) -> dict:
    acc.update(part)
    return acc


def fast_gather(comm, payload: Any, root: int):
    """Closed-form binomial-tree gather (subtree dicts, like message-level)."""
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    size = comm.size
    if size == 1:
        return [copy_payload(payload)]
    v = (comm.rank - root) % size
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _UpRec(size)
    now = sim.now
    rec.entry[v] = now
    rec.acc[v] = {comm.rank: copy_payload(payload)}
    rec.wire[v] = DEFAULT_OBJECT_BYTES + payload_nbytes(payload)
    # pending == 0 means every child already contributed — true for leaves
    # at entry, and for inner ranks (even the root) arriving last.
    if rec.pending[v]:
        # Resumed with the finalized rank-ordered list if we are the root.
        return (yield Park(rec.procs, v))
    _up_cascade(comm, rec, key, root, size, v, _merge, _ordered_list)
    t = rec.compl[v]
    result = _ordered_list(rec.acc[0]) if v == 0 else None
    if t > now:
        yield SleepUntil(t)
    return result


# --------------------------------------------------------------- scatter

class _ScatterRec:
    """Rendezvous record for the flat scatter (indexed by comm rank)."""

    __slots__ = ("entry", "procs", "arrival", "value", "ovh_in", "served")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.arrival: list = [None] * size
        self.value: list = [None] * size
        self.ovh_in: list = [0.0] * size
        self.served = 0


def fast_scatter(comm, payloads: list | None, root: int,
                 nbytes: list | None = None):
    """Closed-form flat scatter (root sends in destination-rank order).

    ``nbytes`` optionally overrides the modeled wire size per
    destination rank (skeleton programs send placeholder payloads).
    """
    world = comm.world
    sim = world.sim
    comm._coll_seq = seq = comm._coll_seq + 1
    key = (comm.cid, _COLL_TAG_BASE - seq)
    size = comm.size
    rank = comm.rank
    if rank != root:
        colls = world._fast_colls
        rec = colls.get(key)
        if rec is None:
            rec = colls[key] = _ScatterRec(size)
        now = sim.now
        arr = rec.arrival[rank]
        if arr is None:
            rec.entry[rank] = now
            return (yield Park(rec.procs, rank))
        value = rec.value[rank]
        t = max(now, arr) + rec.ovh_in[rank]
        rec.served += 1
        if rec.served == size:
            del world._fast_colls[key]
        if t > now:
            yield SleepUntil(t)
        return value
    if payloads is None or len(payloads) != size:
        raise CommMismatchError(
            f"scatter root needs {size} payloads, got "
            f"{None if payloads is None else len(payloads)}"
        )
    mine = copy_payload(payloads[root])
    if size == 1:
        return mine
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _ScatterRec(size)
    fabric = world.fabric
    schedule, costs = _pricing(fabric, hop_costs(fabric))
    intra_lat, intra_bw, inter_lat, inter_bw, ovh, ovh_pb = costs
    cpu_overhead = fabric.cpu_overhead
    tracer = world.tracer
    nodes = comm._nodes
    src_node = nodes[rank]
    now = sim.now
    t = now
    total = inter_msgs = inter_bytes = 0
    for dst in range(size):
        if dst == root:
            continue
        pbytes = (payload_nbytes(payloads[dst]) if nbytes is None
                  else nbytes[dst])
        dst_node = nodes[dst]
        if dst_node == src_node:
            dt = intra_lat + pbytes / intra_bw
        else:
            dt = inter_lat + pbytes / inter_bw
            inter_msgs += 1
            inter_bytes += pbytes
        if schedule is None:
            arr = t + ((t + dt) - t)
            o = ovh + ovh_pb * pbytes
        else:
            arr = t + (schedule(pbytes, src_node, dst_node, t) - t)
            o = cpu_overhead(pbytes)
        if tracer is not None:
            _account_trace(tracer, pbytes, src_node, dst_node,
                           comm._group[rank])
        total += pbytes
        t = t + ((t + o) - t)
        value = copy_payload(payloads[dst])
        p = rec.procs[dst]
        if p is not None:
            # Receiver already parked: its completion is computable now.
            rec.served += 1
            sim.schedule_at(max(rec.entry[dst], arr) + o, p._step, value)
        else:
            rec.arrival[dst] = arr
            rec.value[dst] = value
            rec.ovh_in[dst] = o
    if world.track_traffic:
        world.stats.record_bulk(size - 1, total, inter_msgs, inter_bytes)
    rec.served += 1
    if rec.served == size:
        del world._fast_colls[key]
    if t > now:
        yield SleepUntil(t)
    return mine


# ------------------------------------------- fused compositions (untraced)

class _FusedRec:
    """Rendezvous record for fused reduce+bcast compositions.

    Every member's completion depends on the root's folded value, which
    depends on every member's entry — so the whole collective is computed
    by whichever rank enters last, and every other rank parks exactly
    once.  Used only when no tracer is attached (the traced path keeps
    the reduce→bcast composition so nested spans match the message path).
    ``wire`` holds an allgather member's own share of its upward message.
    """

    __slots__ = ("entry", "procs", "acc", "wire", "remaining")

    def __init__(self, size: int):
        self.entry: list = [None] * size
        self.procs: list = [None] * size
        self.acc: list = [None] * size
        self.wire: list = [0] * size
        self.remaining = size


def _fused_times(comm, rec: _FusedRec, size: int, fold: Callable,
                 finalize: Callable | None):
    """Closed-form completion times/values of reduce(root 0) + bcast(root 0).

    Replays both phases with the exact recurrences of :func:`_up_cascade`
    and :func:`_bcast_cascade` (same fold order, same float round trips,
    same by-reference subtree dicts for allgather), one loop per phase
    in topological order.  Returns ``(compl, values)`` lists indexed by
    rank.
    """
    world = comm.world
    fabric = world.fabric
    schedule, costs = _pricing(fabric, hop_costs(fabric))
    intra_lat, intra_bw, inter_lat, inter_bw, ovh, ovh_pb = costs
    cpu_overhead = fabric.cpu_overhead
    merge = fold is _merge
    nodes = comm._nodes
    entry, acc, wire = rec.entry, rec.acc, rec.wire
    children_desc = _children_desc_table(size)
    parents = _parents_table(size)
    # ---- reduce phase: children (always > parent) fold deepest-first
    arrival = [0.0] * size
    ovh_in = [0.0] * size
    red_val: list = [None] * size
    red_compl = [0.0] * size
    total = inter_msgs = inter_bytes = 0
    for v in range(size - 1, -1, -1):
        t = entry[v]
        a = acc[v]
        abytes = wire[v]
        for c in children_desc[v]:
            x = arrival[c]
            if x > t:
                t = x
            t = t + ovh_in[c]
            a = fold(a, red_val[c])
            abytes += wire[c]
        if v == 0:
            red_compl[0] = t
            break
        if not merge:
            abytes = payload_nbytes(a)
        src_node = nodes[v]
        dst_node = nodes[parents[v]]
        if dst_node == src_node:
            dt = intra_lat + abytes / intra_bw
        else:
            dt = inter_lat + abytes / inter_bw
            inter_msgs += 1
            inter_bytes += abytes
        if schedule is None:
            arrival[v] = t + ((t + dt) - t)
            o = ovh + ovh_pb * abytes
        else:
            arrival[v] = t + (schedule(abytes, src_node, dst_node, t) - t)
            o = cpu_overhead(abytes)
        total += abytes
        red_val[v] = a if merge else copy_payload(a)
        wire[v] = abytes
        ovh_in[v] = o
        red_compl[v] = t + ((t + o) - t)
    # ---- bcast phase: entries are the reduce completions
    root_payload = a if finalize is None else finalize(a)
    nb = payload_nbytes(root_payload)
    overhead, dt_intra, dt_inter = _fixed_hop(fabric, schedule, costs, nb)
    children_tbl = _children_table(size)
    barr = [0.0] * size
    compl = [0.0] * size
    inter = 0
    for v in range(size):
        t = red_compl[v]
        if v:
            b = barr[v]
            if b > t:
                t = b
            t = t + overhead
        children = children_tbl[v]
        if children:
            src_node = nodes[v]
            for c in children:
                dst_node = nodes[c]
                if dst_node == src_node:
                    dt = dt_intra
                else:
                    dt = dt_inter
                    inter += 1
                if schedule is None:
                    barr[c] = t + ((t + dt) - t)
                else:
                    barr[c] = t + (schedule(nb, src_node, dst_node, t) - t)
                t = t + ((t + overhead) - t)
        compl[v] = t
    if world.track_traffic:
        stats = world.stats
        stats.record_bulk(size - 1, total, inter_msgs, inter_bytes)
        stats.record_bulk(size - 1, nb * (size - 1), inter, nb * inter)
    return compl, _bcast_values(root_payload, size, 0)


def _fast_fused(comm, payload, fold: Callable, finalize: Callable | None):
    """Shared driver for the fused all-to-all-rooted compositions."""
    world = comm.world
    sim = world.sim
    # Two tags — the composed reduce's and bcast's — keep tags lockstep.
    seq = comm._coll_seq + 1
    comm._coll_seq = seq + 1
    size = comm.size
    merge = fold is _merge
    if size == 1:
        mine = {comm.rank: copy_payload(payload)} if merge \
            else copy_payload(payload)
        return copy_payload(mine if finalize is None else finalize(mine))
    v = comm.rank  # both composed phases are rooted at rank 0
    key = (comm.cid, _COLL_TAG_BASE - seq)
    colls = world._fast_colls
    rec = colls.get(key)
    if rec is None:
        rec = colls[key] = _FusedRec(size)
    now = sim.now
    rec.entry[v] = now
    if merge:
        rec.acc[v] = {v: copy_payload(payload)}
        rec.wire[v] = DEFAULT_OBJECT_BYTES + payload_nbytes(payload)
    else:
        rec.acc[v] = copy_payload(payload)
    rec.remaining -= 1
    if rec.remaining:
        return (yield Park(rec.procs, v))
    del world._fast_colls[key]
    compl, values = _fused_times(comm, rec, size, fold, finalize)
    for u in range(size):
        p = rec.procs[u]
        if p is not None:
            sim.schedule_at(compl[u], p._step, values[u])
    t = compl[v]
    if t > now:
        yield SleepUntil(t)
    return values[v]


def _add(a, b):
    return a + b


def _ordered_list(acc: dict):
    return [acc[r] for r in range(len(acc))]


def fast_allreduce(comm, payload: Any, op: Callable):
    """Fused reduce+bcast: one park/wake per rank, identical virtual times."""
    return _fast_fused(comm, payload, op, None)


def fast_allgather(comm, payload: Any):
    """Fused gather+bcast of the rank-ordered list."""
    return _fast_fused(comm, payload, _merge, _ordered_list)


def fast_barrier(comm):
    """Fused barrier (reduce+bcast of an empty token, result discarded)."""
    yield from _fast_fused(comm, 0, _add, None)
    return None
