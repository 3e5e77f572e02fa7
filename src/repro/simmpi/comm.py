"""Communicators, point-to-point messaging, and collectives.

The :class:`World` owns the mailbox fabric shared by every communicator.
Every blocking operation is a generator to be driven with ``yield from``::

    def program(comm):
        if comm.rank == 0:
            yield from comm.send({"a": 7}, dest=1, tag=11)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0, tag=11)

Collectives are implemented *on top of* point-to-point transfers using
binomial trees (bcast/reduce) and flat fan-in/fan-out (gather/scatter), so
their virtual-time cost emerges from the same latency/bandwidth model as
ordinary messages — the log₂(P) critical-path behaviour of real MPI
collectives is reproduced rather than asserted.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.simmpi import fastcoll, fastp2p
from repro.simmpi.datatypes import copy_payload, payload_nbytes
from repro.simmpi.engine import Simulator, WaitEvent, acquire_delay
from repro.simmpi.errors import CommMismatchError, SimMPIError
from repro.simmpi.fabric import Fabric, UniformFabric

ANY_SOURCE = -1
ANY_TAG = -1

#: ``split_type`` constant mirroring ``MPI_COMM_TYPE_SHARED``: group ranks
#: that share a node (shared-memory domain).
COMM_TYPE_SHARED = "shared"

# Collective tags live below the valid point-to-point tag range; the
# constant lives in fastcoll so its inlined tag arithmetic stays lockstep
# with _next_coll_tag here.
_COLL_TAG_BASE = fastcoll._COLL_TAG_BASE


def _traced(cat: str):
    """Wrap a blocking communicator operation in an observability span.

    With no tracer attached (``world.tracer is None``, the default) the
    wrapper forwards the underlying generator untouched — zero extra
    frames on the hot path.  With a tracer, a driver generator opens the
    span when the caller starts driving the operation and closes it when
    the operation completes — exact virtual-time brackets.
    """

    def decorate(fn):
        op_name = fn.__name__

        def traced_drive(self, tracer, gen):
            wrank = self.world_rank()
            span = tracer.begin_span(
                op_name, cat=cat,
                pid=self.world.node_of(wrank), tid=wrank,
                t=self.world.sim.now, args={"comm": self.cid},
            )
            try:
                return (yield from gen)
            finally:
                tracer.end_span(span, t=self.world.sim.now)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer = self.world.tracer
            if tracer is None:
                return fn(self, *args, **kwargs)
            return traced_drive(self, tracer, fn(self, *args, **kwargs))

        return wrapper

    return decorate


def SUM(a, b):
    return a + b


def PROD(a, b):
    return a * b


def MAX(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def MIN(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b)


def _elementwise(op: Callable) -> Callable:
    """Lift a binary op to element-wise application over equal-length lists."""

    def lifted(a, b):
        return [op(x, y) for x, y in zip(a, b)]

    return lifted


@functools.lru_cache(maxsize=None)
def _binomial_tree(vrank: int, size: int) -> tuple[int | None, tuple[int, ...]]:
    """Binomial-tree neighbours for a virtual rank (root = 0), memoized.

    Children are vrank + m for every power of two m below the bit that
    links vrank to its parent (MPICH's binomial broadcast schedule).
    Returns ``(parent, children)`` with children in descending-mask order;
    the tuple is shared via the cache — never mutate it.
    """
    parent = None
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = vrank - mask
            break
        mask <<= 1
    children = []
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < size:
            children.append(child)
        mask >>= 1
    return parent, tuple(children)


class _Message:
    __slots__ = ("src", "tag", "payload", "nbytes", "arrival", "seq")

    def __init__(self, src: int, tag: int, payload: Any, nbytes: int,
                 arrival: float, seq: int):
        self.src = src
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.arrival = arrival
        self.seq = seq


class _PendingRecv:
    __slots__ = ("source", "tag", "event", "seq")

    def __init__(self, source: int, tag: int, event: Any, seq: int):
        self.source = source
        self.tag = tag
        self.event = event  # SimEvent resolved with the matched _Message
        self.seq = seq


class _Mailbox:
    """Per-(comm, dest) store of arrived messages and posted receives.

    The common case — an exact ``(source, tag)`` receive matching an exact
    delivery — is O(1) through per-key FIFO indexes.  Wildcard receives
    (``ANY_SOURCE`` and/or ``ANY_TAG``) live in a separate post-ordered
    list; matching arbitrates between the two by global post sequence
    number, so mixing wildcard and exact receives keeps MPI's
    first-posted-first-matched semantics deterministically — the indexed
    layout never reorders a match relative to the old linear scan.
    """

    __slots__ = ("messages", "_msgs_by_key", "_recvs_by_key", "_recvs_any",
                 "probe_waiters")

    def __init__(self):
        #: seq -> message, in delivery order (dicts preserve insertion)
        self.messages: dict[int, _Message] = {}
        self._msgs_by_key: dict[tuple[int, int], deque] = {}
        self._recvs_by_key: dict[tuple[int, int], deque] = {}
        self._recvs_any: list[_PendingRecv] = []
        self.probe_waiters: list = []

    @staticmethod
    def _matches(msg: _Message, source: int, tag: int) -> bool:
        return (source == ANY_SOURCE or msg.src == source) and (
            tag == ANY_TAG or msg.tag == tag
        )

    def deliver(self, msg: _Message) -> None:
        # Candidate exact receive: FIFO head of this (src, tag) bucket.
        key = (msg.src, msg.tag)
        exact = self._recvs_by_key.get(key)
        cand = exact[0] if exact else None
        if self._recvs_any:
            # First matching wildcard receive, in post order; the earlier
            # *posted* of the two candidates wins (seq = global post order).
            for pending in self._recvs_any:
                if self._matches(msg, pending.source, pending.tag):
                    if cand is None or pending.seq < cand.seq:
                        cand = pending
                    break
        if cand is not None:
            if exact is not None and exact and cand is exact[0]:
                exact.popleft()
                if not exact:
                    del self._recvs_by_key[key]
            else:
                self._recvs_any.remove(cand)
            cand.event.set(msg)
            self._wake_probes()
            return
        self.messages[msg.seq] = msg
        bucket = self._msgs_by_key.get(key)
        if bucket is None:
            bucket = self._msgs_by_key[key] = deque()
        bucket.append(msg.seq)
        self._wake_probes()

    def _wake_probes(self) -> None:
        # Waiters are woken in FIFO append order so repeated probes observe
        # deliveries in a deterministic sequence.
        if not self.probe_waiters:
            return
        waiters, self.probe_waiters = self.probe_waiters, []
        for ev in waiters:
            ev.set(None)

    def post_recv(self, pending: _PendingRecv) -> None:
        if pending.source != ANY_SOURCE and pending.tag != ANY_TAG:
            key = (pending.source, pending.tag)
            seqs = self._msgs_by_key.get(key)
            if seqs:
                seq = seqs.popleft()
                if not seqs:
                    del self._msgs_by_key[key]
                pending.event.set(self.messages.pop(seq))
                return
            bucket = self._recvs_by_key.get(key)
            if bucket is None:
                bucket = self._recvs_by_key[key] = deque()
            bucket.append(pending)
            return
        # Wildcard receive: earliest buffered message in delivery order.
        for seq, msg in self.messages.items():
            if self._matches(msg, pending.source, pending.tag):
                del self.messages[seq]
                bucket = self._msgs_by_key[(msg.src, msg.tag)]
                # seq is the oldest delivery of its key, hence the head.
                bucket.remove(seq)
                if not bucket:
                    del self._msgs_by_key[(msg.src, msg.tag)]
                pending.event.set(msg)
                return
        self._recvs_any.append(pending)


class Request:
    """Handle for a non-blocking operation (``isend``/``irecv``)."""

    __slots__ = ("_event", "_post")

    def __init__(self, event, post: Callable[[Any], Any] | None = None):
        self._event = event
        self._post = post

    @property
    def complete(self) -> bool:
        return self._event.is_set

    def wait(self):
        """``value = yield from req.wait()`` — block until completion."""
        value = yield WaitEvent(self._event)
        if self._post is not None:
            value = self._post(value)
        return value

    def test(self):
        """Non-blocking completion probe; returns ``(done, value_or_None)``."""
        if not self._event.is_set:
            return False, None
        value = self._event.value
        if self._post is not None:
            value = self._post(value)
        return True, value


class World:
    """Shared runtime state: mailboxes, fabric, rank→node map, comm registry."""

    def __init__(
        self,
        sim: Simulator,
        size: int,
        fabric: Fabric | None = None,
        node_of: Callable[[int], int] | None = None,
        track_traffic: bool = True,
    ):
        if size <= 0:
            raise ValueError(f"world size must be positive, got {size}")
        self.sim = sim
        self.size = size
        self.fabric = fabric if fabric is not None else UniformFabric()
        self.node_of = node_of if node_of is not None else (lambda rank: 0)
        self._mailboxes: dict[tuple[int, int], _Mailbox] = {}
        self._comm_ids = itertools.count()
        self._split_registry: dict[tuple, dict] = {}
        self._msg_seq = itertools.count()
        #: rendezvous records of in-flight fast-path collectives, keyed by
        #: (cid, tag); see :mod:`repro.simmpi.fastcoll`
        self._fast_colls: dict[tuple, Any] = {}
        #: in-flight fast-path p2p flows, keyed (cid, dst) -> (src, tag) ->
        #: flow record; see :mod:`repro.simmpi.fastp2p`
        self._flows: dict[tuple, dict] = {}
        #: (cid, rank) pairs whose receives went through a wildcard-capable
        #: operation — their traffic stays on the message-level path
        self._p2p_degraded: set[tuple] = set()
        self.track_traffic = track_traffic
        #: aggregate traffic statistics (message count / bytes, split by scope)
        self.stats = TrafficStats()
        #: observability hook shared by every communicator of this world
        #: (see :mod:`repro.obs.tracer`); ``None`` disables span recording
        self.tracer = None
        #: runtime protocol checker (see :mod:`repro.simmpi.sanitizer`);
        #: inherited from the simulator, ``None`` when sanitizing is off
        self.sanitizer = sim.sanitizer
        if self.sanitizer is not None:
            self.sanitizer.attach_world(self)

    def comm_world(self) -> "list[Communicator]":
        """Build COMM_WORLD: one communicator handle per rank."""
        cid = next(self._comm_ids)
        ranks = list(range(self.size))
        return [
            Communicator(self, cid, rank=i, group=ranks, parent=None)
            for i in range(self.size)
        ]

    def _mailbox(self, cid: int, dst: int) -> _Mailbox:
        key = (cid, dst)
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes[key] = _Mailbox()
        return box


@dataclass
class TrafficStats:
    """Network accounting: the paper reports message counts and volume."""

    messages: int = 0
    bytes: int = 0
    inter_node_messages: int = 0
    inter_node_bytes: int = 0

    def record(self, nbytes: int, inter_node: bool) -> None:
        self.messages += 1
        self.bytes += nbytes
        if inter_node:
            self.inter_node_messages += 1
            self.inter_node_bytes += nbytes

    def record_bulk(self, messages: int, nbytes: int,
                    inter_node_messages: int, inter_node_bytes: int) -> None:
        """Aggregate form of :meth:`record` for a whole collective.

        Counter sums are order-free exact integers, so recording a
        collective's hops in one call is bit-identical to per-hop
        :meth:`record` calls (the fast engines' hop loops use this).
        """
        self.messages += messages
        self.bytes += nbytes
        self.inter_node_messages += inter_node_messages
        self.inter_node_bytes += inter_node_bytes

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "inter_node_messages": self.inter_node_messages,
            "inter_node_bytes": self.inter_node_bytes,
        }


class Communicator:
    """One rank's handle on a group of ranks (mirrors ``MPI_Comm``).

    ``rank``/``size`` follow MPI semantics: ``rank`` is this process's index
    within ``group``; messages address peers by group-local rank.
    """

    def __init__(
        self,
        world: World,
        cid: int,
        rank: int,
        group: list[int],
        parent: "Communicator | None",
    ):
        self.world = world
        self.cid = cid
        self.rank = rank
        self._group = list(group)  # group[i] = world rank of comm rank i
        #: group size (plain attribute — hot on the collective fast path)
        self.size = len(self._group)
        #: node of each comm rank, precomputed (placement is immutable)
        self._nodes = [world.node_of(g) for g in self._group]
        self.parent = parent
        self._coll_seq = 0
        self._split_seq = 0
        #: collective-call counter for the runtime sanitizer's cross-rank
        #: sequence check (advanced only while sanitizing)
        self._san_seq = 0

    # ------------------------------------------------------------------ info
    def world_rank(self, rank: int | None = None) -> int:
        return self._group[self.rank if rank is None else rank]

    def node_of(self, rank: int) -> int:
        return self._nodes[rank]

    def group(self) -> list[int]:
        return list(self._group)

    def _check_rank(self, rank: int, what: str) -> None:
        if not (0 <= rank < self.size):
            raise SimMPIError(f"{what} rank {rank} out of range [0, {self.size})")

    # ----------------------------------------------------------------- p2p
    def _flow_send_ok(self, dest: int, tag: int) -> bool:
        """True when a send may ride a flow record (see
        :mod:`repro.simmpi.fastp2p`): fast path on, deterministic tag, no
        observers attached, destination not degraded to the mailbox."""
        world = self.world
        return (world.sim.fast_p2p and tag >= 0
                and world.tracer is None and world.sanitizer is None
                and (self.cid, dest) not in world._p2p_degraded)

    def isend(self, payload: Any, dest: int, tag: int = 0,
              nbytes: int | None = None) -> Request:
        """Post a non-blocking send; the message is buffered eagerly.

        ``nbytes`` overrides the payload's measured size (used by symbolic
        workloads that ship placeholder buffers with annotated wire sizes).
        With :attr:`Simulator.fast_p2p` the message rides a flow record
        instead of the mailbox (identical Request timing); the message
        path below is the bit-identical reference.
        """
        self._check_rank(dest, "destination")
        world = self.world
        if self._flow_send_ok(dest, tag):
            return fastp2p.fast_isend(self, payload, dest, tag, nbytes)
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        src_node = self.node_of(self.rank)
        dst_node = self.node_of(dest)
        # Stateful fabrics (NIC injection queues) schedule the arrival
        # themselves; plain fabrics expose only a transfer time.
        schedule = getattr(world.fabric, "transfer_schedule", None)
        if schedule is not None:
            arrival = schedule(size, src_node, dst_node, world.sim.now)
        else:
            arrival = world.sim.now + world.fabric.transfer_time(
                size, src_node, dst_node
            )
        if world.track_traffic:
            world.stats.record(size, src_node != dst_node)
        if world.tracer is not None:
            wrank = self.world_rank()
            world.tracer.metrics.inc("comm.messages", 1,
                                     rank=wrank, node=src_node)
            world.tracer.metrics.inc("comm.bytes", size,
                                     rank=wrank, node=src_node)
            if src_node != dst_node:
                world.tracer.metrics.inc("comm.inter_node_bytes", size,
                                         rank=wrank, node=src_node)
        msg = _Message(
            src=self.rank,
            tag=tag,
            payload=copy_payload(payload),
            nbytes=size,
            arrival=arrival,
            seq=next(world._msg_seq),
        )
        box = world._mailbox(self.cid, dest)
        world.sim.call_at(msg.arrival, box.deliver, msg)
        done = world.sim.event(name="isend")
        # Eager protocol: the send completes once the CPU overhead elapses.
        world.sim.call_at(
            world.sim.now + world.fabric.cpu_overhead(size), done.set, None
        )
        return Request(done)

    @_traced("p2p")
    def send(self, payload: Any, dest: int, tag: int = 0,
             nbytes: int | None = None):
        """Blocking send (eager): returns after the CPU send overhead.

        Dispatches to the closed-form flow path under
        :attr:`Simulator.fast_p2p`; the message-level path is the
        bit-identical reference.
        """
        self._check_rank(dest, "destination")
        world = self.world
        if self._flow_send_ok(dest, tag):
            return fastp2p.fast_send(self, payload, dest, tag, nbytes)
        return self._send_message(payload, dest, tag, nbytes)

    def _send_message(self, payload, dest, tag, nbytes):
        req = self.isend(payload, dest, tag=tag, nbytes=nbytes)
        yield from req.wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a non-blocking receive; ``wait()`` returns the payload."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        world = self.world
        if world.sim.fast_p2p:
            # Pending-receive bookkeeping lives in the mailbox: flush this
            # rank's flows into it and stay message-level from here on.
            fastp2p.degrade(self)
        ev = world.sim.event(name="irecv")
        box = world._mailbox(self.cid, self.rank)
        box.post_recv(_PendingRecv(source=source, tag=tag, event=ev,
                                   seq=next(world._msg_seq)))
        return Request(ev, post=lambda msg: msg.payload)

    @_traced("p2p")
    def sendrecv(self, payload: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        """Combined send+receive (deadlock-free pairwise exchange)."""
        req = self.isend(payload, dest, tag=sendtag)
        received = yield from self.recv(source=source, tag=recvtag)
        yield from req.wait()
        return received

    @_traced("p2p")
    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking probe: wait until a matching message has arrived and
        return its envelope ``{"source", "tag", "nbytes"}`` without
        consuming it."""
        world = self.world
        box = world._mailbox(self.cid, self.rank)
        while True:
            info = self.iprobe(source=source, tag=tag)
            if info is not None:
                return info
            # Wait for the next delivery to this mailbox.
            ev = world.sim.event(name="probe")
            box.probe_waiters.append(ev)
            yield WaitEvent(ev)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking probe; returns the envelope or ``None``."""
        if self.world.sim.fast_p2p:
            # Probing inspects the mailbox, so in-flight flows must land
            # there first (and stay there — degradation is sticky).
            fastp2p.degrade(self)
        box = self.world._mailbox(self.cid, self.rank)
        for msg in box.messages.values():
            if _Mailbox._matches(msg, source, tag):
                return {"source": msg.src, "tag": msg.tag,
                        "nbytes": msg.nbytes}
        return None

    @staticmethod
    def waitall(requests: list[Request]):
        """Complete every request; returns their values in order."""
        out = []
        for req in requests:
            value = yield from req.wait()
            out.append(value)
        return out

    def waitany(self, requests: list[Request]):
        """Return ``(index, value)`` of the first completed request."""
        if not requests:
            raise SimMPIError("waitany on an empty request list")
        for i, req in enumerate(requests):
            done, value = req.test()
            if done:
                return i, value
        # Merge the pending completion events into one.
        merged = self.world.sim.event(name=f"waitany:{self.cid}:{self.rank}")

        def _notify(_value):
            if not merged.is_set:
                merged.set(None)

        for req in requests:
            req._event.add_callback(_notify)
        yield WaitEvent(merged)
        for i, req in enumerate(requests):
            done, value = req.test()
            if done:
                return i, value
        raise SimMPIError("waitany woke without a completed request")

    @_traced("p2p")
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             with_status: bool = False):
        """Blocking receive; returns the payload (or ``(payload, status)``).

        An exact ``(source, tag)`` receive dispatches to the closed-form
        flow path under :attr:`Simulator.fast_p2p`; wildcards degrade this
        rank to the bit-identical message-level path below (ANY_SOURCE
        matching needs the mailbox's cross-flow arbitration).
        """
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        world = self.world
        if world.sim.fast_p2p:
            if (source != ANY_SOURCE and tag >= 0
                    and world.tracer is None and world.sanitizer is None
                    and (self.cid, self.rank) not in world._p2p_degraded):
                return fastp2p.fast_recv(self, source, tag, with_status)
            if tag >= 0 or tag == ANY_TAG:
                fastp2p.degrade(self)
        return self._recv_message(source, tag, with_status)

    def _recv_message(self, source, tag, with_status):
        world = self.world
        ev = world.sim.event(name="recv")
        box = world._mailbox(self.cid, self.rank)
        box.post_recv(_PendingRecv(source=source, tag=tag, event=ev,
                                   seq=next(world._msg_seq)))
        msg: _Message = yield WaitEvent(ev)
        overhead = world.fabric.cpu_overhead(msg.nbytes)
        if overhead > 0:
            yield acquire_delay(overhead)
        if with_status:
            return msg.payload, {"source": msg.src, "tag": msg.tag,
                                 "nbytes": msg.nbytes}
        return msg.payload

    # ------------------------------------------------------------- pipeline
    def pipeline(self, steps):
        """Run a chain of data-dependent collective stages.

        ``steps`` is a sequence of stage tuples, identical in kinds and
        roots on every rank:

        ``("gather", root, payload)``
            every rank contributes ``payload``; the root's stage result is
            the rank-ordered list, everyone else's ``None``;
        ``("bcast", root, producer)``
            the root calls ``producer(prev)`` — ``prev`` being its result
            of the previous stage (``None`` on the first) — and broadcasts
            the returned payload; non-root ranks pass ``producer=None``.
            An optional fourth element overrides the modeled wire size in
            bytes (skeleton programs broadcast placeholder payloads).

        Returns this rank's list of per-stage results.  The reference
        path below simply drives the stages one collective at a time
        (each dispatching fast/message as usual, with its own span and
        sanitizer entry); under :attr:`Simulator.fast_p2p` on untraced,
        unsanitized worlds the whole chain fuses into a single rendezvous
        with one park/wake per rank and bit-identical virtual times (see
        :func:`repro.simmpi.fastp2p.fast_pipeline`) — the engine IMe's
        per-level gather→bcast→bcast exchange registers on.
        """
        world = self.world
        if (world.sim.fast_p2p and world.tracer is None
                and world.sanitizer is None):
            return fastp2p.fast_pipeline(self, steps)
        return self._pipeline_compose(steps)

    def _pipeline_compose(self, steps):
        out: list = []
        prev = None
        for st in steps:
            kind, root = st[0], st[1]
            if kind == "gather":
                res = yield from self.gather(st[2], root=root)
            elif kind == "bcast":
                payload = None
                if self.rank == root and st[2] is not None:
                    payload = st[2](prev)
                res = yield from self.bcast(
                    payload, root=root,
                    nbytes=st[3] if len(st) > 3 else None)
            else:
                raise SimMPIError(f"unknown pipeline stage kind {kind!r}")
            out.append(res)
            prev = res
        return out

    # ----------------------------------------------------------- collectives
    def _next_coll_tag(self) -> int:
        """Collective calls consume one internal tag, in program order.

        All ranks of a communicator execute the same sequence of collectives
        (an MPI requirement), so the per-rank counter yields matching tags.
        """
        self._coll_seq += 1
        return _COLL_TAG_BASE - self._coll_seq

    @staticmethod
    def _binomial_parent_children(vrank: int, size: int) -> tuple[int | None, list[int]]:
        """Binomial-tree neighbours for a virtual rank (root = 0)."""
        return _binomial_tree(vrank, size)

    def _coll_span(self, op_name: str, gen):
        """Drive a collective generator inside an observability span.

        Only reached with a tracer attached; the hot dispatchers below
        hand the underlying generator straight to the caller otherwise
        (same span brackets as :func:`_traced`, minus the per-call
        wrapper on the untraced path).
        """
        tracer = self.world.tracer
        wrank = self.world_rank()
        span = tracer.begin_span(
            op_name, cat="coll",
            pid=self.world.node_of(wrank), tid=wrank,
            t=self.world.sim.now, args={"comm": self.cid},
        )
        try:
            return (yield from gen)
        finally:
            tracer.end_span(span, t=self.world.sim.now)

    def bcast(self, payload: Any, root: int = 0, nbytes: int | None = None):
        """Binomial-tree broadcast; every rank returns the payload.

        With :attr:`Simulator.fast_collectives` the completion times are
        computed in closed form from the same cost model (see
        :mod:`repro.simmpi.fastcoll`); the message-level tree below is the
        validation reference.
        """
        if not 0 <= root < self.size:
            raise SimMPIError(f"root rank {root} out of range [0, {self.size})")
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "bcast", root)
        gen = (fastcoll.fast_bcast(self, payload, root, nbytes)
               if world.sim.fast_collectives
               else self._bcast_message(payload, root, nbytes))
        if world.tracer is None:
            return gen
        return self._coll_span("bcast", gen)

    def _bcast_message(self, payload, root, nbytes):
        tag = self._next_coll_tag()
        size = self.size
        if size == 1:
            return copy_payload(payload)
        vrank = (self.rank - root) % size
        parent, children = self._binomial_parent_children(vrank, size)
        if parent is not None:
            payload = yield from self.recv(source=(parent + root) % size, tag=tag)
        data_bytes = nbytes
        for child in children:
            yield from self.send(payload, dest=(child + root) % size, tag=tag,
                                 nbytes=data_bytes)
        return payload

    def gather(self, payload: Any, root: int = 0):
        """Binomial-tree gather to root (MPICH's short-message schedule).

        Intermediate ranks aggregate their subtree's contributions and
        forward them upward, so the critical path is log₂(P) transfers.
        Root returns the rank-ordered list; everyone else returns None.
        """
        if not 0 <= root < self.size:
            raise SimMPIError(f"root rank {root} out of range [0, {self.size})")
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "gather", root)
        gen = (fastcoll.fast_gather(self, payload, root)
               if world.sim.fast_collectives
               else self._gather_message(payload, root))
        if world.tracer is None:
            return gen
        return self._coll_span("gather", gen)

    def _gather_message(self, payload, root):
        tag = self._next_coll_tag()
        size = self.size
        acc: dict[int, Any] = {self.rank: copy_payload(payload)}
        if size == 1:
            return [acc[self.rank]]
        vrank = (self.rank - root) % size
        parent, children = self._binomial_parent_children(vrank, size)
        for child in sorted(children, reverse=True):
            part = yield from self.recv(source=(child + root) % size, tag=tag)
            acc.update(part)
        if parent is not None:
            yield from self.send(acc, dest=(parent + root) % size, tag=tag)
            return None
        return [acc[r] for r in range(size)]

    def scatter(self, payloads: list | None, root: int = 0,
                nbytes: list | None = None):
        """Flat scatter from root; every rank returns its element.

        ``nbytes`` optionally overrides the modeled wire size per
        destination rank (root-only; skeleton programs scatter
        placeholder payloads).
        """
        if not 0 <= root < self.size:
            raise SimMPIError(f"root rank {root} out of range [0, {self.size})")
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "scatter", root)
        gen = (fastcoll.fast_scatter(self, payloads, root, nbytes)
               if world.sim.fast_collectives
               else self._scatter_message(payloads, root, nbytes))
        if world.tracer is None:
            return gen
        return self._coll_span("scatter", gen)

    def _scatter_message(self, payloads, root, nbytes=None):
        tag = self._next_coll_tag()
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise CommMismatchError(
                    f"scatter root needs {self.size} payloads, got "
                    f"{None if payloads is None else len(payloads)}"
                )
            mine = copy_payload(payloads[root])
            for dst in range(self.size):
                if dst != root:
                    yield from self.send(
                        payloads[dst], dest=dst, tag=tag,
                        nbytes=None if nbytes is None else nbytes[dst])
            return mine
        item = yield from self.recv(source=root, tag=tag)
        return item

    def reduce(self, payload: Any, op: Callable = SUM, root: int = 0):
        """Binomial-tree reduction to root (op must be associative)."""
        if not 0 <= root < self.size:
            raise SimMPIError(f"root rank {root} out of range [0, {self.size})")
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "reduce", root)
        gen = (fastcoll.fast_reduce(self, payload, op, root)
               if world.sim.fast_collectives
               else self._reduce_message(payload, op, root))
        if world.tracer is None:
            return gen
        return self._coll_span("reduce", gen)

    def _reduce_message(self, payload, op, root):
        tag = self._next_coll_tag()
        size = self.size
        acc = copy_payload(payload)
        if size == 1:
            return acc
        vrank = (self.rank - root) % size
        parent, children = self._binomial_parent_children(vrank, size)
        # Children are combined deepest-first so every rank receives from all
        # of its binomial children before forwarding to its parent.
        for child in sorted(children, reverse=True):
            item = yield from self.recv(source=(child + root) % size, tag=tag)
            acc = op(acc, item)
        if parent is not None:
            yield from self.send(acc, dest=(parent + root) % size, tag=tag)
            return None
        return acc

    def allreduce(self, payload: Any, op: Callable = SUM):
        # Untraced fast path: fused reduce+bcast — one suspension per rank,
        # bit-identical virtual times.  Traced (or message-level) runs keep
        # the composition so nested reduce/bcast spans appear as usual.
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "allreduce")
        if world.tracer is None:
            if world.sim.fast_collectives:
                return fastcoll.fast_allreduce(self, payload, op)
            return self._allreduce_compose(payload, op)
        return self._coll_span("allreduce", self._allreduce_compose(payload, op))

    def _allreduce_compose(self, payload, op):
        acc = yield from self.reduce(payload, op=op, root=0)
        acc = yield from self.bcast(acc, root=0)
        return acc

    def allgather(self, payload: Any):
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "allgather")
        if world.tracer is None:
            if world.sim.fast_collectives:
                return fastcoll.fast_allgather(self, payload)
            return self._allgather_compose(payload)
        return self._coll_span("allgather", self._allgather_compose(payload))

    def _allgather_compose(self, payload):
        gathered = yield from self.gather(payload, root=0)
        gathered = yield from self.bcast(gathered, root=0)
        return gathered

    @_traced("coll")
    def gatherv(self, payload: Any, root: int = 0):
        """Variable-size gather: like :meth:`gather` (payloads may differ
        arbitrarily in size/shape per rank)."""
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "gatherv", root)
        out = yield from self.gather(payload, root=root)
        return out

    @_traced("coll")
    def scatterv(self, payloads: list | None, root: int = 0):
        """Variable-size scatter (per-rank payloads of any size)."""
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "scatterv", root)
        out = yield from self.scatter(payloads, root=root)
        return out

    @_traced("coll")
    def reduce_scatter(self, payloads: list, op: Callable = SUM):
        """Element-wise reduce over the per-destination payload lists, then
        scatter: rank ``i`` receives ``op``-reduction of every rank's
        ``payloads[i]``."""
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "reduce_scatter")
        if len(payloads) != self.size:
            raise CommMismatchError(
                f"reduce_scatter needs {self.size} payloads, got "
                f"{len(payloads)}"
            )
        reduced = yield from self.reduce(payloads, op=_elementwise(op), root=0)
        mine = yield from self.scatter(reduced, root=0)
        return mine

    @_traced("coll")
    def scan(self, payload: Any, op: Callable = SUM):
        """Inclusive prefix reduction: rank i gets op(v₀, …, vᵢ)."""
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "scan")
        gathered = yield from self.allgather(payload)
        acc = copy_payload(gathered[0])
        for item in gathered[1:self.rank + 1]:
            acc = op(acc, item)
        return acc

    @_traced("coll")
    def alltoall(self, payloads: list):
        """Pairwise exchange; returns the list indexed by source rank."""
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "alltoall")
        if len(payloads) != self.size:
            raise CommMismatchError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        tag = self._next_coll_tag()
        out: list[Any] = [None] * self.size
        out[self.rank] = copy_payload(payloads[self.rank])
        reqs = []
        for dst in range(self.size):
            if dst != self.rank:
                reqs.append(self.isend(payloads[dst], dest=dst, tag=tag))
        for _ in range(self.size - 1):
            item, status = yield from self.recv(tag=tag, with_status=True)
            out[status["source"]] = item
        for req in reqs:
            yield from req.wait()
        return out

    def barrier(self):
        """Synchronize all ranks (reduce + bcast of an empty token)."""
        world = self.world
        if world.sanitizer is not None:
            world.sanitizer.on_collective(self, "barrier")
        if world.tracer is None:
            if world.sim.fast_collectives:
                return fastcoll.fast_barrier(self)
            return self._barrier_compose()
        return self._coll_span("barrier", self._barrier_compose())

    def _barrier_compose(self):
        token = yield from self.reduce(0, op=SUM, root=0)
        yield from self.bcast(token, root=0)

    # ----------------------------------------------------------------- split
    @_traced("coll")
    def split(self, color: int, key: int | None = None) -> "Iterable":
        """Split into sub-communicators by color, ordered by (key, rank).

        Mirrors ``MPI_Comm_split``.  Returns the new communicator handle for
        this rank (``None`` if ``color`` is ``None``, the analogue of
        ``MPI_UNDEFINED``).
        """
        if key is None:
            key = self.rank
        if self.world.sanitizer is not None:
            self.world.sanitizer.on_collective(self, "split")
        entries = yield from self.allgather((color, key, self.rank))
        self._split_seq += 1
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        group = [self._group[r] for (_k, r) in members]
        new_rank = [r for (_k, r) in members].index(self.rank)
        reg_key = (self.cid, self._split_seq, color)
        shared = self.world._split_registry.get(reg_key)
        if shared is None:
            shared = {"cid": next(self.world._comm_ids)}
            self.world._split_registry[reg_key] = shared
        return Communicator(
            self.world, shared["cid"], rank=new_rank, group=group, parent=self
        )

    @_traced("coll")
    def split_type(self, split_type: str = COMM_TYPE_SHARED,
                   key: int | None = None):
        """``MPI_Comm_split_type``: group ranks sharing a node.

        This is the primitive the paper's monitoring framework uses to build
        per-node communicators (``MPI_COMM_TYPE_SHARED``).
        """
        if split_type != COMM_TYPE_SHARED:
            raise SimMPIError(f"unsupported split type: {split_type!r}")
        color = self.node_of(self.rank)
        comm = yield from self.split(color=color, key=key)
        return comm

    @_traced("coll")
    def dup(self):
        """Duplicate the communicator (collective)."""
        comm = yield from self.split(color=0, key=self.rank)
        return comm

    def __repr__(self) -> str:
        return (f"<Communicator cid={self.cid} rank={self.rank}/{self.size}>")
