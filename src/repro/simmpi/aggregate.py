"""Per-level aggregate closed forms: vectorized binomial-tree evaluators.

The fast engines (:mod:`repro.simmpi.fastcoll`, :mod:`repro.simmpi.fastp2p`)
replaced per-*message* simulation with per-*edge* closed forms — but the
edges were still walked one at a time in Python, so one collective over
``p`` ranks cost ``O(p log p)`` interpreted iterations.  At paper scale
(IMe emits one gather→bcast→bcast pipeline per level, n levels deep, and
n reaches 34560 on up to 1296 ranks) that Python loop *is* the wall
clock.

This module evaluates a whole collective's completion times in
``O(log^2 p)`` numpy calls: virtual ranks are grouped into *waves* by
binomial-tree depth (popcount of the virtual rank), each wave's readiness
``max(entry, arrival) + cpu_overhead`` is one elementwise evaluation, and
the per-parent send chains advance one child *slot* at a time — every
parent in a wave sends to its j-th child in one vectorized step.  The
evaluation order differs from the scalar cascade, but every individual
value is produced by the **same dataflow and the same float expressions**
(including the ``t + ((t + dt) - t)`` scheduling round trips), so the
results are bit-identical, not merely close; only order-free integer
traffic sums are aggregated.

Vectorization is only valid when the per-hop cost is a pure function of
``(nbytes, src_node, dst_node)`` — the same condition as the fast-path
equivalence contract itself.  :func:`vector_env` returns the extracted
fabric constants when that holds (:class:`~repro.simmpi.fabric.UniformFabric`,
or :class:`~repro.cluster.network.ClusterFabric` with ``jitter_frac == 0``
and no injection serialization; the jitter multiplier is exactly ``1.0``
there, and ``x * 1.0`` is bitwise ``x``) and ``None`` otherwise, in which
case callers keep the scalar per-edge walk.  ``AGGREGATE_MIN_SIZE`` gates
the numpy dispatch overhead away from small communicators; tests lower it
to force the vector path at toy sizes.

Two lanes share that gate.  Fused allreduce/allgather
(:func:`repro.simmpi.fastcoll._fused_times_vec`) evaluates both of its
phases with the wave forms below.  A fused pipeline — IMe's per-level
gather→bcast→bcast — does not: its stages run as flat Python loops over
the same :class:`VecEnv` constants
(:func:`repro.simmpi.fastp2p._gather_stage_flat`,
:func:`repro.simmpi.fastp2p._bcast_stage_flat`), which measured faster
per stage at every Table 1 rank count except the 1296-rank gather
(``docs/performance.md`` has the per-stage table).  :func:`gather_sizes`
has no engine caller; it stays as the closed-form statement of a
gather's wire sizes, which the stage tests check the loop's traffic
against.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.memo import register_cache
from repro.simmpi.fabric import UniformFabric

#: smallest communicator size worth the numpy dispatch overhead; module
#: attribute (not a default argument) so tests can lower it to force the
#: vectorized path on toy communicators.
AGGREGATE_MIN_SIZE = 32


class VecEnv:
    """Stateless fabric constants, extracted once per collective."""

    __slots__ = ("intra_lat", "intra_bw", "inter_lat", "inter_bw",
                 "ovh", "ovh_pb")

    def __init__(self, intra_lat, intra_bw, inter_lat, inter_bw, ovh, ovh_pb):
        self.intra_lat = intra_lat
        self.intra_bw = intra_bw
        self.inter_lat = inter_lat
        self.inter_bw = inter_bw
        self.ovh = ovh
        self.ovh_pb = ovh_pb


def vector_env(world) -> VecEnv | None:
    """Extract vectorizable fabric constants, or ``None``.

    ``None`` means the fabric is stateful (seeded jitter consumes RNG
    draws in hop order, NIC serialization tracks per-node free times) —
    hops must then be modeled one at a time, in the scalar cascade
    order, to stay deterministic per seed.
    """
    fabric = world.fabric
    if isinstance(fabric, UniformFabric):
        return VecEnv(fabric.intra_latency, fabric.intra_bandwidth,
                      fabric.latency, fabric.bandwidth,
                      fabric.overhead, fabric.overhead_per_byte)
    jitter = getattr(fabric, "jitter_frac", None)
    if jitter == 0.0 and not getattr(fabric, "serialize_injection", True):
        p = fabric.params
        return VecEnv(p.intra_latency, p.intra_bandwidth,
                      p.inter_latency, p.inter_bandwidth,
                      p.cpu_overhead, p.cpu_overhead_per_byte)
    return None


@functools.lru_cache(maxsize=None)
def _wave_tables(size: int):
    """Per-size index tables for wave-parallel tree evaluation.

    Returns ``(parent, waves)`` where ``parent[v]`` is the binomial
    parent of virtual rank ``v`` and ``waves[d]`` is ``(vr, slots)``:
    the virtual ranks at tree depth ``d`` (``popcount(v)``), and for
    each child slot ``j`` the pair ``(idx, child)`` — indices into
    ``vr`` of the parents that have a ``j``-th child, and those
    children's virtual ranks.  Slot order equals the scalar engines'
    child order (descending sub-tree mask, which for binomial trees is
    also the deepest-subtree-first fold order), so slot-at-a-time
    evaluation reproduces the per-parent send/fold sequences exactly.
    """
    from repro.simmpi.fastcoll import _children_table, _tree

    children = _children_table(size)
    parent = np.zeros(size, dtype=np.intp)
    for v in range(1, size):
        parent[v] = _tree(v, size)[0]
    depth = [v.bit_count() for v in range(size)]
    waves = []
    for d in range(max(depth) + 1):
        vr = np.array([v for v in range(size) if depth[v] == d],
                      dtype=np.intp)
        nchild = [len(children[v]) for v in vr]
        slots = []
        for j in range(max(nchild, default=0)):
            idx = np.array([i for i, k in enumerate(nchild) if k > j],
                           dtype=np.intp)
            slots.append((idx, np.array([children[vr[i]][j] for i in idx],
                                        dtype=np.intp)))
        waves.append((vr, tuple(slots)))
    return parent, tuple(waves)


register_cache(_wave_tables)


def _transfer(venv: VecEnv, nbytes, same_node):
    """Elementwise two-tier transfer time; ``nbytes`` scalar or array."""
    return np.where(same_node,
                    venv.intra_lat + nbytes / venv.intra_bw,
                    venv.inter_lat + nbytes / venv.inter_bw)


def bcast_times(venv: VecEnv, size: int, entry_v, nb: int, nodes_v):
    """Vectorized down-cascade: per-vrank completion times of a bcast.

    ``entry_v``/``nodes_v`` are indexed by *virtual* rank (root = vrank
    0).  Returns ``(compl, inter_messages)``: completion times per
    virtual rank and the number of inter-node hops (traffic is uniform
    at ``nb`` bytes over ``size - 1`` hops, so counts aggregate).

    Wave ``d`` holds the vranks at tree depth ``d``; readiness is one
    elementwise ``max(entry, arrival) + overhead``, and the per-parent
    send chains advance in lockstep one child slot at a time — the same
    ``t + ((t + dt) - t)`` round trips as the scalar cascade, evaluated
    in a different (dataflow-equivalent) order.
    """
    _parent, waves = _wave_tables(size)
    overhead = venv.ovh + venv.ovh_pb * nb
    ti = venv.intra_lat + nb / venv.intra_bw
    te = venv.inter_lat + nb / venv.inter_bw
    barr = np.zeros(size)
    compl = np.empty(size)
    inter = 0
    for d, (vr, slots) in enumerate(waves):
        if d == 0:
            t = entry_v[vr].astype(float, copy=True)
        else:
            t = np.maximum(entry_v[vr], barr[vr]) + overhead
        for idx, child in slots:
            s = t[idx]
            same = nodes_v[vr[idx]] == nodes_v[child]
            tt = np.where(same, ti, te)
            barr[child] = s + ((s + tt) - s)
            inter += len(same) - int(np.count_nonzero(same))
            t[idx] = s + ((s + overhead) - s)
        compl[vr] = t
    return compl, inter


def gather_times(venv: VecEnv, size: int, entry_v, nbytes_in, nodes_v):
    """Vectorized up-cascade: per-vrank completion/arrival times.

    ``nbytes_in[v]`` is the wire size of the message vrank ``v`` sends
    to its parent (unused for vrank 0); the fold at each parent charges
    ``cpu_overhead(nbytes_in[child])`` per child in deepest-subtree-first
    order, exactly like the scalar cascade.  Returns ``(compl, arrival,
    inter_messages, inter_bytes)``.
    """
    parent, waves = _wave_tables(size)
    nbytes_in = np.asarray(nbytes_in)
    ovh_in = venv.ovh + venv.ovh_pb * nbytes_in
    arrival = np.zeros(size)
    compl = np.empty(size)
    inter_msgs = 0
    inter_bytes = 0
    for d in range(len(waves) - 1, -1, -1):
        vr, slots = waves[d]
        t = entry_v[vr].astype(float, copy=True)
        for idx, child in slots:
            t[idx] = np.maximum(t[idx], arrival[child]) + ovh_in[child]
        if d == 0:
            compl[vr] = t
            continue
        same = nodes_v[vr] == nodes_v[parent[vr]]
        tt = _transfer(venv, nbytes_in[vr], same)
        arrival[vr] = t + ((t + tt) - t)
        cross = ~same
        inter_msgs += int(np.count_nonzero(cross))
        inter_bytes += int(nbytes_in[vr][cross].sum())
        o = ovh_in[vr]
        compl[vr] = t + ((t + o) - t)
    return compl, arrival, inter_msgs, inter_bytes


def gather_sizes(size: int, pbytes_v, object_bytes: int):
    """Accumulated wire sizes of a dict-merging binomial gather.

    ``pbytes_v[v]`` is vrank ``v``'s own payload size; each rank's
    upward message carries its whole folded subtree, so
    ``out[v] = object_bytes + pbytes_v[v] + sum(out[children])`` —
    an order-free exact integer sum, evaluated bottom-up one wave at a
    time.
    """
    parent, waves = _wave_tables(size)
    out = np.asarray(pbytes_v, dtype=np.int64) + object_bytes
    for d in range(len(waves) - 1, 0, -1):
        vr = waves[d][0]
        np.add.at(out, parent[vr], out[vr])
    return out
