"""Per-level aggregate closed forms: vectorized binomial-tree evaluators.

These numpy forms evaluate a whole collective's completion times in
``O(log^2 p)`` numpy calls: virtual ranks are grouped into *waves* by
binomial-tree depth (popcount of the virtual rank), each wave's readiness
``max(entry, arrival) + cpu_overhead`` is one elementwise evaluation, and
the per-parent send chains advance one child *slot* at a time — every
parent in a wave sends to its j-th child in one vectorized step.  The
evaluation order differs from the hop loops of the fast engines, but
every individual value is produced by the **same dataflow and the same
float expressions** (including the ``t + ((t + dt) - t)`` scheduling
round trips), so the results are bit-identical, not merely close; only
order-free integer traffic sums are aggregated.  They are only valid
when the fabric has constant hop costs
(:func:`repro.simmpi.fabric.hop_costs`).

No engine path calls the waves.  Per collective, the hop loops of
:mod:`repro.simmpi.fastcoll` and :mod:`repro.simmpi.fastp2p` measured
faster at the communicator sizes the solvers use (``docs/performance.md``,
per-collective table), so the waves are kept only as the closed-form
statement of a collective that the benchmark's layer tracer patches and
the tests check the hop loops against.  :func:`vector_env` is the one
engine entry point left: the fused pipeline reads the fabric's constant
hop costs through it.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.memo import register_cache
from repro.simmpi.fabric import HopCosts, hop_costs


def vector_env(world) -> HopCosts | None:
    """The world fabric's constant hop costs, or ``None``.

    Delegates to :func:`repro.simmpi.fabric.hop_costs`: ``None`` means
    the fabric is stateful (seeded jitter consumes RNG draws in hop
    order, NIC serialization tracks per-node free times) or publishes
    no constants, so hops must call it one at a time.
    """
    return hop_costs(world.fabric)


@functools.lru_cache(maxsize=None)
def _wave_tables(size: int):
    """Per-size index tables for wave-parallel tree evaluation.

    Returns ``(parent, waves)`` where ``parent[v]`` is the binomial
    parent of virtual rank ``v`` and ``waves[d]`` is ``(vr, slots)``:
    the virtual ranks at tree depth ``d`` (``popcount(v)``), and for
    each child slot ``j`` the pair ``(idx, child)`` — indices into
    ``vr`` of the parents that have a ``j``-th child, and those
    children's virtual ranks.  Slot order equals the hop loops'
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


def _transfer(venv: HopCosts, nbytes, same_node):
    """Elementwise two-tier transfer time; ``nbytes`` scalar or array."""
    return np.where(same_node,
                    venv.intra_lat + nbytes / venv.intra_bw,
                    venv.inter_lat + nbytes / venv.inter_bw)


def bcast_times(venv: HopCosts, size: int, entry_v, nb: int, nodes_v):
    """Vectorized down-cascade: per-vrank completion times of a bcast.

    ``entry_v``/``nodes_v`` are indexed by *virtual* rank (root = vrank
    0).  Returns ``(compl, inter_messages)``: completion times per
    virtual rank and the number of inter-node hops (traffic is uniform
    at ``nb`` bytes over ``size - 1`` hops, so counts aggregate).

    Wave ``d`` holds the vranks at tree depth ``d``; readiness is one
    elementwise ``max(entry, arrival) + overhead``, and the per-parent
    send chains advance in lockstep one child slot at a time — the same
    ``t + ((t + dt) - t)`` round trips as the hop loop, evaluated
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


def gather_times(venv: HopCosts, size: int, entry_v, nbytes_in, nodes_v):
    """Vectorized up-cascade: per-vrank completion/arrival times.

    ``nbytes_in[v]`` is the wire size of the message vrank ``v`` sends
    to its parent (unused for vrank 0); the fold at each parent charges
    ``cpu_overhead(nbytes_in[child])`` per child in deepest-subtree-first
    order, exactly like the hop loop.  Returns ``(compl, arrival,
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
