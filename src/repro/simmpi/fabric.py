"""Interconnect timing models used by the simulated MPI runtime.

A *fabric* answers two questions for a message of ``nbytes`` between two
ranks: how long the sending/receiving CPU is busy (overhead, charged to the
calling rank as virtual compute time) and when the message lands in the
destination mailbox (latency + serialization).  The cluster package supplies
a topology-aware fabric (intra-node shared memory vs. inter-node OmniPath);
this module provides the protocol plus a uniform fabric for standalone use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Protocol


class HopCosts(NamedTuple):
    """Constant per-hop cost terms of a fabric.

    A fabric exposes them (``hop_costs()``) when every hop's cost is a
    pure function of ``(nbytes, src_node, dst_node)``.  They reproduce the
    fabric's own float expressions: ``cpu_overhead(n)`` is
    ``ovh + ovh_pb * n`` and ``transfer_time(n, s, d)`` is
    ``intra_lat + n / intra_bw`` when ``s == d``, else
    ``inter_lat + n / inter_bw``.
    """

    intra_lat: float
    intra_bw: float
    inter_lat: float
    inter_bw: float
    ovh: float
    ovh_pb: float


class Fabric(Protocol):
    """Timing interface consumed by :class:`repro.simmpi.comm.World`.

    Two methods are optional: ``transfer_schedule(nbytes, src_node,
    dst_node, now)`` returns an arrival time (for fabrics that queue
    transfers), and ``hop_costs()`` returns :class:`HopCosts` (or
    ``None`` while the fabric is stateful).
    """

    def cpu_overhead(self, nbytes: int) -> float:
        """Seconds of CPU time charged to each endpoint of a transfer."""
        ...

    def transfer_time(self, nbytes: int, src_node: int, dst_node: int) -> float:
        """Seconds from send to mailbox arrival."""
        ...


@dataclass(frozen=True)
class UniformFabric:
    """A flat network: one latency/bandwidth pair for every rank pair.

    Suitable defaults approximate a commodity RDMA network.  ``self_time``
    covers rank-to-self transfers (a memcpy).
    """

    latency: float = 1.5e-6
    bandwidth: float = 12.5e9  # bytes/s (100 Gbit/s)
    intra_latency: float = 4.0e-7
    intra_bandwidth: float = 30.0e9  # shared-memory copy rate
    overhead: float = 0.4e-6
    overhead_per_byte: float = 2.0e-11

    def cpu_overhead(self, nbytes: int) -> float:
        return self.overhead + self.overhead_per_byte * nbytes

    def transfer_time(self, nbytes: int, src_node: int, dst_node: int) -> float:
        if src_node == dst_node:
            return self.intra_latency + nbytes / self.intra_bandwidth
        return self.latency + nbytes / self.bandwidth

    def hop_costs(self) -> HopCosts:
        return HopCosts(self.intra_latency, self.intra_bandwidth,
                        self.latency, self.bandwidth,
                        self.overhead, self.overhead_per_byte)


@dataclass(frozen=True)
class ZeroFabric:
    """A fabric with no cost at all — for pure-logic unit tests."""

    def cpu_overhead(self, nbytes: int) -> float:
        return 0.0

    def transfer_time(self, nbytes: int, src_node: int, dst_node: int) -> float:
        return 0.0


def hop_costs(fabric) -> HopCosts | None:
    """``fabric``'s constant hop costs, or ``None`` if hops must call it.

    ``None`` covers stateful fabrics (seeded jitter draws in hop order,
    NIC queues track per-node free times) and fabrics that publish no
    constants (:class:`ZeroFabric`).  Read per collective from
    ``world.fabric``, so swapping the fabric leaves no stale constants.
    """
    method = getattr(fabric, "hop_costs", None)
    return None if method is None else method()


def schedule_of(fabric) -> Callable[[int, int, int, float], float]:
    """The arrival-time callable ``(nbytes, src_node, dst_node, now)``.

    The fabric's ``transfer_schedule`` when it has one, otherwise
    ``now + transfer_time(...)`` — the message path's arrival either way.
    """
    schedule = getattr(fabric, "transfer_schedule", None)
    if schedule is not None:
        return schedule
    transfer_time = fabric.transfer_time

    def schedule(nbytes, src_node, dst_node, now):
        return now + transfer_time(nbytes, src_node, dst_node)
    return schedule
