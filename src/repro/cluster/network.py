"""Topology-aware interconnect model.

Implements the :class:`repro.simmpi.fabric.Fabric` protocol with two tiers:
shared-memory transfers between ranks on the same node, and OmniPath-class
transfers between nodes.  Optional multiplicative jitter (seeded,
deterministic per message) models fabric noise — one of the sources of
run-to-run variance the paper observes across repetitions.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.cluster.machine import NetworkParams
from repro.simmpi.fabric import HopCosts


class ClusterFabric:
    """Two-tier latency/bandwidth fabric with deterministic seeded jitter.

    With ``serialize_injection`` each node's NIC becomes a serial resource
    for inter-node transfers: concurrent senders on one node queue for the
    injection link (their serialization times add), while senders on
    different nodes are independent — modelling the single 100 Gbit/s
    OmniPath port per Marconi node.
    """

    def __init__(self, params: NetworkParams, jitter_frac: float = 0.0,
                 seed: int = 0, serialize_injection: bool = False):
        if jitter_frac < 0 or jitter_frac >= 1:
            raise ValueError(f"jitter_frac must be in [0,1): {jitter_frac}")
        self.params = params
        self.jitter_frac = jitter_frac
        self.serialize_injection = serialize_injection
        self._nic_free: dict[int, float] = defaultdict(float)
        self._rng = np.random.default_rng(seed)

    def _jitter(self) -> float:
        if self.jitter_frac == 0.0:
            return 1.0
        # Uniform in [1-j, 1+j]; consumed in message order, so a fixed seed
        # yields a reproducible timing trace.
        return 1.0 + self.jitter_frac * (2.0 * self._rng.random() - 1.0)

    def cpu_overhead(self, nbytes: int) -> float:
        p = self.params
        return p.cpu_overhead + p.cpu_overhead_per_byte * nbytes

    def transfer_time(self, nbytes: int, src_node: int, dst_node: int) -> float:
        p = self.params
        if src_node == dst_node:
            base = p.intra_latency + nbytes / p.intra_bandwidth
        else:
            base = p.inter_latency + nbytes / p.inter_bandwidth
        return base * self._jitter()

    def hop_costs(self) -> HopCosts | None:
        """Constant hop costs, or ``None`` under jitter or NIC queueing.

        Without jitter the multiplier is exactly ``1.0`` (``x * 1.0`` is
        bitwise ``x``), and without serialization ``transfer_schedule``
        is ``now + transfer_time``, so the constants price every hop
        exactly as the methods do.
        """
        if self.jitter_frac != 0.0 or self.serialize_injection:
            return None
        p = self.params
        return HopCosts(p.intra_latency, p.intra_bandwidth,
                        p.inter_latency, p.inter_bandwidth,
                        p.cpu_overhead, p.cpu_overhead_per_byte)

    def transfer_schedule(self, nbytes: int, src_node: int, dst_node: int,
                          now: float) -> float:
        """Arrival time for a transfer initiated at ``now``.

        Under ``serialize_injection`` inter-node transfers queue for the
        source node's injection link; otherwise this reduces to
        ``now + transfer_time``.
        """
        if not self.serialize_injection or src_node == dst_node:
            return now + self.transfer_time(nbytes, src_node, dst_node)
        p = self.params
        start = max(now, self._nic_free[src_node])
        serialization = (nbytes / p.inter_bandwidth) * self._jitter()
        self._nic_free[src_node] = start + serialization
        return start + serialization + p.inter_latency
