"""Per-node activity timelines and their exact energy integral.

The analytic evaluator describes a run as a sequence of *segments* per
node — each with a duration, the number of active cores per socket, their
compute/memory utilizations, and a DRAM traffic rate.  The same
:class:`~repro.energy.power_model.PowerParams` used by the DES integrates
a timeline into joules per RAPL domain, so both execution modes price
energy identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.machine import MachineSpec
from repro.cluster.placement import Placement
from repro.energy.power_model import DramPower, PackagePower
from repro.energy.domains import RaplDomain


@dataclass(frozen=True)
class Segment:
    """A constant-activity interval on one node."""

    duration: float
    #: active cores per socket, e.g. (24, 24) or (24, 0)
    active_cores: tuple[int, ...]
    flop_util: float = 0.0
    mem_util: float = 0.0
    #: DRAM bytes/second per socket during the segment
    dram_rate: tuple[float, ...] = (0.0, 0.0)
    freq_ratio: float = 1.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"negative segment duration: {self.duration}")
        if len(self.dram_rate) != len(self.active_cores):
            raise ValueError("dram_rate and active_cores must align by socket")


@dataclass
class NodeTimeline:
    """One node's run: an ordered list of segments."""

    node_id: int
    segments: list[Segment] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def add(self, segment: Segment) -> None:
        self.segments.append(segment)

    def energy_j(self, machine: MachineSpec) -> dict[str, float]:
        """Exact joules per RAPL domain over the timeline.

        Idle power accrues for the full timeline duration on every domain
        (matching the DES, where allocated sockets idle at their floor
        whenever no activity interval is open).
        """
        params = machine.power
        pkg_model = PackagePower(params)
        dram_model = DramPower(params)
        n_sockets = machine.sockets_per_node
        total = self.duration
        out: dict[str, float] = {}
        capacity = machine.cores_per_socket
        for s_id in range(n_sockets):
            pkg = params.pkg_idle_w * total
            dram = params.dram_idle_w * total
            for seg in self.segments:
                cores = seg.active_cores[s_id] if s_id < len(seg.active_cores) else 0
                if cores:
                    occ = ((cores - 1) / (capacity - 1)
                           if capacity > 1 else 0.0)
                    pkg += (
                        cores
                        * pkg_model.core_active_power(
                            seg.flop_util, seg.mem_util, seg.freq_ratio,
                            occupancy_frac=min(1.0, occ),
                        )
                        * seg.duration
                    )
                rate = seg.dram_rate[s_id] if s_id < len(seg.dram_rate) else 0.0
                if rate:
                    dram += dram_model.traffic_power(rate) * seg.duration
            out[RaplDomain.package(s_id)] = pkg
            out[RaplDomain.dram(s_id)] = dram
        return out


def node_timeline(
    node_id: int,
    per_socket: tuple[int, ...],
    machine: MachineSpec,
    compute_seconds: float,
    comm_seconds: float,
    profile,
    dram_bytes_per_node: float,
    freq_ratio: float = 1.0,
) -> NodeTimeline:
    """One node's bulk-synchronous timeline for a given socket occupancy.

    The per-node body of :func:`uniform_run_timelines`, factored out so
    the batched analytic evaluator can price one timeline per *distinct*
    occupancy class and replicate it — two nodes with the same
    ``per_socket`` run these exact arithmetic steps on the same floats,
    so sharing the result is bit-identical by construction.
    """
    n_active = sum(per_socket)
    dram_rate_total = (
        dram_bytes_per_node / compute_seconds if compute_seconds > 0 else 0.0
    )
    # Traffic follows the cores: split by socket occupancy.
    dram_rate = tuple(
        dram_rate_total * (c / n_active) if n_active else 0.0
        for c in per_socket
    )
    tl = NodeTimeline(node_id=node_id)
    if compute_seconds > 0:
        tl.add(Segment(
            duration=compute_seconds,
            active_cores=per_socket,
            flop_util=profile.flop_util,
            mem_util=profile.mem_util,
            dram_rate=dram_rate,
            freq_ratio=freq_ratio,
        ))
    if comm_seconds > 0:
        # Ranks blocked in communication busy-wait at the spin floor —
        # matching the DES's allocation-lifetime spin intervals.
        power = machine.power
        tl.add(Segment(
            duration=comm_seconds,
            active_cores=per_socket,
            flop_util=power.spin_flop_util,
            mem_util=power.spin_mem_util,
            dram_rate=tuple(0.0 for _ in per_socket),
        ))
    return tl


def uniform_run_timelines(
    placement: Placement,
    compute_seconds: float,
    comm_seconds: float,
    profile,
    dram_bytes_per_node: float,
    freq_ratio: float = 1.0,
) -> list[NodeTimeline]:
    """Timelines for a bulk-synchronous run: one compute segment (all
    placed cores active at the profile's utilizations, DRAM traffic spread
    uniformly) plus one communication segment (cores blocked in MPI —
    modelled at low utilization)."""
    return [
        node_timeline(
            node_id,
            per_socket,
            placement.machine,
            compute_seconds=compute_seconds,
            comm_seconds=comm_seconds,
            profile=profile,
            dram_bytes_per_node=dram_bytes_per_node,
            freq_ratio=freq_ratio,
        )
        for node_id, per_socket in enumerate(placement.socket_occupancies())
    ]
