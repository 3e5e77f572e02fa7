"""Job: one simulated Slurm allocation running one MPI program.

Builds the full stack for a placement — RAPL state per allocated node, one
PAPI instance per node, a topology-aware fabric, the MPI world — then spawns
``program(ctx, comm, **kwargs)`` for every rank and runs the event loop to
completion.  The result carries per-rank return values plus the oracle
energy/time accounting (the monitoring framework's *measured* values are
produced separately by the rank programs themselves, which is the point of
the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.cluster.network import ClusterFabric
from repro.cluster.placement import Placement
from repro.energy.domains import RaplDomain
from repro.energy.papi import PapiLibrary
from repro.energy.rapl import RaplNode
from repro.perfmodel.calibration import ComputeProfile
from repro.runtime.context import RankContext
from repro.simmpi.comm import World
from repro.simmpi.engine import Simulator


@dataclass
class JobResult:
    """Outcome of one job: per-rank results plus oracle accounting."""

    rank_results: list[Any]
    duration: float
    #: exact joules per (node_id, domain) over the whole job
    node_energy_j: dict[tuple[int, str], float]
    traffic: dict
    placement: Placement

    @property
    def total_energy_j(self) -> float:
        return sum(self.node_energy_j.values())

    def domain_energy_j(self, domain: str) -> float:
        """Total joules across nodes for one RAPL domain name."""
        return sum(v for (_n, d), v in self.node_energy_j.items() if d == domain)

    @property
    def package_energy_j(self) -> float:
        return sum(
            v for (_n, d), v in self.node_energy_j.items()
            if d.startswith("package")
        )

    @property
    def dram_energy_j(self) -> float:
        return sum(
            v for (_n, d), v in self.node_energy_j.items()
            if d.startswith("dram")
        )

    @property
    def mean_power_w(self) -> float:
        return self.total_energy_j / self.duration if self.duration > 0 else 0.0


class Job:
    """One allocation: machine state + MPI world for a placement."""

    def __init__(
        self,
        machine: MachineSpec,
        placement: Placement,
        profile: ComputeProfile | None = None,
        seed: int = 0,
        fabric_jitter: float = 0.0,
        node_efficiency_spread: float = 0.0,
    ):
        self.machine = machine
        self.placement = placement
        self.profile = profile if profile is not None else ComputeProfile()
        self.sim = Simulator()
        self.fabric = ClusterFabric(
            machine.network, jitter_frac=fabric_jitter, seed=seed
        )
        self.world = World(
            self.sim,
            size=placement.n_ranks,
            fabric=self.fabric,
            node_of=placement.node_of,
        )
        n_nodes = placement.layout.nodes
        clock = lambda: self.sim.now  # noqa: E731
        self.rapl_nodes = [
            RaplNode(
                node_id=i,
                n_sockets=machine.sockets_per_node,
                params=machine.power,
                clock=clock,
                seed=seed,
                cores_per_socket=machine.cores_per_socket,
            )
            for i in range(n_nodes)
        ]
        # Socket occupancy under this placement drives the shared-uncore
        # power uplift (what separates the 24+0 and 12+12 half loads).
        for node, per_socket in zip(self.rapl_nodes,
                                    placement.socket_occupancies()):
            for pkg, placed in zip(node.packages, per_socket):
                if placed > 0 and pkg.n_cores > 1:
                    pkg.occupancy_frac = min(
                        1.0, (placed - 1) / (pkg.n_cores - 1)
                    )
        self.papi_instances = [
            PapiLibrary(node, clock) for node in self.rapl_nodes
        ]
        # Per-node speed factors model the changing node sets across the
        # paper's repetitions (§5.3 repeatability caveat).
        self._tracer = None
        rng = np.random.default_rng(seed)
        if node_efficiency_spread > 0:
            self.node_efficiency = 1.0 + node_efficiency_spread * (
                2.0 * rng.random(n_nodes) - 1.0
            )
        else:
            self.node_efficiency = np.ones(n_nodes)

    def attach_tracer(self, tracer) -> None:
        """Wire an observability tracer through the whole stack.

        Connects the tracer (normally a
        :class:`repro.obs.tracer.SpanTracer`) to the event engine, the
        MPI world, and — via :meth:`make_contexts` — every rank context,
        and points its clock and energy probe at this job.  Tracing is an
        observation only: the virtual timeline and the energy accounting
        are identical with or without a tracer attached.
        """
        tracer.clock = lambda: self.sim.now
        if getattr(tracer, "energy_probe", None) is None:
            tracer.energy_probe = self._energy_snapshot
        self.sim.tracer = tracer
        self.world.tracer = tracer
        self._tracer = tracer

    @property
    def tracer(self):
        """The attached tracer, or ``None`` (read-only; see attach_tracer)."""
        return self._tracer

    def _energy_snapshot(self) -> dict[tuple[int, str], float]:
        """Cumulative oracle joules per (node, domain) at the current time."""
        now = self.sim.now
        return {
            (node.node_id, domain): node.exact_domain_energy_j(domain, now)
            for node in self.rapl_nodes
            for domain in self._domains()
        }

    def make_contexts(self) -> list[RankContext]:
        contexts = []
        for rank in range(self.placement.n_ranks):
            core = self.placement.core_of(rank)
            contexts.append(
                RankContext(
                    rank=rank,
                    core=core,
                    rapl_node=self.rapl_nodes[core.node_id],
                    papi=self.papi_instances[core.node_id],
                    profile=self.profile,
                    node_efficiency=float(self.node_efficiency[core.node_id]),
                    sim=self.sim,
                )
            )
        for ctx in contexts:
            ctx.tracer = self._tracer
        return contexts

    def run(self, program: Callable, **kwargs) -> JobResult:
        """Run ``program(ctx, comm, **kwargs)`` on every rank to completion."""
        comms = self.world.comm_world()
        contexts = self.make_contexts()
        # Every allocated core busy-waits for the whole job (MPI progress
        # polling): open one spin interval per placed core, closed at the
        # end of the run.  Compute segments charge only their increment.
        spin_handles = []
        for rank in range(self.placement.n_ranks):
            core = self.placement.core_of(rank)
            pkg = self.rapl_nodes[core.node_id].package(core.socket_id)
            spin_handles.append((pkg, pkg.begin_core_spin(0.0)))
        procs = [
            self.sim.spawn(
                program(ctx, comm, **kwargs), name=f"rank{ctx.rank}"
            )
            for ctx, comm in zip(contexts, comms)
        ]
        end = self.sim.run()
        # The job's duration is the application's end, not the last event's
        # (observers such as the power tracer may tick slightly past it).
        duration = max((p.finish_time for p in procs
                        if p.finish_time is not None), default=end)
        for pkg, handle in spin_handles:
            pkg.end_core_spin(handle, duration)
        if self._tracer is not None:
            self._tracer.close_open_spans(duration)
        energy: dict[tuple[int, str], float] = {}
        for node in self.rapl_nodes:
            for domain in self._domains():
                energy[(node.node_id, domain)] = node.exact_domain_energy_j(
                    domain, duration
                )
        return JobResult(
            rank_results=[p.result for p in procs],
            duration=duration,
            node_energy_j=energy,
            traffic=self.world.stats.snapshot(),
            placement=self.placement,
        )

    def _domains(self) -> list[str]:
        out = []
        for s in range(self.machine.sockets_per_node):
            out.append(RaplDomain.package(s))
        for s in range(self.machine.sockets_per_node):
            out.append(RaplDomain.dram(s))
        return out

    def set_power_cap(self, watts: float) -> None:
        """Apply a RAPL package power cap to every allocated socket."""
        for node in self.rapl_nodes:
            node.set_power_cap(watts)
