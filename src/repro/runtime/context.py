"""Per-rank execution context.

The context is how solver code interacts with the simulated hardware:

* ``yield from ctx.compute(flops, dram_bytes)`` charges virtual time and
  energy for a compute segment on the rank's bound core.  The duration
  follows the rank's :class:`~repro.perfmodel.calibration.ComputeProfile`
  (effective flop rate); the package accountant integrates the core's
  power over the segment and the DRAM accountant is charged for the
  traffic.  Power caps stretch the segment via the DVFS ratio returned
  by the RAPL package.
* ``ctx.papi()`` returns the node-local PAPI library instance (monitoring
  ranks use it; §4's design has exactly one PAPI user per node).

Compute profiles are per-solver calibration: ScaLAPACK's blocked BLAS-3
kernels sustain a higher effective flop rate and touch DRAM less per flop
than IMe's rank-1-update sweeps — the root of the power gap the paper
measures (§5.4).
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.cluster.topology import Core
from repro.energy.papi import PapiLibrary
from repro.energy.rapl import RaplNode
from repro.perfmodel.calibration import ComputeProfile
from repro.simmpi.engine import NOW, acquire_delay


class RankContext:
    """One rank's view of the machine (core binding, energy, PAPI)."""

    def __init__(
        self,
        rank: int,
        core: Core,
        rapl_node: RaplNode,
        papi: PapiLibrary,
        profile: ComputeProfile,
        node_efficiency: float = 1.0,
        sim=None,
    ):
        if node_efficiency <= 0:
            raise ValueError(f"node_efficiency must be positive: {node_efficiency}")
        self.rank = rank
        self.core = core
        self.rapl_node = rapl_node
        #: simulator handle; lets charging read the clock directly instead
        #: of a ``yield NOW`` round trip per timestamp (same value — the
        #: engine's clock is exact at every resume point)
        self._sim = sim
        self._papi = papi
        #: the bound core's RAPL package (fixed for the context's lifetime)
        self._pkg = rapl_node.package(core.socket_id)
        self.profile = profile
        #: per-repetition node speed factor (the paper's runs landed on
        #: different node sets each time; this models that variance)
        self.node_efficiency = node_efficiency
        self.flops_charged = 0.0
        self.dram_bytes_charged = 0.0
        self.compute_seconds = 0.0
        #: observability hook (set by ``Job.attach_tracer``); ``None`` keeps
        #: compute charging and :meth:`span` free of tracing overhead
        self.tracer = None

    @property
    def node_id(self) -> int:
        return self.core.node_id

    @property
    def socket_id(self) -> int:
        return self.core.socket_id

    def papi(self) -> PapiLibrary:
        return self._papi

    # -------------------------------------------------------------- tracing
    def span(self, name: str, cat: str = "phase", **args):
        """Scoped observability span on this rank's track.

        Usable around ``yield from`` blocks inside rank programs::

            with ctx.span("ime:reduce"):
                yield from ...

        A no-op context manager when no tracer is attached.
        """
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, cat=cat, pid=self.node_id,
                                tid=self.rank, args=args or None)

    # ------------------------------------------------------------- charging
    def compute(self, flops: float, dram_bytes: float | None = None,
                profile: ComputeProfile | None = None):
        """Charge a compute segment (generator; drive with ``yield from``)."""
        prof = profile if profile is not None else self.profile
        if dram_bytes is None:
            dram_bytes = flops * prof.dram_bytes_per_flop
        if dram_bytes < 0:
            raise ValueError(f"negative dram_bytes: {dram_bytes}")
        pkg = self._pkg
        sim = self._sim
        t0 = sim.now if sim is not None else (yield NOW)
        # The job keeps a spin interval open on every allocated core, so a
        # compute segment charges only the increment above busy-waiting.
        handle, freq_ratio = pkg.begin_core_activity(
            prof.flop_util, prof.mem_util, t0, incremental_over_spin=True
        )
        dt = prof.duration(flops, freq_ratio) / self.node_efficiency
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin_span(
                "compute", cat="compute", pid=self.node_id, tid=self.rank,
                t=t0, args={"flops": float(flops),
                            "dram_bytes": float(dram_bytes)},
            )
        yield acquire_delay(dt)
        t1 = sim.now if sim is not None else (yield NOW)
        pkg.end_core_activity(handle, t1)
        pkg.charge_dram_traffic(dram_bytes, t0, t1)
        if tracer is not None:
            tracer.end_span(span, t=t1)
            tracer.metrics.inc("compute.flops", float(flops),
                               rank=self.rank, node=self.node_id)
            tracer.metrics.inc("compute.seconds", dt,
                               rank=self.rank, node=self.node_id)
        self.flops_charged += flops
        self.dram_bytes_charged += dram_bytes
        self.compute_seconds += dt

    def elapse(self, seconds: float, active: bool = True,
               profile: ComputeProfile | None = None):
        """Charge a fixed-duration segment (busy-wait or fixed-cost phase)."""
        if seconds < 0:
            raise ValueError(f"negative duration: {seconds}")
        if not active:
            yield acquire_delay(seconds)
            return
        prof = profile if profile is not None else self.profile
        pkg = self._pkg
        sim = self._sim
        t0 = sim.now if sim is not None else (yield NOW)
        handle, _ = pkg.begin_core_activity(
            prof.flop_util, prof.mem_util, t0, incremental_over_spin=True
        )
        yield acquire_delay(seconds)
        t1 = sim.now if sim is not None else (yield NOW)
        pkg.end_core_activity(handle, t1)
        self.compute_seconds += seconds
