"""Time-resolved power tracing of simulated jobs.

The white-box monitor brackets a region with two counter reads; tools like
the related work's Colmet/DAVIDE/WattProf (§3) instead sample continuously.
:class:`PowerTracer` adds that capability to the simulator: it samples
every RAPL domain of every allocated node on a fixed period while the job
runs, yielding per-domain power time series — enough to see IMe's level
structure or ScaLAPACK's panel cadence in the power signal.

Sampling is an *observer*: it never perturbs the rank programs or the
virtual clock (a zero-cost measurement; real sampling daemons are not
free, which is exactly the overhead trade-off §4 discusses for the
white-box design).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.energy.domains import RaplDomain
from repro.runtime.job import Job, JobResult


@dataclass
class PowerTrace:
    """Sampled cumulative energy per (node, domain) over a run."""

    period: float
    times: list[float] = field(default_factory=list)
    #: (node_id, domain) -> cumulative joules at each sample time
    energy: dict = field(default_factory=dict)

    def power_series(self, node_id: int, domain: str) -> tuple[np.ndarray, np.ndarray]:
        """(midpoint times, watts) derived from consecutive samples."""
        e = np.asarray(self.energy[(node_id, domain)])
        t = np.asarray(self.times)
        if len(t) < 2:
            return np.array([]), np.array([])
        dt = np.diff(t)
        watts = np.diff(e) / dt
        mid = (t[:-1] + t[1:]) / 2.0
        return mid, watts

    def node_power_series(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Total node power (all packages + DRAM domains)."""
        domains = sorted({d for (n, d) in self.energy if n == node_id})
        total = None
        for d in domains:
            e = np.asarray(self.energy[(node_id, d)])
            total = e if total is None else total + e
        t = np.asarray(self.times)
        if len(t) < 2:
            return np.array([]), np.array([])
        return (t[:-1] + t[1:]) / 2.0, np.diff(total) / np.diff(t)

    @property
    def n_samples(self) -> int:
        return len(self.times)


class PowerTracer:
    """Samples a job's RAPL domains on a fixed period while it runs."""

    def __init__(self, job: Job, period: float = 1.0e-3):
        if period <= 0:
            raise ValueError(f"sampling period must be positive: {period}")
        self.job = job
        self.period = period
        self.trace = PowerTrace(period=period)
        for node in job.rapl_nodes:
            for s in range(node.n_sockets):
                self.trace.energy[(node.node_id, RaplDomain.package(s))] = []
                self.trace.energy[(node.node_id, RaplDomain.dram(s))] = []

    def _sample(self, t: float) -> None:
        self.trace.times.append(t)
        for node in self.job.rapl_nodes:
            for s in range(node.n_sockets):
                self.trace.energy[(node.node_id, RaplDomain.package(s))] \
                    .append(node.exact_domain_energy_j(RaplDomain.package(s), t))
                self.trace.energy[(node.node_id, RaplDomain.dram(s))] \
                    .append(node.exact_domain_energy_j(RaplDomain.dram(s), t))
        tracer = self.job.tracer
        if tracer is not None and len(self.trace.times) >= 2:
            # Feed the power signal into the observability trace as one
            # counter lane per node (watts over the last sampling interval).
            t0, t1 = self.trace.times[-2], self.trace.times[-1]
            if t1 > t0:
                for node in self.job.rapl_nodes:
                    joules = sum(
                        series[-1] - series[-2]
                        for (nid, _d), series in self.trace.energy.items()
                        if nid == node.node_id
                    )
                    tracer.counter("power.node_w", joules / (t1 - t0),
                                   t=t1, pid=node.node_id)

    def _tick(self, _arg) -> None:
        sim = self.job.sim
        self._sample(sim.now)
        # Keep sampling only while application processes are still live —
        # otherwise the self-rescheduling callback would run forever.
        if any(not p.done for p in sim._live_processes):
            sim.call_at(sim.now + self.period, self._tick)

    def run(self, program, **kwargs) -> tuple[JobResult, PowerTrace]:
        """Run the job with sampling armed; returns (result, trace)."""
        self.job.sim.call_at(0.0, self._tick)
        result = self.job.run(program, **kwargs)
        # Drop any tick that landed past the application's end, then close
        # the trace with a sample exactly at the end of the run.
        while self.trace.times and self.trace.times[-1] > result.duration:
            self.trace.times.pop()
            for series in self.trace.energy.values():
                series.pop()
        if not self.trace.times or self.trace.times[-1] < result.duration:
            self._sample(result.duration)
        return result, self.trace
