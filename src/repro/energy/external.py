"""External (wall-plug) power metering — the paper's planned ground truth.

§6: "since we are aware that the accuracy of PAPI measurements is less
than those we could obtain with external power meters we plan to integrate
our analysis with external 'ground truth' measurements" (citing Fahad et
al., *A Comparative Study of Methods for Measurement of Energy of
Computing*).  This module adds that instrument to the simulation so the
comparison can be made today:

* an :class:`ExternalWattmeter` measures a node's **AC draw at the wall**:
  the DC load (all RAPL domains plus non-RAPL components — fans, NIC,
  board) divided by the PSU's load-dependent efficiency (an 80-Plus-style
  curve), sampled at a finite rate with a calibration error;
* RAPL, by contrast, sees only the package/DRAM domains — so the meter
  reads systematically *higher*, and the gap (PSU loss + peripherals) is
  exactly what method-comparison studies report.

``compare_methods`` runs one job under three instruments at once — the
white-box PAPI/RAPL path, the external meter, and the simulator's oracle —
returning the per-method energies and their discrepancies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energy.domains import RaplDomain
from repro.runtime.job import Job


@dataclass(frozen=True)
class PsuModel:
    """Load-dependent PSU efficiency (80-Plus-like)."""

    rated_watts: float = 800.0
    #: efficiency at 20 % / 50 % / 100 % load (80 Plus Gold-ish)
    eff_20: float = 0.87
    eff_50: float = 0.92
    eff_100: float = 0.89

    def efficiency(self, dc_watts: float) -> float:
        """Interpolated efficiency at a DC load (clamped to [5 %, 100 %])."""
        if dc_watts < 0:
            raise ValueError(f"negative DC load: {dc_watts}")
        load = min(1.0, max(0.05, dc_watts / self.rated_watts))
        pts = np.array([0.05, 0.2, 0.5, 1.0])
        effs = np.array([0.80, self.eff_20, self.eff_50, self.eff_100])
        return float(np.interp(load, pts, effs))

    def ac_watts(self, dc_watts: float) -> float:
        return dc_watts / self.efficiency(dc_watts)


@dataclass(frozen=True)
class MeterSpec:
    """An external node-level power meter."""

    psu: PsuModel = PsuModel()
    #: watts drawn by non-RAPL components (fans, NIC, board, disks)
    peripheral_watts: float = 35.0
    #: sampling period of the meter (1 Hz is typical for PDU meters)
    sample_period: float = 1.0
    #: multiplicative calibration error (±, e.g. 0.01 = 1 %)
    calibration_error: float = 0.01


class ExternalWattmeter:
    """Wall-plug measurement of one job's nodes.

    The meter integrates AC power over its sampling grid: at each sample
    it reads the node's instantaneous DC power (from the oracle
    accountants — a real meter measures truly), adds peripherals, applies
    the PSU curve, and accumulates ``P_ac × period``.
    """

    def __init__(self, job: Job, spec: MeterSpec | None = None, seed: int = 0):
        self.job = job
        self.spec = spec or MeterSpec()
        rng = np.random.default_rng(seed)
        self._gain = 1.0 + self.spec.calibration_error * (
            2.0 * rng.random() - 1.0
        )
        self._times: list[float] = []
        self._energies: dict[int, list[float]] = {
            node.node_id: [] for node in job.rapl_nodes
        }

    def _node_dc_energy(self, node, t: float) -> float:
        total = 0.0
        for s in range(node.n_sockets):
            total += node.exact_domain_energy_j(RaplDomain.package(s), t)
            total += node.exact_domain_energy_j(RaplDomain.dram(s), t)
        return total

    def _tick(self, _arg) -> None:
        sim = self.job.sim
        t = sim.now
        self._times.append(t)
        for node in self.job.rapl_nodes:
            self._energies[node.node_id].append(self._node_dc_energy(node, t))
        if any(not p.done for p in sim._live_processes):
            sim.call_at(t + self.spec.sample_period, self._tick)

    def run(self, program, **kwargs):
        """Run the job under the meter; returns ``(result, ac_energy_j)``.

        ``ac_energy_j`` maps node_id → measured wall energy over the run.
        """
        self.job.sim.call_at(0.0, self._tick)
        result = self.job.run(program, **kwargs)
        duration = result.duration
        # Clamp samples to the application window and close it exactly.
        while self._times and self._times[-1] > duration:
            self._times.pop()
            for series in self._energies.values():
                series.pop()
        if not self._times or self._times[-1] < duration:
            self._times.append(duration)
            for node in self.job.rapl_nodes:
                self._energies[node.node_id].append(
                    self._node_dc_energy(node, duration)
                )
        # AC integral: per sampling interval, DC power + peripherals
        # through the PSU curve.
        energy: dict[int, float] = {}
        for node in self.job.rapl_nodes:
            e = self._energies[node.node_id]
            total_ac = 0.0
            for i in range(1, len(self._times)):
                dt = self._times[i] - self._times[i - 1]
                if dt <= 0:
                    continue
                dc_watts = (e[i] - e[i - 1]) / dt + self.spec.peripheral_watts
                total_ac += self.spec.psu.ac_watts(dc_watts) * dt
            energy[node.node_id] = total_ac * self._gain
        return result, energy


def compare_methods(job: Job, program, meter_spec: MeterSpec | None = None,
                    seed: int = 0, **kwargs) -> dict:
    """Measure one run with every available method.

    Returns ``{"oracle_j", "rapl_j", "external_j", "psu_overhead_frac",
    "rapl_vs_external_frac"}`` — the method-comparison table of the §6
    follow-up (after Fahad et al. 2019).
    """
    from repro.core.blackbox import BlackBoxSession

    meter = ExternalWattmeter(job, meter_spec, seed=seed)
    # RAPL through the PAPI powercap path (black-box, whole allocation),
    # concurrently with the wall-plug meter.
    papi_session = BlackBoxSession(job)
    papi_session._start_all()
    result, ac_energy = meter.run(program, **kwargs)
    rapl_measurement = papi_session._stop_all()
    oracle = result.total_energy_j
    external = sum(ac_energy.values())
    rapl = rapl_measurement.total_j
    return {
        "result": result,
        "oracle_j": oracle,
        "rapl_j": rapl,
        "external_j": external,
        "psu_overhead_frac": (external - rapl) / external,
        "rapl_vs_external_frac": rapl / external,
    }
