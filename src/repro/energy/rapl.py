"""RAPL packages and power capping.

Bridges the structural cluster model and the measurement stack: a
:class:`RaplNode` owns, for each socket, a :class:`RaplPackage` holding the
package and DRAM :class:`~repro.energy.accounting.ActivityAccountant`s, the
power-model objects, and the current power cap.  The node also exposes the
register-level :class:`~repro.energy.msr.MsrDevice` view over the same
accountants — PAPI (one layer up) reads through the MSR view, while rank
contexts charge activity through the package view.

Power capping (the paper's stated future work, reproduced here as an
extension experiment) follows the RAPL mechanism: writing a package power
limit constrains the DVFS operating point, which the rank context queries
when charging compute time.
"""

from __future__ import annotations

from typing import Callable

from repro.energy.accounting import ActivityAccountant
from repro.energy.domains import RaplDomain
from repro.energy.msr import MsrDevice
from repro.energy.power_model import DramPower, PackagePower, PowerParams


class RaplPackage:
    """One socket's RAPL state: accountants, power model, power cap."""

    def __init__(self, params: PowerParams, socket_id: int, t_boot: float = 0.0,
                 n_cores: int = 24):
        self.socket_id = socket_id
        self.n_cores = n_cores
        #: how full the socket is under the current placement, in [0, 1]
        #: ((placed − 1)/(capacity − 1)); set by the job at allocation time
        #: and used for the shared-uncore power uplift
        self.occupancy_frac = 0.0
        self.power = PackagePower(params)
        self.dram_power = DramPower(params)
        self.pkg_accountant = ActivityAccountant(
            idle_power_w=params.pkg_idle_w, t_boot=t_boot
        )
        self.dram_accountant = ActivityAccountant(
            idle_power_w=params.dram_idle_w, t_boot=t_boot
        )
        self.power_cap_w: float = params.pkg_tdp_w
        self.active_cores = 0
        #: (cap, cores, occ, utils, incremental) -> (watts, freq_ratio)
        self._activity_cache: dict[tuple, tuple[float, float]] = {}

    def set_power_cap(self, watts: float) -> None:
        if watts <= 0:
            raise ValueError(f"power cap must be positive: {watts}")
        self.power_cap_w = watts

    def freq_ratio(self, flop_util: float, mem_util: float) -> float:
        """DVFS point under the current cap for the current occupancy."""
        return self.power.freq_ratio_for_cap(
            self.power_cap_w, max(1, self.active_cores), flop_util, mem_util
        )

    # ------------------------------------------------------ activity charging
    def begin_core_activity(self, flop_util: float, mem_util: float,
                            t: float,
                            incremental_over_spin: bool = False
                            ) -> tuple[int, float]:
        """Open a compute segment on one core.

        Returns ``(handle, freq_ratio)``: the accountant handle to close the
        segment with, and the DVFS ratio in force (callers stretch their
        compute time by ``1/freq_ratio``).

        With ``incremental_over_spin`` the charged power is the *increase*
        over the core's busy-wait (spin) floor — used when a standing spin
        interval already covers the core for the whole allocation.
        """
        self.active_cores += 1
        # The (ratio, watts) pair is a pure function of the cache key —
        # solvers charging per iteration hit the same operating point
        # thousands of times, so the arithmetic is memoized.
        key = (self.power_cap_w, self.active_cores, self.occupancy_frac,
               flop_util, mem_util, incremental_over_spin)
        cached = self._activity_cache.get(key)
        if cached is None:
            ratio = self.freq_ratio(flop_util, mem_util)
            occ = self.occupancy_frac
            watts = self.power.core_active_power(flop_util, mem_util, ratio,
                                                 occupancy_frac=occ)
            if incremental_over_spin:
                p = self.power.params
                watts = max(
                    0.0,
                    watts - self.power.core_active_power(
                        p.spin_flop_util, p.spin_mem_util, ratio,
                        occupancy_frac=occ,
                    ),
                )
            cached = self._activity_cache[key] = (watts, ratio)
        else:
            watts, ratio = cached
        return self.pkg_accountant.begin(watts, t), ratio

    def begin_core_spin(self, t: float) -> int:
        """Open a busy-wait (allocation-lifetime) interval on one core."""
        p = self.power.params
        watts = self.power.core_active_power(
            p.spin_flop_util, p.spin_mem_util,
            occupancy_frac=self.occupancy_frac,
        )
        return self.pkg_accountant.begin(watts, t)

    def end_core_spin(self, handle: int, t: float) -> None:
        self.pkg_accountant.end(handle, t)

    def end_core_activity(self, handle: int, t: float) -> None:
        self.pkg_accountant.end(handle, t)
        self.active_cores -= 1

    def charge_dram_traffic(self, nbytes: float, t0: float, t1: float) -> None:
        """Charge DRAM traffic spread uniformly over [t0, t1]."""
        if nbytes < 0:
            raise ValueError(f"negative DRAM traffic: {nbytes}")
        if t1 < t0:
            raise ValueError(f"bad interval [{t0}, {t1}]")
        self.dram_accountant.add_energy(
            self.dram_power.params.dram_energy_per_byte * nbytes
        )


class RaplNode:
    """All RAPL state of one node plus its MSR register view."""

    def __init__(self, node_id: int, n_sockets: int, params: PowerParams,
                 clock: Callable[[], float], seed: int = 0,
                 t_boot: float = 0.0, cores_per_socket: int = 24):
        self.node_id = node_id
        self.params = params
        self.packages = [
            RaplPackage(params, socket_id=s, t_boot=t_boot,
                        n_cores=cores_per_socket)
            for s in range(n_sockets)
        ]
        self.msr = MsrDevice(
            node_id=node_id,
            pkg_accountants=[p.pkg_accountant for p in self.packages],
            dram_accountants=[p.dram_accountant for p in self.packages],
            clock=clock,
            seed=seed,
        )
        # A write to MSR_PKG_POWER_LIMIT takes effect on the package model.
        self.msr.set_power_limit_hook(self._apply_power_limit)

    def _apply_power_limit(self, package: int, watts: float | None) -> None:
        target = self.packages[package]
        target.set_power_cap(watts if watts is not None
                             else self.params.pkg_tdp_w)

    @property
    def n_sockets(self) -> int:
        return len(self.packages)

    def package(self, socket_id: int) -> RaplPackage:
        return self.packages[socket_id]

    def set_power_cap(self, watts: float, socket_id: int | None = None) -> None:
        """Cap one socket, or all sockets if ``socket_id`` is None."""
        targets = self.packages if socket_id is None else [self.packages[socket_id]]
        for pkg in targets:
            pkg.set_power_cap(watts)

    def exact_domain_energy_j(self, domain: str, t: float) -> float:
        """Ground-truth joules for a named domain at time ``t``."""
        kind, idx = RaplDomain.parse(domain)
        pkg = self.packages[idx]
        acct = pkg.pkg_accountant if kind == "package" else pkg.dram_accountant
        return acct.energy_at(t)
