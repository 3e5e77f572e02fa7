"""Activity integrators: cumulative joules per RAPL domain over virtual time.

Each RAPL domain (a package or a DRAM domain) owns one
:class:`ActivityAccountant`.  Rank contexts register *activity intervals*
(``begin`` at the start of a compute segment, ``end`` when it completes,
with a constant power draw in between); the accountant integrates

    E(t) = idle_power · (t − t₀) + Σ completed intervals + Σ ongoing partials

which the simulated MSR samples.  The accountant itself is exact; counter
quantization/jitter artefacts are introduced one layer up in
:mod:`repro.energy.msr`.
"""

from __future__ import annotations

import itertools


class ActivityAccountant:
    """Integrates idle + activity power into cumulative energy."""

    def __init__(self, idle_power_w: float, t_boot: float = 0.0):
        if idle_power_w < 0:
            raise ValueError(f"negative idle power: {idle_power_w}")
        self.idle_power_w = idle_power_w
        self.t_boot = t_boot
        self._completed_j = 0.0
        #: handle -> (t_start, watts); a plain tuple — begin/end run once
        #: per compute segment, so the interval record stays allocation-light
        self._ongoing: dict[int, tuple[float, float]] = {}
        self._handles = itertools.count()

    def begin(self, watts: float, t: float) -> int:
        """Start an activity interval drawing ``watts``; returns a handle."""
        if watts < 0:
            raise ValueError(f"negative activity power: {watts}")
        self._check_time(t)
        handle = next(self._handles)
        self._ongoing[handle] = (t, watts)
        return handle

    def end(self, handle: int, t: float) -> None:
        """Close an activity interval at time ``t``."""
        self._check_time(t)
        try:
            t_start, watts = self._ongoing.pop(handle)
        except KeyError:
            raise KeyError(f"unknown or already-closed activity handle {handle}")
        if t < t_start:
            raise ValueError(
                f"interval ends before it starts ({t} < {t_start})"
            )
        self._completed_j += watts * (t - t_start)

    def add_energy(self, joules: float) -> None:
        """Charge an instantaneous energy quantum (e.g. a burst)."""
        if joules < 0:
            raise ValueError(f"negative energy charge: {joules}")
        self._completed_j += joules

    def energy_at(self, t: float) -> float:
        """Exact cumulative joules at virtual time ``t`` (≥ boot)."""
        self._check_time(t)
        ongoing = sum(
            watts * (t - t_start)
            for (t_start, watts) in self._ongoing.values()
            if t > t_start
        )
        idle = self.idle_power_w * (t - self.t_boot)
        return idle + self._completed_j + ongoing

    @property
    def open_intervals(self) -> int:
        return len(self._ongoing)

    def _check_time(self, t: float) -> None:
        if t < self.t_boot:
            raise ValueError(f"time {t} precedes boot time {self.t_boot}")
