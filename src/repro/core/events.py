"""The monitored event list.

§4: "monitoring the energy consumption of CPU packages 0 and 1, as well as
DRAM 0 and 1 … the monitored events will belong only to powercap event set
offered by PAPI.  Therefore, the array event_names … will contain all the
powercap event set displayed by PAPI."
"""

from __future__ import annotations

from repro.energy.papi import powercap_event_names
from repro.energy.domains import RaplDomain

#: Human-readable domain names, in the paper's order.
MONITORED_DOMAINS = RaplDomain.ALL  # package-0, package-1, dram-0, dram-1

#: Map PAPI powercap event name -> RAPL domain name.
EVENT_DOMAIN = {
    "powercap:::ENERGY_UJ:ZONE0": RaplDomain.PACKAGE_0,
    "powercap:::ENERGY_UJ:ZONE1": RaplDomain.PACKAGE_1,
    "powercap:::ENERGY_UJ:ZONE0_SUBZONE0": RaplDomain.DRAM_0,
    "powercap:::ENERGY_UJ:ZONE1_SUBZONE0": RaplDomain.DRAM_1,
}


def monitored_events(n_sockets: int = 2) -> list[str]:
    """The full powercap event set for a node (the paper's event_names)."""
    return powercap_event_names(n_sockets)


def domain_of(event_name: str) -> str:
    """RAPL domain a powercap event reads."""
    try:
        return EVENT_DOMAIN[event_name]
    except KeyError:
        # Generic fallback for nodes with a different socket count.
        if "SUBZONE" in event_name:
            zone = event_name.split("ZONE")[1].split("_")[0]
            return RaplDomain.dram(int(zone))
        zone = event_name.rsplit("ZONE", 1)[1]
        return RaplDomain.package(int(zone))
