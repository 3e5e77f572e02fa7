"""RAPL domain names.

The four monitored domains of a two-socket node and their name helpers.
The analytic energy integral (:mod:`repro.perfmodel.timeline`) names
its joules with them, so they live apart from the simulated RAPL
registers of :mod:`repro.energy.rapl`: an analytic process imports
these names and none of the DES measurement stack.
"""

from __future__ import annotations


class RaplDomain:
    """Names of the monitored domains, in the paper's order (§4)."""

    PACKAGE_0 = "package-0"
    PACKAGE_1 = "package-1"
    DRAM_0 = "dram-0"
    DRAM_1 = "dram-1"

    ALL = (PACKAGE_0, PACKAGE_1, DRAM_0, DRAM_1)

    @staticmethod
    def package(index: int) -> str:
        return f"package-{index}"

    @staticmethod
    def dram(index: int) -> str:
        return f"dram-{index}"

    @staticmethod
    def parse(name: str) -> tuple[str, int]:
        kind, _, idx = name.partition("-")
        if kind not in ("package", "dram") or not idx.isdigit():
            raise ValueError(f"not a RAPL domain name: {name!r}")
        return kind, int(idx)
