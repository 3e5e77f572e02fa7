"""Host provenance for the committed wall-clock baselines.

A wall-clock number can only be compared with one taken on the same
kind of host.  ``repro bench --write`` and ``repro loadtest --write``
record :func:`host_stanza` next to their numbers, and when a ``--check``
guard trips, :func:`host_note` names the baseline's host beside the
current one.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path


def host_stanza() -> dict:
    """CPU model, core count, Python and numpy versions of this host."""
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _describe(host: dict) -> str:
    return (f"{host.get('cpu')}, {host.get('nproc')} cores, "
            f"Python {host.get('python')}, numpy {host.get('numpy')}")


def host_note(baseline_host: dict | None) -> str:
    """One line naming the baseline's host and this one, for a tripped
    regression guard."""
    base = (f"baseline host {_describe(baseline_host)}" if baseline_host
            else "baseline host unrecorded")
    return f"{base}; current host {_describe(host_stanza())}"
