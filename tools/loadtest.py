#!/usr/bin/env python
"""Load-test the campaign daemon (thin wrapper over repro.serve.loadtest).

Spawns `repro serve` on an ephemeral port with a fresh cache root and
drives it with synthetic clients: cold §5-grid fill, warm hit-path
latency percentiles, single-flight dedup under concurrent identical
requests, and one /batch vs per-request /run round trips.  Maintains
BENCH_serve.json at the repo root:

    PYTHONPATH=src python tools/loadtest.py --write           # full suite
    PYTHONPATH=src python tools/loadtest.py --quick --check   # CI guard

Also exposed as ``repro loadtest`` and ``make bench-serve``.
See docs/serving.md for the file format and the serving contracts.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.loadtest import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(prog="loadtest"))
