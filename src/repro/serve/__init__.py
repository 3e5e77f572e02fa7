"""Sweep-as-a-service: the persistent campaign daemon.

``repro serve`` keeps one process resident so repeated campaign traffic
— figure rebuilds, config sweeps from CI, exploratory what-if batches —
amortizes everything a cold ``repro run`` pays per invocation: interpreter
and import start-up, calibration fingerprinting, cache directory scans,
and (above all) recomputation of configurations any earlier request
already priced.

The daemon is three performance layers over the existing experiment
stack, each independently testable:

* bounded cache tiers (:mod:`repro.experiments.cache_tiers`) — an
  in-memory L1 LRU over the content-addressed disk L2, with
  journal-tracked LRU eviction under ``--cache-size`` and per-tier
  counters surfaced at ``/stats``;
* single-flight dedup (:mod:`repro.serve.scheduler`) — concurrent
  identical cold requests coalesce onto one fork-pool computation;
* batched analytic evaluation (``POST /batch`` →
  :func:`repro.experiments.runner.run_analytic_batch`) — one pass over a
  whole config batch through the analytic engine ``/run`` misses use.

The wire format is the repo's canonical one: ``/run`` bodies are the
same YAML ``repro run`` takes, ``/batch`` configs are the canonical
cache-key dicts, and every served result is bit-identical to (and
shares disk entries with) its CLI counterpart.  See ``docs/serving.md``.
"""

from repro.serve.app import CampaignServer, create_server
from repro.serve.scheduler import Flight, SingleFlightScheduler

__all__ = [
    "CampaignServer",
    "Flight",
    "SingleFlightScheduler",
    "create_server",
]
