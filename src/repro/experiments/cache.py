"""Content-addressed disk cache for analytic configuration results.

The paper grid is 72 configurations x 10 seeded repetitions, and the
figure builders, the summary grid, and ``repro sweep`` all revisit the
same points.  This cache makes every analytic evaluation pay-once: a
result is stored under the SHA-256 of its *full* input description —

* the configuration key (algorithm, n, ranks, shape, repetitions, seed,
  spread, jitter, power cap), and
* a **model fingerprint** hashing every calibration coefficient and
  machine-spec field the analytic evaluator reads.

Because the fingerprint is part of the address, editing any calibration
constant or machine parameter silently invalidates every cached result.
The evaluator *code* is not in the address: after editing it, run with
``REPRO_CACHE_DIR=off`` or clear the cache root.  Entries
are written atomically (temp file + ``os.replace``), so concurrent sweep
workers can share one cache directory; both racers write identical bytes.

A read is schema-checked once, in :meth:`ResultCache.get_dict`; callers
that want a row rather than a ``ConfigResult`` (``repro sweep``, the
daemon's tiers) serve that dict as it is.

Layout: ``<root>/<hash[:2]>/<hash>.json`` with the config echoed inside
each entry for debuggability.  The root defaults to ``.repro-cache/`` in
the working directory and can be moved with ``REPRO_CACHE_DIR`` (set it
to ``off`` — or ``0``/empty — to disable caching entirely).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.cluster.machine import MachineSpec
from repro.cluster.placement import LoadShape
from repro.perfmodel.calibration import Calibration

#: environment override for the cache root ("off"/"0"/"" disables)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"
#: bumped only when the *schema* of stored entries changes
ENTRY_SCHEMA = 1


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def calibration_fingerprint(calib: Calibration) -> str:
    """Hash of the calibration constants alone (no machine).

    ``repro sweep``/``repro run`` print this at startup so warm-vs-cold
    behaviour is diagnosable from logs: two runs with different
    calibration fingerprints can never share cache entries.
    """
    payload = {"schema": ENTRY_SCHEMA,
               "calibration": dataclasses.asdict(calib)}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@functools.lru_cache(maxsize=64)
def model_fingerprint(calib: Calibration, machine: MachineSpec) -> str:
    """Hash of every model input the analytic evaluator depends on.

    Both are (nested) frozen dataclasses, so ``asdict`` enumerates every
    coefficient; any change to any field yields a new fingerprint and
    therefore a different cache address for every configuration.  Being
    frozen they are also hashable, so the hash is memoized per model
    (a process sees a handful), as ``runner``'s L1 already keys on them.
    """
    payload = {
        "schema": ENTRY_SCHEMA,
        "calibration": dataclasses.asdict(calib),
        "machine": dataclasses.asdict(machine),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def result_to_dict(result) -> dict:
    """JSON form of a :class:`~repro.experiments.runner.ConfigResult`,
    fields in declaration order.  ``dataclasses.asdict`` would deep-copy
    every float; the one nested dict is copied here instead."""
    d = {field.name: getattr(result, field.name)
         for field in dataclasses.fields(result)}
    d["shape"] = result.shape.value
    d["domain_means_j"] = dict(result.domain_means_j)
    return d


def result_from_dict(d: dict):
    from repro.experiments.runner import ConfigResult

    d = dict(d)
    d["shape"] = LoadShape(d["shape"])
    return ConfigResult(**d)


def _cache_root() -> Path | None:
    env = os.environ.get(CACHE_DIR_ENV)
    if env is None:
        return Path(DEFAULT_CACHE_DIR)
    if env.strip().lower() in ("", "0", "off", "none"):
        return None
    return Path(env)


class ResultCache:
    """Content-addressed store of ConfigResult entries under one root."""

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------ addressing
    @staticmethod
    def address(config: dict, fingerprint: str) -> str:
        """SHA-256 address of one configuration under one model."""
        return hashlib.sha256(
            canonical_json({"config": config, "model": fingerprint}).encode()
        ).hexdigest()

    def path_for(self, address: str) -> Path:
        return self.root / address[:2] / f"{address}.json"

    # -------------------------------------------------------------- get/put
    def get_dict(self, config: dict, fingerprint: str) -> dict | None:
        """Raw ``result`` dict for the exact (config, model) pair, or None.

        An entry that is valid JSON but malformed — missing the
        ``result`` key, or a result dict the schema rejects (a truncated
        hand edit, a foreign file at the right path) — is treated as a
        miss and **deleted**, so the next writer replaces it instead of
        every reader tripping over it forever.
        """
        path = self.path_for(self.address(config, fingerprint))
        try:
            entry = json.loads(path.read_text())
            row = entry["result"]
            result_from_dict(row)  # schema check; value discarded
        except (FileNotFoundError, json.JSONDecodeError):
            self.misses += 1
            return None
        except (KeyError, TypeError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return row

    def get(self, config: dict, fingerprint: str):
        """Cached ConfigResult for the exact (config, model) pair, or None."""
        row = self.get_dict(config, fingerprint)
        return None if row is None else result_from_dict(row)

    @staticmethod
    def entry_text(address: str, config: dict, fingerprint: str,
                   result_dict: dict) -> str:
        """The exact bytes an entry is stored as (deterministic, so any
        two writers of the same (config, model, result) produce identical
        files — the basis of every bit-identity contract)."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "address": address,
            "config": config,
            "model": fingerprint,
            "result": result_dict,
        }
        return json.dumps(entry, indent=1, sort_keys=True) + "\n"

    def write_text(self, address: str, payload: str) -> Path:
        """Atomically store pre-rendered entry bytes under an address."""
        path = self.path_for(address)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)  # atomic on POSIX; racers write same bytes
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def put_dict(self, config: dict, fingerprint: str,
                 result_dict: dict) -> Path:
        """Store a raw result dict atomically; safe under concurrent
        writers."""
        address = self.address(config, fingerprint)
        return self.write_text(
            address, self.entry_text(address, config, fingerprint,
                                     result_dict))

    def put(self, config: dict, fingerprint: str, result) -> Path:
        """Store a result atomically; safe under concurrent writers."""
        return self.put_dict(config, fingerprint, result_to_dict(result))

    def delete(self, address: str) -> bool:
        """Remove one entry (eviction); True when a file was unlinked.

        ``os.unlink`` is atomic, so a concurrent reader either sees the
        complete entry (its already-open fd stays valid) or a clean
        miss — never a half-evicted file.
        """
        try:
            os.unlink(self.path_for(address))
        except OSError:
            return False
        return True

    def scan(self) -> list[tuple[str, int, float]]:
        """(address, size_bytes, mtime) of every entry under the root,
        ordered oldest-first (ties broken by address for determinism)."""
        found: list[tuple[str, int, float]] = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob("??/*.json"):
            try:
                st = path.stat()
            except OSError:
                continue  # evicted between glob and stat
            found.append((path.stem, st.st_size, st.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found


_DEFAULT_CACHES: dict[Path, ResultCache] = {}


def default_result_cache() -> ResultCache | None:
    """Process-wide cache at the configured root (None when disabled).

    One instance per root, so hit/miss counters accumulate across the
    callers sharing it (figure builders, summary grid, sweep workers).
    """
    root = _cache_root()
    if root is None:
        return None
    cache = _DEFAULT_CACHES.get(root)
    if cache is None:
        cache = _DEFAULT_CACHES[root] = ResultCache(root)
    return cache
