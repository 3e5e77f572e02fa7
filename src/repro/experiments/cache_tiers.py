"""Bounded two-tier result cache: in-memory L1 LRU over the disk L2.

The serving daemon (:mod:`repro.serve`) answers most traffic from cache,
so the cache itself becomes the performance- and capacity-critical
component.  This module layers two bounds over the content-addressed
store of :mod:`repro.experiments.cache`:

* **L1** — an in-process ``OrderedDict`` LRU of raw result dicts,
  bounded by entry count (``l1_entries``).  A hit costs one dict lookup;
  no JSON parse, no disk.
* **L2** — the existing on-disk :class:`~repro.experiments.cache.ResultCache`,
  optionally bounded by total entry bytes (``max_bytes``).  Before a
  write would exceed the bound, least-recently-used entries are evicted
  (atomic unlink — a concurrent reader sees the full file or a clean
  miss, never a torn one).  Recency survives restarts through an
  append-only journal (``<root>/journal.jsonl``) replayed over a
  directory scan at startup, so a fresh daemon does not forget which
  entries were hot.

Eviction is **inclusive downwards**: evicting an address from L2 also
drops it from L1, so "evicted" means the next request recomputes — and,
because entry bytes are deterministic, re-caches bit-identically at the
same address.  All counters (per-tier hits/misses, evictions, evicted
bytes) are maintained under one lock and exposed via :meth:`stats` —
the numbers behind the daemon's ``/stats`` endpoint.

Entries written to the same root by *other* processes (e.g. a
``repro sweep`` pointed at the daemon's cache dir) are picked up by the
next :meth:`refresh`/restart scan; the byte bound is enforced for this
instance's own writes.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path

from repro.experiments.cache import ResultCache

#: journal entries per live entry before the journal is compacted
JOURNAL_SLACK = 8
JOURNAL_NAME = "journal.jsonl"


def parse_size(text: str) -> int:
    """``"64M"``/``"1G"``/``"4096"`` → bytes (K/M/G suffixes, base 1024)."""
    raw = text.strip().lower()
    factor = 1
    for suffix, mult in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if raw.endswith(suffix):
            raw, factor = raw[:-1], mult
            break
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"unparseable size {text!r} (use e.g. 64M, 1G)")
    if value < 0:
        raise ValueError(f"negative size {text!r}")
    return value * factor


class TieredResultCache:
    """L1 LRU over a (optionally byte-bounded) disk L2, one lock, counters."""

    def __init__(self, root: Path | str | None,
                 max_bytes: int | None = None,
                 l1_entries: int = 1024):
        self.disk = ResultCache(root) if root is not None else None
        self.max_bytes = max_bytes
        self.l1_entries = l1_entries
        self._lock = threading.RLock()
        #: address -> raw result dict, LRU order (oldest first)
        self._l1: OrderedDict[str, dict] = OrderedDict()
        #: address -> entry bytes on disk, LRU order (oldest first)
        self._sizes: OrderedDict[str, int] = OrderedDict()
        self._total_bytes = 0
        self._journal_lines = 0
        self.l1_hits = 0
        self.l1_misses = 0
        self.l2_hits = 0
        self.l2_misses = 0
        self.puts = 0
        self.evictions = 0
        self.evicted_bytes = 0
        if self.disk is not None:
            self.refresh()

    # ------------------------------------------------------------ addressing
    @staticmethod
    def address(config: dict, fingerprint: str) -> str:
        return ResultCache.address(config, fingerprint)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._total_bytes

    # ---------------------------------------------------------------- get/put
    def get(self, config: dict, fingerprint: str,
            address: str | None = None) -> dict | None:
        """Raw result dict, or None.  L1 first, then disk (promoting the
        hit into L1); every counter update happens under the lock.
        ``address`` passes in an address the caller already computed."""
        if address is None:
            address = self.address(config, fingerprint)
        with self._lock:
            row = self._l1.get(address)
            if row is not None:
                self._l1.move_to_end(address)
                self.l1_hits += 1
                return row
            self.l1_misses += 1
            if self.disk is None:
                return None
            row = self.disk.get_dict(config, fingerprint)
            if row is None:
                self.l2_misses += 1
                return None
            self.l2_hits += 1
            self._admit_l1(address, row)
            self._touch(address)
            return row

    def put(self, config: dict, fingerprint: str, result_dict: dict) -> None:
        """Store a raw result dict in both tiers, evicting LRU disk
        entries first so the root never exceeds ``max_bytes``."""
        address = self.address(config, fingerprint)
        with self._lock:
            self.puts += 1
            self._admit_l1(address, result_dict)
            if self.disk is None:
                return
            payload = self.disk.entry_text(address, config, fingerprint,
                                           result_dict)
            nbytes = len(payload.encode("utf-8"))
            if self.max_bytes is not None:
                if nbytes > self.max_bytes:
                    # Larger than the whole budget: serve from L1 only.
                    return
                self._drop_size(address)  # overwrite: uncount the old bytes
                while (self._total_bytes + nbytes > self.max_bytes
                       and self._sizes):
                    victim = next(iter(self._sizes))
                    self._evict(victim)
            self.disk.write_text(address, payload)
            self._drop_size(address)
            self._sizes[address] = nbytes
            self._total_bytes += nbytes
            self._journal("put", address, nbytes)

    # --------------------------------------------------------------- internals
    def _admit_l1(self, address: str, row: dict) -> None:
        self._l1[address] = row
        self._l1.move_to_end(address)
        while len(self._l1) > self.l1_entries:
            self._l1.popitem(last=False)

    def _touch(self, address: str) -> None:
        if address in self._sizes:
            self._sizes.move_to_end(address)
            self._journal("touch", address)

    def _drop_size(self, address: str) -> None:
        old = self._sizes.pop(address, None)
        if old is not None:
            self._total_bytes -= old

    def _evict(self, address: str) -> None:
        nbytes = self._sizes.get(address, 0)
        self.disk.delete(address)
        self._drop_size(address)
        self._l1.pop(address, None)  # inclusive: evicted means gone
        self.evictions += 1
        self.evicted_bytes += nbytes
        self._journal("evict", address)

    # ----------------------------------------------------------------- journal
    @property
    def _journal_path(self) -> Path:
        return self.disk.root / JOURNAL_NAME

    def _journal(self, op: str, address: str, nbytes: int | None = None) -> None:
        record = {"op": op, "addr": address}
        if nbytes is not None:
            record["bytes"] = nbytes
        line = json.dumps(record, sort_keys=True)
        path = self._journal_path
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(line + "\n")
        self._journal_lines += 1
        slack = max(256, JOURNAL_SLACK * max(1, len(self._sizes)))
        if self._journal_lines > slack:
            self._compact_journal()

    def _compact_journal(self) -> None:
        """Rewrite the journal as one ``put`` line per live entry in LRU
        order (atomic rename, same idiom as the entries themselves)."""
        lines = [json.dumps({"op": "put", "addr": addr, "bytes": nbytes},
                            sort_keys=True)
                 for addr, nbytes in self._sizes.items()]
        tmp = self._journal_path.with_suffix(".tmp")
        tmp.write_text("".join(line + "\n" for line in lines))
        tmp.replace(self._journal_path)
        self._journal_lines = len(lines)

    def refresh(self) -> None:
        """(Re)build the L2 accounting: directory scan ordered by mtime,
        refined by the journal's recency records where available."""
        with self._lock:
            sizes: OrderedDict[str, int] = OrderedDict(
                (address, nbytes)
                for address, nbytes, _mtime in self.disk.scan()
            )
            self._journal_lines = 0
            try:
                journal_text = self._journal_path.read_text()
            except OSError:
                journal_text = ""
            for line in journal_text.splitlines():
                self._journal_lines += 1
                try:
                    record = json.loads(line)
                    op, address = record["op"], record["addr"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn append; recency only, safe to skip
                if address in sizes and op in ("put", "touch"):
                    sizes.move_to_end(address)
            self._sizes = sizes
            self._total_bytes = sum(sizes.values())

    # ------------------------------------------------------------------- stats
    def stats(self) -> dict:
        with self._lock:
            return {
                "l1": {
                    "entries": len(self._l1),
                    "limit": self.l1_entries,
                    "hits": self.l1_hits,
                    "misses": self.l1_misses,
                },
                "l2": {
                    "enabled": self.disk is not None,
                    "entries": len(self._sizes),
                    "bytes": self._total_bytes,
                    "max_bytes": self.max_bytes,
                    "hits": self.l2_hits,
                    "misses": self.l2_misses,
                    "evictions": self.evictions,
                    "evicted_bytes": self.evicted_bytes,
                },
                "puts": self.puts,
            }
