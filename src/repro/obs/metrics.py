"""Counters and gauges for the observability layer.

A :class:`MetricsRegistry` is the numeric complement of span tracing:
where spans answer *when* something happened, metrics answer *how often*
and *how much*.  Every metric is keyed by a name plus optional ``rank``
and ``node`` labels, so one registry can answer three questions about the
same series — the total, the per-rank breakdown, and the per-node
breakdown — without the instrumentation sites caring which aggregation a
consumer wants.

Naming convention (see docs/observability.md): dotted lowercase paths,
``<subsystem>.<quantity>``, e.g. ``comm.bytes``, ``engine.resumes``,
``compute.flops``.  Counters are monotone sums; gauges are
last-write-wins samples (e.g. ``engine.queue_depth``).
"""

from __future__ import annotations

from typing import NamedTuple


class MetricKey(NamedTuple):
    """One labelled series: a metric name plus optional rank/node labels.

    The registry keys its series with plain ``(name, rank, node)``
    tuples, which compare and hash equal to a ``MetricKey``.
    """

    name: str
    rank: int | None = None
    node: int | None = None


class MetricsRegistry:
    """Labelled counters and gauges with per-rank / per-node aggregation.

    >>> m = MetricsRegistry()
    >>> m.inc("comm.messages", 1, rank=0, node=0)
    >>> m.inc("comm.messages", 2, rank=1, node=0)
    >>> m.counter_total("comm.messages")
    3.0
    >>> m.per_rank("comm.messages")
    {0: 1.0, 1: 2.0}
    >>> m.per_node("comm.messages")
    {0: 3.0}
    """

    def __init__(self):
        # (name, rank, node) -> value; plain tuples, hashed in C — a
        # traced run increments hundreds of thousands of times
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}

    # ------------------------------------------------------------- writing
    def inc(self, name: str, value: float = 1.0,
            rank: int | None = None, node: int | None = None) -> None:
        """Add ``value`` to the counter series ``(name, rank, node)``."""
        key = (name, rank, node)
        counters = self._counters
        counters[key] = counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float,
                  rank: int | None = None, node: int | None = None) -> None:
        """Record the latest sample of the gauge ``(name, rank, node)``."""
        self._gauges[(name, rank, node)] = float(value)

    # ------------------------------------------------------------- reading
    def counter_total(self, name: str) -> float:
        """Sum of every labelled series of one counter name."""
        return sum(v for k, v in self._counters.items() if k[0] == name)

    def per_rank(self, name: str) -> dict[int, float]:
        """Counter sums aggregated by the ``rank`` label (unlabelled
        increments are excluded)."""
        out: dict[int, float] = {}
        for (n, rank, _node), v in self._counters.items():
            if n == name and rank is not None:
                out[rank] = out.get(rank, 0.0) + v
        return dict(sorted(out.items()))

    def per_node(self, name: str) -> dict[int, float]:
        """Counter sums aggregated by the ``node`` label."""
        out: dict[int, float] = {}
        for (n, _rank, node), v in self._counters.items():
            if n == name and node is not None:
                out[node] = out.get(node, 0.0) + v
        return dict(sorted(out.items()))

    def gauge(self, name: str, rank: int | None = None,
              node: int | None = None) -> float | None:
        """Latest sample of one gauge series (``None`` if never set)."""
        return self._gauges.get((name, rank, node))

    def counter_names(self) -> list[str]:
        return sorted({k[0] for k in self._counters})

    def gauge_names(self) -> list[str]:
        return sorted({k[0] for k in self._gauges})

    def snapshot(self) -> dict:
        """Deterministic nested dict of every series (for tests/exports).

        Layout: ``{"counters": {name: {"total": x, "by_rank": {...},
        "by_node": {...}}}, "gauges": {name: value_or_by_label}}``.
        """
        counters = {}
        for name in self.counter_names():
            counters[name] = {
                "total": self.counter_total(name),
                "by_rank": self.per_rank(name),
                "by_node": self.per_node(name),
            }
        gauges = {}
        for name in self.gauge_names():
            series = {
                (rank, node): v for (n, rank, node), v in sorted(
                    self._gauges.items(),
                    key=lambda kv: (kv[0][1] is not None, kv[0][1],
                                    kv[0][2] is not None, kv[0][2]),
                ) if n == name
            }
            if list(series) == [(None, None)]:
                gauges[name] = series[(None, None)]
            else:
                gauges[name] = series
        return {"counters": counters, "gauges": gauges}
