"""Per-layer metrics of a traced pass.

Every traced run prints every metric below, whichever workload it runs,
so a layer the workload never enters reads 0.  Host time is reported as
a share of the traced pass's wall time (``_pct``, summed over threads),
which reads 0 — not a fabricated time — where a layer is not entered.
"""

from __future__ import annotations

#: (metric, unit, layer, kind): kind "self" = self-time share of the
#: layer, "total" = inclusive share, "calls" = wrapper calls
_SPAN_METRICS = (
    ("simmpi.engine.self_pct", "%", "simmpi.engine", "self"),
    ("simmpi.fastcoll.self_pct", "%", "simmpi.fastcoll", "self"),
    ("simmpi.fastcoll.calls", "count", "simmpi.fastcoll", "calls"),
    ("simmpi.aggregate.self_pct", "%", "simmpi.aggregate", "self"),
    ("simmpi.aggregate.calls", "count", "simmpi.aggregate", "calls"),
    ("simmpi.fastp2p.self_pct", "%", "simmpi.fastp2p", "self"),
    ("simmpi.fastp2p.calls", "count", "simmpi.fastp2p", "calls"),
    ("runtime.job.build_pct", "%", "runtime.job.build", "self"),
    ("runtime.compute.self_pct", "%", "runtime.compute", "self"),
    ("runtime.compute.calls", "count", "runtime.compute", "calls"),
    ("energy.rapl.self_pct", "%", "energy.rapl", "self"),
    ("energy.rapl.calls", "count", "energy.rapl", "calls"),
    ("energy.papi.self_pct", "%", "energy.papi", "self"),
    ("energy.papi.calls", "count", "energy.papi", "calls"),
    ("solvers.program.self_pct", "%", "solvers.program", "self"),
    ("core.monitoring.program.self_pct", "%", "core.monitoring.program",
     "self"),
    ("solvers.kernels.flush_pct", "%", "solvers.kernels.flush", "self"),
    ("solvers.kernels.flush_calls", "count", "solvers.kernels.flush",
     "calls"),
    ("obs.symbolic.program.self_pct", "%", "obs.symbolic.program", "self"),
    ("workloads.generate_pct", "%", "workloads.generate", "self"),
    ("perfmodel.analytic.self_pct", "%", "perfmodel.analytic", "self"),
    ("perfmodel.analytic.calls", "count", "perfmodel.analytic", "calls"),
    ("experiments.cache.get_pct", "%", "experiments.cache.get", "self"),
    ("experiments.cache.gets", "count", "experiments.cache.get", "calls"),
    ("experiments.cache.put_pct", "%", "experiments.cache.put", "self"),
    ("experiments.cache.puts", "count", "experiments.cache.put", "calls"),
    ("experiments.sweep.task_pct", "%", "experiments.sweep.task", "self"),
    ("experiments.sweep.pool_wait_pct", "%", "experiments.sweep", "self"),
    ("experiments.cache_tiers.get_pct", "%", "experiments.cache_tiers.get",
     "self"),
    ("experiments.cache_tiers.put_pct", "%", "experiments.cache_tiers.put",
     "self"),
    ("serve.handler_pct", "%", "serve.handler", "total"),
    ("serve.flight_wait_pct", "%", "serve.flight_wait", "total"),
)

#: counters recorded by wrapper hooks or read from the program's own stats
_COUNT_METRICS = (
    ("simmpi.engine.resumes", "count"),
    ("simmpi.fastp2p.degrades", "count"),
    ("experiments.cache.hits", "count"),
    ("experiments.cache.bytes_written", "bytes"),
    ("experiments.runner.lru_hits", "count"),
    ("experiments.runner.lru_misses", "count"),
    ("experiments.cache_tiers.l1_hits", "count"),
    ("experiments.cache_tiers.l1_misses", "count"),
    ("experiments.cache_tiers.l2_hits", "count"),
    ("experiments.cache_tiers.evictions", "count"),
    ("serve.scheduler.launched", "count"),
    ("serve.scheduler.coalesced", "count"),
)

PER_LAYER_UNITS = {name: unit for name, unit, _layer, _kind in _SPAN_METRICS}
PER_LAYER_UNITS.update(dict(_COUNT_METRICS))
PER_LAYER_UNITS.update({
    "solvers.kernels.flush_gflop": "GFLOP",
    "solvers.kernels.flush_gflops_per_s": "GFLOP/s",
    "experiments.cache.puts_per_config": "ratio",
    "serve.client_overhead_pct": "%",
    "serve.hit_tail_pctile": "pctile",
    "serve.hit_tail_over_p50": "ratio",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "trace.counts_repeat": "count",
})

#: metrics that must repeat exactly between two traced passes.  Whether
#: the second request of a shared serve miss arrives while its flight
#: runs (it coalesces, missing L1 and disk) or after (an L1 hit) is
#: timing, so these counts are compared with the coalesced count added
#: with the sign that cancels it; the workload checks the coalesced
#: count itself every round.
_RACY = {"experiments.cache_tiers.l1_hits": 1,
         "experiments.cache_tiers.l1_misses": -1,
         "experiments.cache.gets": -1}
_EXACT = {name for name, unit in PER_LAYER_UNITS.items()
          if unit in ("count", "bytes", "GFLOP", "ratio")
          and not name.startswith(("trace.", "serve.hit_tail"))} \
    - {"serve.scheduler.coalesced"}


def layer_metrics(workload, totals: dict, extra: dict, wall: float,
                  hit_tail) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the subset that must
    repeat exactly (the counts)."""
    pct = 100.0 / wall
    out: dict[str, float] = {}
    for name, _unit, layer, kind in _SPAN_METRICS:
        if kind == "self":
            out[name] = pct * totals["self_s"].get(layer, 0.0)
        elif kind == "total":
            out[name] = pct * totals["total_s"].get(layer, 0.0)
        else:
            out[name] = totals["calls"].get(layer, 0)
    counts = dict(totals["counts"])
    counts.update(extra)
    for name, _unit in _COUNT_METRICS:
        out[name] = counts.get(name, 0)

    flop = counts.get("solvers.kernels.flush_flop", 0.0)
    flush_s = totals["self_s"].get("solvers.kernels.flush", 0.0)
    out["solvers.kernels.flush_gflop"] = flop / 1e9
    out["solvers.kernels.flush_gflops_per_s"] = \
        flop / 1e9 / flush_s if flush_s else 0.0
    configs = counts.get("configs_cold", 0)
    out["experiments.cache.puts_per_config"] = \
        out["experiments.cache.puts"] / configs if configs else 0.0
    rtt = counts.get("client_rtt_s", 0.0)
    handled = totals["total_s"].get("serve.handler", 0.0)
    out["serve.client_overhead_pct"] = pct * (rtt - handled) if rtt else 0.0
    if hit_tail is not None:
        pctile, value = hit_tail
        p50 = workload.metrics()["fast_op_ms"]
        out["serve.hit_tail_pctile"] = pctile
        out["serve.hit_tail_over_p50"] = value / p50
    else:
        out["serve.hit_tail_pctile"] = 0
        out["serve.hit_tail_over_p50"] = 0.0
    out["trace.unattributed_pct"] = \
        100.0 * workload.unattributed_share(totals, wall)
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "bytes") and name in out \
                and float(out[name]).is_integer():
            out[name] = int(out[name])
    coalesced = out["serve.scheduler.coalesced"]
    return out, {name: out[name] + _RACY.get(name, 0) * coalesced
                 for name in sorted(_EXACT)}
