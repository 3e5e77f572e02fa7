"""Configuration runner: repetitions → aggregated results.

``run_analytic`` evaluates a configuration at paper scale through the
analytic model (ten seeded repetitions modelling the changing node sets);
``run_analytic_batch`` does the same for a list of configurations;
``run_monitored`` runs the full monitored DES pipeline at validation scale.

Every analytic miss — ``run_analytic``, ``run_analytic_batch``, and so
``repro sweep``, the figure builders and the serving daemon — is
evaluated by one engine,
:func:`~repro.perfmodel.analytic.analytic_repetitions`, which shares a
configuration's seed-independent base across its repetitions and
returns each repetition already summed over nodes, so
``_aggregate_analytic`` only averages.  The per-repetition loop over
``analytic_run`` it replaces is kept in the tests as the bitwise oracle.

Analytic results are cached at two levels: an in-process ``lru_cache``
(the figure builders share many configurations) backed by the
content-addressed disk cache of :mod:`repro.experiments.cache`, which
survives across processes and is keyed by the configuration *and* a
fingerprint of every calibration/machine coefficient — editing a
coefficient invalidates the stored results automatically.  The model
*code* is not in the key: after editing an evaluator, run with
``REPRO_CACHE_DIR=off`` or clear the cache directory.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass

from repro.cluster.machine import MachineSpec, marconi_a3
from repro.cluster.placement import LoadShape
from repro.experiments.cache import default_result_cache, model_fingerprint
from repro.experiments.configs import PAPER_REPETITIONS
# ``analytic_run`` is unused here but stays a module attribute:
# perfbench/tracing.py patches both names on this module.
from repro.perfmodel.analytic import (  # noqa: F401
    analytic_repetitions,
    analytic_run,
)
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration


@dataclass(frozen=True)
class ConfigResult:
    """Aggregates over the repetitions of one configuration."""

    algorithm: str
    n: int
    ranks: int
    shape: LoadShape
    repetitions: int
    mean_duration: float
    stdev_duration: float
    mean_total_j: float
    mean_package_j: float
    mean_dram_j: float
    domain_means_j: dict

    @property
    def mean_power_w(self) -> float:
        return self.mean_total_j / self.mean_duration

    @property
    def dram_power_w(self) -> float:
        return self.mean_dram_j / self.mean_duration

    def domain_j(self, domain: str) -> float:
        return self.domain_means_j[domain]


def _config_key(
    algorithm: str, n: int, ranks: int, shape: LoadShape,
    repetitions: int, base_seed: int, spread: float, jitter: float,
    power_cap_w: float | None,
) -> dict:
    """The disk-cache configuration key (scalars only; model inputs are
    covered by the fingerprint)."""
    return {
        "algorithm": algorithm,
        "n": n,
        "ranks": ranks,
        "shape": shape.value,
        "repetitions": repetitions,
        "base_seed": base_seed,
        "node_efficiency_spread": spread,
        "fabric_jitter": jitter,
        "power_cap_w": power_cap_w,
    }


@functools.lru_cache(maxsize=4096)
def _run_analytic_cached(
    algorithm: str, n: int, ranks: int, shape: LoadShape,
    repetitions: int, base_seed: int, spread: float, jitter: float,
    power_cap_w: float | None, calib: Calibration, machine: MachineSpec,
) -> ConfigResult:
    """L1 (lru, this process) over L2 (content-addressed disk) over the
    batched engine."""
    return _evaluate_cached(
        default_result_cache(), model_fingerprint(calib, machine),
        algorithm, n, ranks, shape, repetitions, base_seed, spread, jitter,
        power_cap_w, calib, machine,
    )


def _aggregate_analytic(
    algorithm: str, n: int, ranks: int, shape: LoadShape,
    repetitions: int, runs: list,
) -> ConfigResult:
    """Fold per-repetition sums
    (:class:`~repro.perfmodel.analytic.RepetitionEnergy`) into one
    ConfigResult: ``fmean`` of each sum, ``stdev`` of the durations."""
    durations = [r.duration for r in runs]
    domains = sorted({d for r in runs for d in r.domain_j})
    return ConfigResult(
        algorithm=algorithm,
        n=n,
        ranks=ranks,
        shape=shape,
        repetitions=repetitions,
        mean_duration=statistics.fmean(durations),
        stdev_duration=statistics.stdev(durations) if len(runs) > 1 else 0.0,
        mean_total_j=statistics.fmean([r.total_j for r in runs]),
        mean_package_j=statistics.fmean([r.package_j for r in runs]),
        mean_dram_j=statistics.fmean([r.dram_j for r in runs]),
        domain_means_j={
            d: statistics.fmean([r.domain_j.get(d, 0) for r in runs])
            for d in domains
        },
    )


def _evaluate_cached(
    disk, fingerprint: str,
    algorithm: str, n: int, ranks: int, shape: LoadShape,
    repetitions: int, base_seed: int, spread: float, jitter: float,
    power_cap_w: float | None, calib: Calibration, machine: MachineSpec,
) -> ConfigResult:
    """One configuration through ``disk`` (None: no cache).  A hit is
    returned as stored; a miss is evaluated by the batched engine — one
    base evaluation shared by all repetitions, see
    :func:`repro.perfmodel.analytic.analytic_repetitions` — and written
    back."""
    if disk is not None:
        config = _config_key(algorithm, n, ranks, shape, repetitions,
                             base_seed, spread, jitter, power_cap_w)
        hit = disk.get(config, fingerprint)
        if hit is not None:
            return hit
    runs = analytic_repetitions(
        algorithm, n, ranks, shape, machine,
        calib=calib,
        base_seed=base_seed,
        repetitions=repetitions,
        node_efficiency_spread=spread,
        fabric_jitter=jitter,
        power_cap_w=power_cap_w,
    )
    result = _aggregate_analytic(algorithm, n, ranks, shape, repetitions,
                                 runs)
    if disk is not None:
        disk.put(config, fingerprint, result)
    return result


#: sentinel: "use the environment-resolved disk cache"
_DEFAULT_CACHE = object()


def run_analytic_batch(
    requests: list[dict],
    machine: MachineSpec | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
    cache=_DEFAULT_CACHE,
) -> list[ConfigResult]:
    """Evaluate a batch of analytic configurations through the batched
    engine and the disk cache.

    Each request is a mapping with :func:`run_analytic`'s keyword names
    (``algorithm``/``n``/``ranks`` required; ``shape``, ``repetitions``,
    ``base_seed``, ``node_efficiency_spread``, ``fabric_jitter``,
    ``power_cap_w`` defaulted identically), so a batch entry and a
    ``run_analytic`` call describe the same cache address and produce
    the same bytes.  Misses are evaluated by the batched engine — base
    times shared across a configuration's repetitions, energy priced per
    occupancy class — the same engine :func:`run_analytic` uses.

    ``cache`` overrides the environment-resolved disk cache: any object
    with the same ``get(config, fingerprint)``/``put(config,
    fingerprint, result)`` surface (e.g. the serving daemon's tiers),
    or ``None`` to evaluate without touching any cache.
    """
    machine = machine if machine is not None else marconi_a3()
    fingerprint = model_fingerprint(calib, machine)
    disk = default_result_cache() if cache is _DEFAULT_CACHE else cache
    results: list[ConfigResult] = []
    for request in requests:
        shape = request.get("shape", LoadShape.FULL)
        results.append(_evaluate_cached(
            disk, fingerprint,
            request["algorithm"], request["n"], request["ranks"],
            shape if isinstance(shape, LoadShape) else LoadShape(shape),
            request.get("repetitions", PAPER_REPETITIONS),
            request.get("base_seed", 0),
            request.get("node_efficiency_spread", 0.02),
            request.get("fabric_jitter", 0.02),
            request.get("power_cap_w"), calib, machine,
        ))
    return results


def run_analytic(
    algorithm: str,
    n: int,
    ranks: int,
    shape: LoadShape = LoadShape.FULL,
    machine: MachineSpec | None = None,
    repetitions: int = PAPER_REPETITIONS,
    base_seed: int = 0,
    node_efficiency_spread: float = 0.02,
    fabric_jitter: float = 0.02,
    power_cap_w: float | None = None,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> ConfigResult:
    """Aggregate ``repetitions`` analytic runs of one configuration."""
    return _run_analytic_cached(
        algorithm, n, ranks, shape, repetitions, base_seed,
        node_efficiency_spread, fabric_jitter, power_cap_w, calib,
        machine if machine is not None else marconi_a3(),
    )


def run_skeleton(
    algorithm: str,
    n: int,
    ranks: int,
    shape: LoadShape = LoadShape.FULL,
    machine: MachineSpec | None = None,
    repetitions: int = 1,
    nb: int = 64,
) -> ConfigResult:
    """Run the exact communication skeleton through the DES (paper scale).

    The exact skeletons (:mod:`repro.obs.symbolic`) issue the full
    solver's complete communication schedule and flop charges without
    the numerics, so the DES reaches the paper's n = 34560 on one
    machine while every modeled quantity stays bitwise equal to a full
    solver run of the same Job.  The run is deterministic (zero fabric
    jitter / node spread), so one evaluation covers any repetition
    count: ``stdev_duration`` is exactly 0.
    """
    from repro.obs.symbolic import run_skeleton_job

    result = run_skeleton_job(algorithm, n, ranks, shape=shape,
                              machine=machine, nb=nb)
    domains = sorted({d for (_node, d) in result.node_energy_j})
    return ConfigResult(
        algorithm=algorithm,
        n=n,
        ranks=ranks,
        shape=shape,
        repetitions=repetitions,
        mean_duration=result.duration,
        stdev_duration=0.0,
        mean_total_j=result.total_energy_j,
        mean_package_j=result.package_energy_j,
        mean_dram_j=result.dram_energy_j,
        domain_means_j={d: result.domain_energy_j(d) for d in domains},
    )


def run_monitored(
    algorithm: str,
    system,
    ranks: int,
    shape: LoadShape = LoadShape.FULL,
    machine: MachineSpec | None = None,
    repetitions: int = 3,
    profile=None,
    tracer_factory=None,
    **spec_kwargs,
) -> ConfigResult:
    """Run a configuration through the monitored DES (validation scale).

    ``tracer_factory`` (zero-argument, returning a fresh tracer per
    repetition) is forwarded to
    :meth:`~repro.core.framework.MonitoringFramework.run_experiment`;
    keep references on the caller's side to inspect the traces.
    """
    # The monitored DES loads only here: an analytic or serving process
    # never imports ``simmpi``, ``runtime`` or ``core``.
    from repro.core.framework import ExperimentSpec, MonitoringFramework

    spec = ExperimentSpec(
        algorithm=algorithm,
        system=system,
        ranks=ranks,
        shape=shape,
        repetitions=repetitions,
        machine=machine if machine is not None else marconi_a3(),
        profile=profile,
        **spec_kwargs,
    )
    result = MonitoringFramework().run_experiment(
        spec, tracer_factory=tracer_factory
    )
    n_sockets = spec.machine.sockets_per_node
    domains = [f"package-{s}" for s in range(n_sockets)] + \
              [f"dram-{s}" for s in range(n_sockets)]
    return ConfigResult(
        algorithm=algorithm,
        n=system.n,
        ranks=ranks,
        shape=shape,
        repetitions=repetitions,
        mean_duration=result.mean_duration,
        stdev_duration=result.stdev_duration(),
        mean_total_j=result.mean_total_j,
        mean_package_j=result.mean_package_j,
        mean_dram_j=result.mean_dram_j,
        domain_means_j={d: result.domain_j(d) for d in domains},
    )
