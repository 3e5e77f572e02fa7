"""Data series for the paper's Figures 3–7 (§5.2).

Every function returns plain dict/list structures (no plotting — the
benchmark harness prints the same rows/series the paper charts), keyed the
way the corresponding figure organizes its axes:

* Figure 3 — energy of full vs half-loaded processors, per algorithm;
* Figure 4 — energy & time vs matrix dimension at fixed ranks;
* Figure 5 — energy & time vs ranks at fixed matrix dimension;
* Figure 6 — energy & power vs matrix dimension at fixed ranks;
* Figure 7 — energy & power vs ranks at fixed matrix dimension.

All values are repetition means from the analytic runner on Marconi A3
(48-core FULL deployments for Figures 4–7, as in the paper).
"""

from __future__ import annotations

from repro.cluster.machine import MachineSpec, marconi_a3
from repro.cluster.placement import LoadShape
from repro.experiments.configs import ALGORITHMS, PAPER_RANKS
from repro.experiments.runner import run_analytic_batch
from repro.workloads.generator import PAPER_MATRIX_SIZES

_SHAPES = (LoadShape.FULL, LoadShape.HALF_ONE_SOCKET,
           LoadShape.HALF_TWO_SOCKETS)


def _batch(machine: MachineSpec, points: list[tuple]) -> dict:
    """``{(algorithm, n, ranks, shape): ConfigResult}`` for ``points``,
    from one :func:`run_analytic_batch` call."""
    requests = [{"algorithm": a, "n": n, "ranks": r, "shape": shape}
                for a, n, r, shape in points]
    return dict(zip(points, run_analytic_batch(requests, machine)))


def figure3(machine: MachineSpec | None = None,
            ranks: int = 144) -> dict:
    """Fig. 3: energy of the three load shapes across matrix dimensions.

    Returns ``{algorithm: {shape.value: {n: energy_J}}}``.
    """
    res = _batch(machine or marconi_a3(),
                 [(a, n, ranks, shape) for a in ALGORITHMS
                  for shape in _SHAPES for n in PAPER_MATRIX_SIZES])
    return {a: {shape.value: {n: res[a, n, ranks, shape].mean_total_j
                              for n in PAPER_MATRIX_SIZES}
                for shape in _SHAPES}
            for a in ALGORITHMS}


def _full_series(machine: MachineSpec | None, by_ranks: bool,
                 fields: dict[str, str]) -> dict:
    """Figures 4–7: every algorithm's FULL-deployment series, from one
    :func:`run_analytic_batch` call.

    With ``by_ranks`` the series are keyed by rank count and their
    points by matrix dimension, otherwise the other way round; each
    point maps the output names of ``fields`` to the named
    :class:`ConfigResult` attributes.
    """
    outer, inner = ((PAPER_RANKS, PAPER_MATRIX_SIZES) if by_ranks
                    else (PAPER_MATRIX_SIZES, PAPER_RANKS))

    def point(a, o, i):
        return (a, i, o, LoadShape.FULL) if by_ranks \
            else (a, o, i, LoadShape.FULL)

    res = _batch(machine or marconi_a3(),
                 [point(a, o, i) for a in ALGORITHMS
                  for o in outer for i in inner])
    return {a: {o: {i: {name: getattr(res[point(a, o, i)], attr)
                        for name, attr in fields.items()}
                    for i in inner}
                for o in outer}
            for a in ALGORITHMS}


def figure4(machine: MachineSpec | None = None) -> dict:
    """Fig. 4: energy & time vs matrix dimension, one series per rank count.

    Returns ``{algorithm: {ranks: {n: {"energy_j", "duration_s"}}}}``.
    """
    return _full_series(machine, True, {"energy_j": "mean_total_j",
                                        "duration_s": "mean_duration"})


def figure5(machine: MachineSpec | None = None) -> dict:
    """Fig. 5: energy & time vs ranks, one series per matrix dimension.

    Returns ``{algorithm: {n: {ranks: {"energy_j", "duration_s"}}}}``.
    """
    return _full_series(machine, False, {"energy_j": "mean_total_j",
                                         "duration_s": "mean_duration"})


def figure6(machine: MachineSpec | None = None) -> dict:
    """Fig. 6: energy & power vs matrix dimension at fixed ranks.

    Returns ``{algorithm: {ranks: {n: {"energy_j", "power_w"}}}}``.
    """
    return _full_series(machine, True, {"energy_j": "mean_total_j",
                                        "power_w": "mean_power_w"})


def figure7(machine: MachineSpec | None = None) -> dict:
    """Fig. 7: energy & power vs ranks at fixed matrix dimension.

    Returns ``{algorithm: {n: {ranks: {"energy_j", "power_w"}}}}``.
    """
    return _full_series(machine, False, {"energy_j": "mean_total_j",
                                         "power_w": "mean_power_w"})
