"""Closed-form performance/energy evaluation at paper scale.

Evaluates the two solvers' cost models against the machine model to produce
duration, per-domain energy, and power for any (algorithm, n, layout)
point — including the paper's full grid (n up to 34560 on up to 1296
ranks), far beyond what real numerics in Python could execute.

Structure of the models
-----------------------
Both solvers are bulk-synchronous: total time = compute + communication.

*Compute* uses the published flop counts over the per-core effective rates
of the shared calibration.  *Communication* prices the algorithms' actual
message structure on the fabric, with SMP-aware (hierarchical) tree costs:
a collective spanning ``m`` nodes × ``r`` ranks/node costs
``log₂m`` inter-node hops plus the remaining ``log₂(m·r) − log₂m`` hops at
intra-node cost.  This geometry is what differentiates the two algorithms
at scale: IMe's collectives run on whole-world communicators (block rank
placement → deep intra-node subtrees), while ScaLAPACK's pivot chain runs
down *strided* process columns whose members almost all live on different
nodes — every hop pays inter-node latency, n times, which is where the
paper's crossover (IMe winning the most distributed deployments) comes
from.

Per-repetition variance (the paper's changing node sets) enters as seeded
node-efficiency and fabric-jitter draws, matching the DES knobs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cluster.machine import MachineSpec, NetworkParams
from repro.cluster.placement import Layout, LoadShape, Placement, layout_for
from repro.energy.power_model import PackagePower
from repro.perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perfmodel.timeline import node_timeline, uniform_run_timelines
from repro.solvers.ime.costmodel import ImeCostModel
from repro.solvers.scalapack.costmodel import ScalapackCostModel
from repro.solvers.scalapack.grid import ProcessGrid

ALGORITHMS = ("ime", "scalapack")


@dataclass(frozen=True)
class AnalyticResult:
    """One analytic run (one repetition of one configuration)."""

    algorithm: str
    n: int
    layout: Layout
    duration: float
    compute_seconds: float
    comm_seconds: float
    node_energy_j: dict
    messages: float
    volume_bytes: float
    freq_ratio: float = 1.0

    @property
    def total_energy_j(self) -> float:
        return sum(self.node_energy_j.values())

    def domain_energy_j(self, domain: str) -> float:
        return sum(v for (_n, d), v in self.node_energy_j.items() if d == domain)

    @property
    def package_energy_j(self) -> float:
        return sum(v for (_n, d), v in self.node_energy_j.items()
                   if d.startswith("package"))

    @property
    def dram_energy_j(self) -> float:
        return sum(v for (_n, d), v in self.node_energy_j.items()
                   if d.startswith("dram"))

    @property
    def mean_power_w(self) -> float:
        return self.total_energy_j / self.duration if self.duration else 0.0

    @property
    def dram_power_w(self) -> float:
        return self.dram_energy_j / self.duration if self.duration else 0.0


# --------------------------------------------------------------- geometry
def _hier_hops(members: int, nodes_spanned: int) -> tuple[int, int]:
    """(inter_hops, intra_hops) of a binomial tree over a communicator."""
    if members <= 1:
        return (0, 0)
    total = math.ceil(math.log2(members))
    if nodes_spanned <= 1:
        return (0, total)
    inter = min(total, math.ceil(math.log2(nodes_spanned)))
    return (inter, total - inter)


def _tree_latency(members: int, nodes_spanned: int, net: NetworkParams) -> float:
    inter, intra = _hier_hops(members, nodes_spanned)
    return (inter * (net.cpu_overhead + net.inter_latency)
            + intra * (net.cpu_overhead + net.intra_latency))


def _bw_time(nbytes: float, nodes_spanned: int, net: NetworkParams,
             links: float = 1.0) -> float:
    bw = net.inter_bandwidth if nodes_spanned > 1 else net.intra_bandwidth
    return links * nbytes / bw


# ------------------------------------------------------------------- IMe
def ime_analytic_times(n: int, layout: Layout, machine: MachineSpec,
                       calib: Calibration) -> tuple[float, float]:
    """(compute_seconds, comm_seconds) of IMeP."""
    N = layout.ranks
    net = machine.network
    cm = ImeCostModel()
    compute = float(cm.level_flops_per_rank(n, N).sum()) \
        / calib.ime_profile.eff_flops_per_core

    nodes = layout.nodes
    rpn = layout.ranks_per_node
    lat = _tree_latency(N, nodes, net)
    levels = np.arange(n, dtype=np.float64)
    col_bytes = 8.0 * (n - levels)
    # Per level three tree collectives run: the pivot-column broadcast, the
    # last-row gather, and the auxiliary (h) broadcast.  The column
    # broadcast is independent of the master's gather→h chain within a
    # level, so an implementation overlaps part of the sequence;
    # ``ime_overlap_factor`` scales the fully-serialized sum down to the
    # modelled critical path.
    col_bcast = lat + _bw_time(col_bytes, nodes, net,
                               links=calib.bcast_pipeline_links)
    gather = lat + _bw_time(8.0 * n, nodes, net)
    h_bcast = lat + _bw_time(16.0, nodes, net)
    comm = float((col_bcast + gather + h_bcast).sum()) * calib.ime_overlap_factor
    # INITIME distribution: the table leaves the master once (n² floats).
    comm += _bw_time(8.0 * n * n, nodes, net)
    return compute, comm


# -------------------------------------------------------------- ScaLAPACK
def scalapack_analytic_times(n: int, layout: Layout, machine: MachineSpec,
                             calib: Calibration) -> tuple[float, float]:
    """(compute_seconds, comm_seconds) of block-cyclic LU + solve."""
    N = layout.ranks
    net = machine.network
    grid = ProcessGrid.squarest(N)
    cm = ScalapackCostModel(nb=calib.scal_nb)
    compute = float(cm.level_flops_per_rank(n, N).sum()) \
        / calib.scalapack_profile.eff_flops_per_core
    compute += 2.0 * n * n / N / calib.scalapack_profile.eff_flops_per_core
    if calib.scal_imbalance:
        # Block-cyclic edge imbalance: the busiest rank holds up to one
        # extra block row/column, i.e. (1 + nb·√P/n)² more trailing matrix.
        compute *= (1.0 + calib.scal_nb * math.sqrt(N) / n) ** 2

    nodes = layout.nodes
    rpn = layout.ranks_per_node
    # Process rows are contiguous in world rank (row-major grid) → their
    # collectives enjoy SMP locality; process columns are strided by Pc →
    # they span min(Pr, nodes) distinct nodes.
    row_nodes = max(1, math.ceil(grid.npcol / rpn)) if nodes > 1 else 1
    col_nodes = min(grid.nprow, nodes)

    # Pivoting chain, once per matrix column (§2.2 partial pivoting):
    # max-loc allreduce down the process column, the row exchange, and the
    # pivot-row broadcast within the panel column.
    allreduce = 2.0 * _tree_latency(grid.nprow, col_nodes, net)
    swap_bytes = 8.0 * n / grid.npcol
    swap = 2.0 * ((net.cpu_overhead + (net.inter_latency if nodes > 1
                                       else net.intra_latency))
                  + _bw_time(swap_bytes, col_nodes, net))
    prow_bcast = _tree_latency(grid.nprow, col_nodes, net) \
        + _bw_time(8.0 * calib.scal_nb, col_nodes, net)
    pivot_chain = n * (allreduce + swap + prow_bcast) * calib.scal_pivot_factor

    # Panel broadcasts (L21 along rows, U12 down columns), once per panel.
    k = cm.panel_starts(n)
    kb = np.minimum(calib.scal_nb, n - k)
    remaining = np.maximum(n - k - kb, 0.0)
    l21_bytes = 8.0 * kb * remaining / grid.nprow
    u12_bytes = 8.0 * kb * remaining / grid.npcol
    panels = float(
        (_tree_latency(grid.npcol, row_nodes, net)
         + _bw_time(l21_bytes, row_nodes, net,
                    links=calib.bcast_pipeline_links)).sum()
        + (_tree_latency(grid.nprow, col_nodes, net)
           + _bw_time(u12_bytes, col_nodes, net,
                      links=calib.bcast_pipeline_links)).sum()
    )

    # Distributed triangular solves: per block, a row-comm reduction plus a
    # grid-wide broadcast of the solved block.
    nblocks = cm.n_panels(n)
    solve = 2.0 * nblocks * (
        _tree_latency(grid.npcol, row_nodes, net)
        + _tree_latency(N, nodes, net)
        + _bw_time(8.0 * calib.scal_nb, nodes, net)
    )

    # Initial distribution of the matrix from rank 0.
    init = _bw_time(8.0 * n * n, nodes, net)
    return compute, pivot_chain + panels + solve + init


# ------------------------------------------------------------- entry point
def _energy_from_times(algorithm: str, n: int, layout: Layout,
                       machine: MachineSpec, calib: Calibration,
                       compute: float, comm: float,
                       freq_ratio: float) -> dict:
    profile = (calib.ime_profile if algorithm == "ime"
               else calib.scalapack_profile)
    flops_total = (ImeCostModel.flops(n) if algorithm == "ime"
                   else ScalapackCostModel.flops(n))
    dram_bytes_total = flops_total * profile.dram_bytes_per_flop
    placement = Placement(layout, machine)
    timelines = uniform_run_timelines(
        placement,
        compute_seconds=compute,
        comm_seconds=comm,
        profile=profile,
        dram_bytes_per_node=dram_bytes_total / layout.nodes,
        freq_ratio=freq_ratio,
    )
    energy: dict = {}
    for tl in timelines:
        for domain, joules in tl.energy_j(machine).items():
            energy[(tl.node_id, domain)] = joules
    return energy


def _config_base(
    algorithm: str, n: int, ranks: int, shape: LoadShape,
    machine: MachineSpec, calib: Calibration,
    power_cap_w: float | None,
) -> tuple:
    """Everything about a configuration that is repetition-independent:
    ``(layout, compute, comm, messages, volume, profile, freq_ratio)``.

    ``compute`` already carries the power-cap slowdown (the cap is
    applied *before* the seeded draws in :func:`analytic_run`, so the
    pre-seed value is the same for every repetition).  This is the heavy
    part of an analytic evaluation — the per-level numpy arrays — and
    sharing it across a configuration's repetitions is where the batched
    evaluator's speedup comes from.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    layout = layout_for(ranks, shape, machine)
    if algorithm == "ime":
        compute, comm = ime_analytic_times(n, layout, machine, calib)
        cm_msgs = ImeCostModel.messages(n, ranks)
        cm_vol = ImeCostModel.volume_floats(n, ranks) * 8.0
        profile = calib.ime_profile
    else:
        compute, comm = scalapack_analytic_times(n, layout, machine, calib)
        scm = ScalapackCostModel(nb=calib.scal_nb)
        cm_msgs = scm.messages(n, ranks)
        cm_vol = scm.volume_floats(n, ranks) * 8.0
        profile = calib.scalapack_profile

    # DVFS under a RAPL power cap: the slowest socket sets the pace.
    freq_ratio = 1.0
    if power_cap_w is not None:
        pkg_model = PackagePower(machine.power)
        per_socket = layout.ranks_per_socket
        freq_ratio = min(
            pkg_model.freq_ratio_for_cap(
                power_cap_w, cores, profile.flop_util, profile.mem_util
            )
            for cores in per_socket if cores > 0
        )
        compute = compute / freq_ratio
    return layout, compute, comm, cm_msgs, cm_vol, profile, freq_ratio


def _seeded_times(
    compute: float, comm: float, layout: Layout,
    seed: int | None, node_efficiency_spread: float, fabric_jitter: float,
) -> tuple[float, float]:
    """Apply one repetition's variance draws (changing node sets, fabric
    noise) to the shared base times — the exact draw order of the
    reference path, so sharing the base is invisible bitwise."""
    if seed is not None and (node_efficiency_spread > 0 or fabric_jitter > 0):
        rng = np.random.default_rng(seed)
        if node_efficiency_spread > 0:
            eff = 1.0 + node_efficiency_spread * (
                2.0 * rng.random(layout.nodes) - 1.0
            )
            compute *= float(1.0 / eff.min())  # barriers: slowest node paces
        if fabric_jitter > 0:
            comm *= float(1.0 + fabric_jitter * (2.0 * rng.random() - 1.0))
    return compute, comm


def analytic_run(
    algorithm: str,
    n: int,
    ranks: int,
    shape: LoadShape,
    machine: MachineSpec,
    calib: Calibration = DEFAULT_CALIBRATION,
    seed: int | None = None,
    node_efficiency_spread: float = 0.0,
    fabric_jitter: float = 0.0,
    power_cap_w: float | None = None,
) -> AnalyticResult:
    """Evaluate one configuration analytically (one repetition)."""
    algorithm = algorithm.lower()
    layout, compute, comm, cm_msgs, cm_vol, _profile, freq_ratio = \
        _config_base(algorithm, n, ranks, shape, machine, calib, power_cap_w)

    # Repetition-to-repetition variance (changing node sets, fabric noise).
    compute, comm = _seeded_times(compute, comm, layout, seed,
                                  node_efficiency_spread, fabric_jitter)

    energy = _energy_from_times(
        algorithm, n, layout, machine, calib, compute, comm, freq_ratio
    )
    return AnalyticResult(
        algorithm=algorithm,
        n=n,
        layout=layout,
        duration=compute + comm,
        compute_seconds=compute,
        comm_seconds=comm,
        node_energy_j=energy,
        messages=cm_msgs,
        volume_bytes=cm_vol,
        freq_ratio=freq_ratio,
    )


class RepetitionEnergy(NamedTuple):
    """One repetition of a configuration, reduced to what
    :class:`~repro.experiments.runner.ConfigResult` aggregates: the
    duration and the joules summed over nodes — in total, over the
    package and the DRAM domains, and per domain."""

    duration: float
    total_j: float
    package_j: float
    dram_j: float
    domain_j: dict


def _fold_energy(runs: list[tuple[dict, int]]) -> tuple:
    """``(total, package, dram, per-domain)`` joules of one repetition.

    ``runs`` holds ``(class energy, node count)`` per run of equal
    socket occupancies, in node order.  Each sum is the builtin ``sum``
    over exactly the sequence a walk of the per-node ``node_energy_j``
    dict of :func:`analytic_run` visits (node order, then domain order),
    built by list repetition, so every float is that walk's bit for bit.
    A repeated value is never multiplied by its count instead:
    ``k * v`` and ``sum([v] * k)`` round differently.
    """
    total: list[float] = []
    package: list[float] = []
    dram: list[float] = []
    by_domain: dict[str, list[float]] = {}
    for energy, count in runs:
        total += list(energy.values()) * count
        package += [v for d, v in energy.items()
                    if d.startswith("package")] * count
        dram += [v for d, v in energy.items() if d.startswith("dram")] * count
        for domain, joules in energy.items():
            by_domain.setdefault(domain, []).extend([joules] * count)
    return (sum(total), sum(package), sum(dram),
            {domain: sum(vs) for domain, vs in by_domain.items()})


def analytic_repetitions(
    algorithm: str,
    n: int,
    ranks: int,
    shape: LoadShape,
    machine: MachineSpec,
    calib: Calibration = DEFAULT_CALIBRATION,
    base_seed: int = 0,
    repetitions: int = 1,
    node_efficiency_spread: float = 0.0,
    fabric_jitter: float = 0.0,
    power_cap_w: float | None = None,
) -> list[RepetitionEnergy]:
    """All repetitions of one configuration, batched and reduced.

    Repetition ``rep`` is ``analytic_run(..., seed=base_seed + rep)``
    folded to a :class:`RepetitionEnergy`: its ``duration``, and its
    ``total_energy_j``, ``package_energy_j``, ``dram_energy_j`` and
    ``domain_energy_j(d)`` per domain, every float bit-identical.

    Three redundancies of that reference are shared, none of which
    changes a single float:

    * the per-level numpy arrays (``*_analytic_times``), the cost-model
      message counts, and the power-cap ratio are seed-independent —
      computed once instead of once per repetition;
    * within a repetition, every node with the same per-socket occupancy
      runs an identical timeline (uniform bulk-synchronous run), so the
      energy integral is evaluated once per occupancy class (one or two
      classes per layout).  The occupancies come from
      :meth:`~repro.cluster.placement.Layout.socket_occupancies`, so no
      ``Placement`` is built;
    * no per-node ``(node, domain)`` dict is built: each sum runs over
      the class values repeated per run of equal occupancies
      (:func:`_fold_energy`).

    The seeded draws themselves replay the reference order exactly:
    ``default_rng(base_seed + rep)``, node-efficiency vector first, then
    the fabric-jitter scalar.
    """
    algorithm = algorithm.lower()
    layout, compute0, comm0, _msgs, _vol, profile, freq_ratio = \
        _config_base(algorithm, n, ranks, shape, machine, calib, power_cap_w)
    flops_total = (ImeCostModel.flops(n) if algorithm == "ime"
                   else ScalapackCostModel.flops(n))
    dram_bytes_per_node = \
        flops_total * profile.dram_bytes_per_flop / layout.nodes
    # (occupancy class, first node id, node count) per run, in node order
    class_runs: list[tuple[tuple[int, ...], int, int]] = []
    first = 0
    for per_socket, run in itertools.groupby(
            layout.socket_occupancies(machine.sockets_per_node)):
        count = len(list(run))
        class_runs.append((per_socket, first, count))
        first += count

    results = []
    for rep in range(repetitions):
        compute, comm = _seeded_times(
            compute0, comm0, layout, base_seed + rep,
            node_efficiency_spread, fabric_jitter,
        )
        class_energy: dict[tuple[int, ...], dict] = {}
        for per_socket, first, _count in class_runs:
            if per_socket not in class_energy:
                class_energy[per_socket] = node_timeline(
                    first, per_socket, machine,
                    compute_seconds=compute, comm_seconds=comm,
                    profile=profile,
                    dram_bytes_per_node=dram_bytes_per_node,
                    freq_ratio=freq_ratio,
                ).energy_j(machine)
        total, package, dram, per_domain = _fold_energy(
            [(class_energy[per_socket], count)
             for per_socket, _first, count in class_runs])
        results.append(RepetitionEnergy(compute + comm, total, package,
                                        dram, per_domain))
    return results


def ime_analytic(n, ranks, shape, machine, **kwargs) -> AnalyticResult:
    return analytic_run("ime", n, ranks, shape, machine, **kwargs)


def scalapack_analytic(n, ranks, shape, machine, **kwargs) -> AnalyticResult:
    return analytic_run("scalapack", n, ranks, shape, machine, **kwargs)
