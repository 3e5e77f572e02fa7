"""Symbolic trace workloads: paper-scale traces without paper-scale flops.

``repro trace`` wants a per-phase trace of IMe or ScaLAPACK at the
paper's problem sizes (n up to 25920).  Running the real numerics at
that scale is out of reach for the DES validation machinery, so the
skeleton programs here replay each solver's *communication structure*
instead:

* every phase of the real rank program appears under the same span name
  (``ime:initime`` … ``scalapack:substitution``), so skeleton traces and
  real small-n traces render identically;
* collectives are the real simmpi operations — payload sizes come from
  the published cost models, carried either by small representative
  payloads or by the ``nbytes`` override of ``send``/``bcast``;
* the level/panel loop is sampled at ``chunks`` representative points;
  each sample runs one level's (panel's) communication pattern and
  charges the **exact** summed flops of the levels it stands for, so
  the compute/energy accounting matches the closed-form totals even
  though only ``chunks`` communication rounds execute.

The trade-off is explicit: virtual compute time and energy are exact
(per the cost models), while communication time is sampled — a
structural skeleton, not a calibrated performance prediction (that is
what :mod:`repro.perfmodel.analytic` is for).

Skeletons run under :func:`repro.core.monitoring.monitored_program`
like any solver, so traces include the monitoring brackets.

Exact skeletons ("skeleton at paper scale")
-------------------------------------------
The *sampled* skeletons above trade communication fidelity for speed.
The **exact** skeletons (:func:`ime_exact_skeleton_program`,
:func:`scalapack_exact_skeleton_program`) make the opposite trade: they
issue the *complete* communication schedule of the full solver — every
collective, in order, with bitwise-identical payload sizes (via the
``nbytes`` overrides) — and charge bitwise-identical flops through the
rank context, while skipping the numerics entirely.  Under the same
Job, **every modeled quantity — virtual time, message/byte counts,
per-(node, domain) energy — is bitwise equal to the full solver's**,
at any size both can reach; only the returned solution is absent.
This is the contract ``tests/test_skeleton_exact.py`` pins and
``repro bench --skeleton`` exploits to reach the paper's n = 34560 on
one machine.

Scope: IMe's schedule is data-independent, so the IMe exact skeleton
matches on *any* input system.  ScaLAPACK's row swaps depend on the
pivot choices, so its exact skeleton models the no-swap trajectory
(``piv == j`` at every column) — exactly what the full solver produces
on column diagonally dominant systems, which the equivalence tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import MachineSpec, marconi_a3, small_test_machine
from repro.cluster.placement import LoadShape, Placement, layout_for
from repro.core.monitoring import monitored_program
from repro.obs.tracer import SpanTracer
from repro.perfmodel.calibration import profile_for
from repro.runtime.job import Job, JobResult
from repro.solvers.ime.costmodel import ImeCostModel
from repro.solvers.scalapack.blockcyclic import (
    global_indices,
    numroc,
    owner_of,
)
from repro.solvers.scalapack.costmodel import ScalapackCostModel
from repro.solvers.scalapack.grid import ProcessGrid

FLOAT_BYTES = 8


@dataclass(frozen=True)
class SymbolicOptions:
    """Tunables of the skeleton replay."""

    #: representative level/panel samples (each stands for a block of
    #: consecutive levels and charges their exact summed flops)
    chunks: int = 48
    #: ScaLAPACK block size (panel cadence + payload sizes)
    nb: int = 64
    #: charge the cost-model flops through the rank context
    charge_compute: bool = True
    #: replay the ScaLAPACK pivot chain for *every* column instead of one
    #: sampled round per chunk.  The pivot chain is 3 small collectives
    #: per column (∝ n regardless of nb) and dominates the solver's
    #: message count, so this makes the skeleton communication-complete
    #: — the configuration ``repro bench`` uses to time the collective
    #: engine at paper scale.
    pivot_per_column: bool = False


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``chunks`` contiguous blocks."""
    chunks = max(1, min(chunks, total))
    edges = np.linspace(0, total, chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _maxloc(a: tuple, b: tuple) -> tuple:
    return a if (a[0], -a[1]) >= (b[0], -b[1]) else b


# ------------------------------------------------------------------- IMe
def ime_skeleton_program(ctx, comm, n: int,
                         options: SymbolicOptions | None = None):
    """Rank program replaying IMeP's communication structure at size n."""
    opts = options or SymbolicOptions()
    rank, size, master = comm.rank, comm.size, 0
    cm = ImeCostModel()
    level_flops = cm.level_flops_per_rank(n, size)
    shard_floats = max(1, n // size)
    shard_bytes = FLOAT_BYTES * n * shard_floats  # one table-column shard

    # INITIME: the table leaves the master once, one shard per slave.
    with ctx.span("ime:initime", n=n, symbolic=True):
        if rank == master:
            for dest in range(1, size):
                yield from comm.send(0, dest=dest, tag=90,
                                     nbytes=shard_bytes)
            if opts.charge_compute:
                # table scaling: n² divisions
                yield from ctx.compute(flops=float(n) * n,
                                       dram_bytes=8.0 * n * n)
        else:
            yield from comm.recv(source=master, tag=90)

    # Levels, sampled at `chunks` representative points.
    row_shard = np.zeros(shard_floats)
    with ctx.span("ime:levels", levels=n, chunks=opts.chunks):
        for lo, hi in _chunk_bounds(n, opts.chunks):
            mid = (lo + hi - 1) // 2
            # (1) last-row gather to the master (real shard payloads).
            yield from comm.gather(row_shard, root=master)
            # (2) auxiliary (ĥ_l, p) broadcast — two floats.
            aux = (1.0, 1.0) if rank == master else None
            yield from comm.bcast(aux, root=master)
            # (3) pivot-column broadcast from its owner, n−l floats.
            owner = mid % size
            col = 0.0 if rank == owner else None
            yield from comm.bcast(col, root=owner,
                                  nbytes=FLOAT_BYTES * (n - mid))
            # (4) the chunk's exact per-rank inhibition flops.
            if opts.charge_compute:
                yield from ctx.compute(flops=float(level_flops[lo:hi].sum()))

    with ctx.span("ime:solution"):
        x = 0.0 if rank == master else None
        yield from comm.bcast(x, root=master, nbytes=FLOAT_BYTES * n)
    return None


# -------------------------------------------------------------- ScaLAPACK
def scalapack_skeleton_program(ctx, comm, n: int,
                               options: SymbolicOptions | None = None):
    """Rank program replaying block-cyclic LU + substitution at size n."""
    opts = options or SymbolicOptions()
    nb = opts.nb
    nprocs = comm.size
    grid = ProcessGrid.squarest(nprocs)
    myrow, mycol = grid.coords(comm.rank)
    row_comm = yield from comm.split(color=myrow, key=mycol)
    col_comm = yield from comm.split(color=mycol, key=myrow)
    cm = ScalapackCostModel(nb=nb)
    panel_flops = cm.level_flops_per_rank(n, nprocs)
    npanels = cm.n_panels(n)

    with ctx.span("scalapack:distribute", nb=nb, symbolic=True):
        shard_bytes = int(FLOAT_BYTES * n * n / nprocs)
        if comm.rank == 0:
            for dest in range(1, nprocs):
                yield from comm.send(0, dest=dest, tag=91,
                                     nbytes=shard_bytes)
        else:
            yield from comm.recv(source=0, tag=91)
        b = 0.0 if comm.rank == 0 else None
        yield from comm.bcast(b, root=0, nbytes=FLOAT_BYTES * n)

    with ctx.span("scalapack:factorize", nb=nb, panels=npanels,
                  chunks=opts.chunks):
        for lo, hi in _chunk_bounds(npanels, opts.chunks):
            kblock = (lo + hi - 1) // 2
            k0 = kblock * nb
            kb = min(nb, n - k0)
            remaining = max(n - k0 - kb, 0)
            pck = kblock % grid.npcol
            prk = kblock % grid.nprow
            if opts.pivot_per_column:
                # Full-fidelity pivot chain: max-loc down the column,
                # pivot index along the row, pivot row down the column —
                # once per column of the chunk's panel range, exactly as
                # pdgesv issues them.
                for j in range(lo * nb, min(hi * nb, n)):
                    pcj = (j // nb) % grid.npcol
                    prj = (j // nb) % grid.nprow
                    if mycol == pcj:
                        best = yield from col_comm.allreduce(
                            (1.0, j), op=_maxloc
                        )
                        piv = best[1]
                    else:
                        piv = None
                    yield from row_comm.bcast(piv, root=pcj)
                    prow = 0.0 if myrow == prj else None
                    yield from col_comm.bcast(
                        prow, root=prj,
                        nbytes=max(FLOAT_BYTES,
                                   FLOAT_BYTES * (n - j) // grid.npcol),
                    )
            else:
                # pivot chain sample: max-loc down the column, pivot
                # index along the row
                if mycol == pck:
                    best = yield from col_comm.allreduce(
                        (1.0, k0), op=_maxloc
                    )
                    piv = best[1]
                else:
                    piv = None
                yield from row_comm.bcast(piv, root=pck)
            # U12 down process columns, L21 along process rows
            u12 = 0.0 if myrow == prk else None
            yield from col_comm.bcast(
                u12, root=prk,
                nbytes=max(FLOAT_BYTES,
                           FLOAT_BYTES * kb * remaining // grid.npcol),
            )
            l21 = 0.0 if mycol == pck else None
            yield from row_comm.bcast(
                l21, root=pck,
                nbytes=max(FLOAT_BYTES,
                           FLOAT_BYTES * kb * remaining // grid.nprow),
            )
            if opts.charge_compute:
                yield from ctx.compute(flops=float(panel_flops[lo:hi].sum()))

    with ctx.span("scalapack:substitution"):
        for lo, hi in _chunk_bounds(npanels, opts.chunks):
            kblock = (lo + hi - 1) // 2
            kb = min(nb, n - kblock * nb)
            pck = kblock % grid.npcol
            prk = kblock % grid.nprow
            yield from row_comm.reduce(0.0, root=pck)
            blk = 0.0 if comm.rank == grid.rank_of(prk, pck) else None
            yield from comm.bcast(blk, root=grid.rank_of(prk, pck),
                                  nbytes=FLOAT_BYTES * kb)
        if opts.charge_compute:
            yield from ctx.compute(flops=2.0 * n * n / nprocs)
    return None


SKELETON_PROGRAMS = {
    "ime": ime_skeleton_program,
    "scalapack": scalapack_skeleton_program,
}


# ------------------------------------------------- exact skeletons
def ime_exact_skeleton_program(ctx, comm, n: int,
                               options: SymbolicOptions | None = None):
    """IMeP's *complete* communication schedule, no numerics.

    Bitwise twin of :func:`repro.solvers.ime.parallel.ime_parallel_program`
    under the same Job: every collective is issued in the same order with
    the same modeled wire size, and the same flops are charged in the
    same order, so virtual time, traffic, and energy are bitwise equal —
    for any input system (IMe's schedule is data-independent).  Only
    ``chunks``/``pivot_per_column`` of ``options`` are ignored: the exact
    skeleton is full-fidelity by construction.
    """
    opts = options or SymbolicOptions()
    rank, size, master = comm.rank, comm.size, 0

    # INITIME: scatter of (n, table shard, b shard) tuples — an 8-byte
    # int plus n·len_r + len_r floats for the rank owning len_r columns.
    with ctx.span("ime:initime"):
        if rank == master:
            shards = [0.0] * size
            sizes = [
                FLOAT_BYTES * (1 + (n + 1) * len(range(r, n, size)))
                for r in range(size)
            ]
        else:
            shards = sizes = None
        yield from comm.scatter(shards, root=master, nbytes=sizes)
        if rank == master and opts.charge_compute:
            yield from ctx.compute(flops=float(n) * n, dram_bytes=8.0 * n * n)

    level_flops = ImeCostModel.level_flops_per_rank(n, size)
    n_local = len(range(rank, n, size))
    m_local = np.zeros(n_local)  # the last-row shard (real array: the
    #                              gather sizes itself off the payloads)

    with ctx.span("ime:levels", levels=n):
        for level in range(n):
            owner = level % size
            # (ĥ_l, p) is a 2-float tuple either way; the pivot column's
            # active part is n − level floats, carried by the stage-level
            # nbytes override.
            _aux = (lambda gathered: (1.0, 1.0)) if rank == master else None
            _chat = (lambda aux: 0.0) if rank == owner else None
            yield from comm.pipeline((
                ("gather", master, m_local),
                ("bcast", master, _aux),
                ("bcast", owner, _chat, FLOAT_BYTES * (n - level)),
            ))
            if opts.charge_compute:
                yield from ctx.compute(flops=float(level_flops[level]))

    with ctx.span("ime:solution"):
        pass  # the real epilogue is master-local (no comm, no charge)
    return None


def scalapack_exact_skeleton_program(ctx, comm, n: int,
                                     options: SymbolicOptions | None = None):
    """pdgesv's complete communication schedule on the no-swap trajectory.

    Bitwise twin of :func:`repro.solvers.scalapack.pdgesv.pdgesv_program`
    (default squarest grid, partial pivoting) under the same Job,
    *provided the full solver's pivot search selects the diagonal at
    every column* (``piv == j`` — the trajectory column diagonally
    dominant systems produce): the same collectives with the same
    modeled wire sizes, and the same per-panel flops accumulated in the
    same float order.  ``options.nb`` must match the solver's block
    size; ``chunks``/``pivot_per_column`` are ignored.
    """
    opts = options or SymbolicOptions()
    nb = opts.nb
    nprocs = comm.size
    grid = ProcessGrid.squarest(nprocs)
    myrow, mycol = grid.coords(comm.rank)
    row_comm = yield from comm.split(color=myrow, key=mycol)
    col_comm = yield from comm.split(color=mycol, key=myrow)

    with ctx.span("scalapack:distribute", nb=nb):
        # Shards are (n, local block) tuples: 8 bytes + the local extent.
        if comm.rank == 0:
            shards = [0.0] * nprocs
            sizes = []
            for r in range(nprocs):
                pr, pc = grid.coords(r)
                sizes.append(FLOAT_BYTES * (
                    1 + numroc(n, nb, pr, grid.nprow)
                    * numroc(n, nb, pc, grid.npcol)))
        else:
            shards = sizes = None
        yield from comm.scatter(shards, root=0, nbytes=sizes)
        b_ph = 0.0 if comm.rank == 0 else None
        yield from comm.bcast(b_ph, root=0, nbytes=FLOAT_BYTES * n)

    grows = global_indices(n, nb, myrow, grid.nprow)
    gcols = global_indices(n, nb, mycol, grid.npcol)
    nlrow, nlcol = len(grows), len(gcols)

    with ctx.span("scalapack:factorize", nb=nb):
        for k0 in range(0, n, nb):
            kb = min(nb, n - k0)
            kblock = k0 // nb
            pck = kblock % grid.npcol
            prk = kblock % grid.nprow
            panel_flops = 0.0
            if mycol == pck:
                i1s = np.searchsorted(grows, np.arange(k0, k0 + kb),
                                      side="right")

            # ---- panel: pivot chain + column scale, once per column
            for j in range(k0, k0 + kb):
                t = j - k0
                if mycol == pck:
                    # Max-loc candidates are 2-tuples either way; all
                    # (1.0, j) folds to piv == j — the no-swap branch.
                    best = yield from col_comm.allreduce((1.0, j),
                                                         op=_maxloc)
                    piv = best[1]
                else:
                    piv = None
                piv = yield from row_comm.bcast(piv, root=pck)
                # piv == j: the global row swap does not fire.
                if mycol == pck:
                    src_pr = owner_of(j, nb, grid.nprow)
                    prow_ph = 0.0 if myrow == src_pr else None
                    yield from col_comm.bcast(prow_ph, root=src_pr,
                                              nbytes=FLOAT_BYTES * (kb - t))
                    i1 = int(i1s[t])
                    if i1 < nlrow:
                        rest = kb - t - 1
                        panel_flops += 2.0 * (nlrow - i1) * (rest + 0.5)

            # ---- U12: L11 along the prk process row, U12 down columns
            c_r = int(np.searchsorted(gcols, k0 + kb))
            if myrow == prk:
                l11_ph = 0.0 if mycol == pck else None
                yield from row_comm.bcast(l11_ph, root=pck,
                                          nbytes=FLOAT_BYTES * kb * kb)
                if c_r < nlcol:
                    panel_flops += float(kb) * kb * (nlcol - c_r)
            u12_ph = 0.0 if myrow == prk else None
            yield from col_comm.bcast(
                u12_ph, root=prk,
                nbytes=FLOAT_BYTES * kb * max(nlcol - c_r, 0))

            # ---- L21 along process rows, then the trailing GEMM charge
            r_b = int(np.searchsorted(grows, k0 + kb))
            l21_ph = 0.0 if mycol == pck else None
            yield from row_comm.bcast(
                l21_ph, root=pck,
                nbytes=FLOAT_BYTES * max(nlrow - r_b, 0) * kb)
            if r_b < nlrow and c_r < nlcol:
                panel_flops += 2.0 * (nlrow - r_b) * kb * (nlcol - c_r)

            if opts.charge_compute and panel_flops:
                yield from ctx.compute(flops=panel_flops)

    with ctx.span("scalapack:substitution"):
        nblocks = (n + nb - 1) // nb
        for kblock in range(nblocks):
            kb = min(nb, n - kblock * nb)
            prk = kblock % grid.nprow
            pck = kblock % grid.npcol
            if myrow == prk:
                yield from row_comm.reduce(np.zeros(kb), root=pck)
            root = grid.rank_of(prk, pck)
            blk = np.zeros(kb) if comm.rank == root else None
            yield from comm.bcast(blk, root=root)
        for kblock in range(nblocks - 1, -1, -1):
            kb = min(nb, n - kblock * nb)
            prk = kblock % grid.nprow
            pck = kblock % grid.npcol
            if myrow == prk:
                yield from row_comm.reduce(np.zeros(kb), root=pck)
            root = grid.rank_of(prk, pck)
            blk = np.zeros(kb) if comm.rank == root else None
            yield from comm.bcast(blk, root=root)
        if opts.charge_compute:
            yield from ctx.compute(flops=2.0 * n * n / nprocs)
    return None


EXACT_SKELETON_PROGRAMS = {
    "ime": ime_exact_skeleton_program,
    "scalapack": scalapack_exact_skeleton_program,
}


def run_skeleton_job(
    algorithm: str,
    n: int,
    ranks: int,
    shape: LoadShape = LoadShape.FULL,
    machine: MachineSpec | None = None,
    nb: int = 8,
    seed: int = 0,
    profile=None,
    fast: bool = True,
) -> JobResult:
    """Run an exact skeleton as a raw deterministic job.

    The Job is built exactly as a full-solver run with the same
    arguments would be (default machine :func:`marconi_a3`, zero fabric
    jitter / node spread), so the returned :class:`JobResult` carries
    the full solver's modeled duration, traffic, and energy — see the
    module docstring for the equality contract and its ScaLAPACK scope.
    """
    try:
        program_fn = EXACT_SKELETON_PROGRAMS[algorithm.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"expected one of {sorted(EXACT_SKELETON_PROGRAMS)}"
        ) from None
    if machine is None:
        machine = marconi_a3()
    placement = Placement(
        layout_for(ranks, shape, machine, allow_tail=True), machine
    )
    job = Job(machine, placement, profile=profile, seed=seed)
    job.sim.fast_collectives = fast
    job.sim.fast_p2p = fast
    return job.run(program_fn, n=n, options=SymbolicOptions(nb=nb))


# ----------------------------------------------------------------- driver
def run_traced(
    algorithm: str,
    n: int,
    ranks: int,
    nodes: int = 2,
    seed: int = 0,
    chunks: int = 48,
    nb: int = 64,
    capture_p2p: bool = True,
    machine: MachineSpec | None = None,
    fabric_jitter: float = 0.02,
    node_efficiency_spread: float = 0.02,
) -> tuple[JobResult, SpanTracer]:
    """Run a monitored skeleton job with a tracer attached.

    Builds a small test machine with ``ranks`` spread over ``nodes``
    (mirroring ``repro solve``), attaches a fresh
    :class:`~repro.obs.tracer.SpanTracer`, and runs the ``algorithm``
    skeleton under the white-box monitoring protocol.  Returns the
    job result and the tracer, ready for
    :func:`repro.obs.export.write_chrome_trace` /
    :func:`repro.obs.report.energy_report`.
    """
    try:
        skeleton = SKELETON_PROGRAMS[algorithm.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"expected one of {sorted(SKELETON_PROGRAMS)}"
        ) from None
    if machine is None:
        machine = small_test_machine(
            cores_per_socket=max(1, ranks // (2 * max(1, nodes)))
        )
    layout = layout_for(ranks, LoadShape.FULL, machine)
    placement = Placement(layout, machine)
    # The experiment defaults for seeded run-to-run variation (§5.3's
    # changing node sets), so distinct seeds yield distinct traces.
    job = Job(machine, placement, profile=profile_for(algorithm), seed=seed,
              fabric_jitter=fabric_jitter,
              node_efficiency_spread=node_efficiency_spread)
    tracer = SpanTracer(capture_p2p=capture_p2p)
    job.attach_tracer(tracer)
    program = monitored_program(
        skeleton, n=n, options=SymbolicOptions(chunks=chunks, nb=nb)
    )
    result = job.run(program)
    return result, tracer
