"""Exact skeletons: the solvers' complete schedules without the numerics.

An *exact* skeleton (:func:`ime_exact_skeleton_program`,
:func:`scalapack_exact_skeleton_program`) issues the full solver's
communication schedule — every collective, in order, with
bitwise-identical payload sizes (via the ``nbytes`` overrides) — and
charges bitwise-identical flops through the rank context, while skipping
the numerics entirely.  Under the same Job, **every modeled quantity —
virtual time, message/byte counts, per-(node, domain) energy — is
bitwise equal to the full solver's**, at any size both can reach; only
the returned solution is absent.  This is the contract
``tests/test_skeleton_exact.py`` pins and ``repro bench --skeleton``
exploits to reach the paper's n = 34560 on one machine.

Scope: IMe's schedule is data-independent, so the IMe exact skeleton
matches on *any* input system.  ScaLAPACK's row swaps depend on the
pivot choices, so its exact skeleton models the no-swap trajectory
(``piv == j`` at every column) — exactly what the full solver produces
on column diagonally dominant systems, which the equivalence tests use.

Pivot chains: on that trajectory a rank outside the panel's process
column does nothing in a panel's column loop but receive the ``kb`` row
broadcasts of ``piv``, so it issues them as one
:meth:`~repro.simmpi.comm.Communicator.bcast_chain` and, on the fused
fast path, parks once per panel instead of once per column; the pivot
column's ranks issue the per-column ``bcast`` calls that feed it.  The
chain is bit-identical to the loop of ``bcast`` calls it stands for
(``tests/test_bcast_chain.py``).

Sampling (``repro trace``)
--------------------------
A trace records one span per collective per rank, so a trace of every
level at paper scale is too large to view.  ``SymbolicOptions.chunks``
samples the level (IMe) or panel (ScaLAPACK) loop: the loop is split
into at most ``chunks`` contiguous blocks, and each block replays the
complete communication of its middle level or panel — for ScaLAPACK the
per-column pivot chains, L11, U12 and L21 with their exact wire sizes —
and charges the summed flops of every level or panel it stands for.  The
substitution sweeps sample the same blocks.  Compute time and energy
therefore match the unsampled run, while communication time is that of
the sampled rounds only.  A block of one level charges exactly what the
unsampled loop charges, so ``chunks`` at least the loop length
reproduces the unsampled run bitwise.  ``chunks=None`` (the default)
runs every level.

Skeletons run under :func:`repro.core.monitoring.monitored_program`
like any solver, so traces include the monitoring brackets, and every
phase appears under the real solver's span name (``ime:initime`` …
``scalapack:substitution``).
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
from repro.solvers.scalapack.grid import ProcessGrid

FLOAT_BYTES = 8


@dataclass(frozen=True)
class SymbolicOptions:
    """Tunables of the skeleton replay."""

    #: ScaLAPACK block size (must match the solver's to be its twin)
    nb: int = 64
    #: sample the level/panel loop at this many blocks (``None``: every
    #: level, the exact schedule)
    chunks: int | None = None


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``chunks`` contiguous blocks."""
    chunks = max(1, min(chunks, total))
    edges = np.linspace(0, total, chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _sample(flops, chunks: int | None):
    """The levels a loop replays and the flops each one charges.

    ``chunks=None`` keeps every level with its own flops.  Otherwise
    each block of :func:`_chunk_bounds` is replayed at its middle level
    and charges the block's summed flops (one level's sum is that
    level's flops, bit for bit).
    """
    if chunks is None:
        return range(len(flops)), flops
    bounds = _chunk_bounds(len(flops), chunks)
    sums = np.add.reduceat(np.asarray(flops, dtype=np.float64),
                           [lo for lo, _ in bounds])
    return [(lo + hi - 1) // 2 for lo, hi in bounds], sums.tolist()


def _maxloc(a: tuple, b: tuple) -> tuple:
    return a if (a[0], -a[1]) >= (b[0], -b[1]) else b


# ------------------------------------------------------------------- IMe
def ime_exact_skeleton_program(ctx, comm, n: int,
                               options: SymbolicOptions | None = None):
    """IMeP's *complete* communication schedule, no numerics.

    Bitwise twin of :func:`repro.solvers.ime.parallel.ime_parallel_program`
    under the same Job: every collective is issued in the same order with
    the same modeled wire size, and the same flops are charged in the
    same order, so virtual time, traffic, and energy are bitwise equal —
    for any input system (IMe's schedule is data-independent).  With
    ``options.chunks`` the level loop is sampled (module docstring).
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
        if rank == master:
            yield from ctx.compute(flops=float(n) * n, dram_bytes=8.0 * n * n)

    levels, level_flops = _sample(ImeCostModel.level_flops_per_rank(n, size),
                                  opts.chunks)
    n_local = len(range(rank, n, size))
    m_local = np.zeros(n_local)  # the last-row shard (real array: the
    #                              gather sizes itself off the payloads)

    with ctx.span("ime:levels", levels=n, chunks=opts.chunks):
        for level, flops in zip(levels, level_flops):
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
            yield from ctx.compute(flops=float(flops))

    with ctx.span("ime:solution"):
        pass  # the real epilogue is master-local (no comm, no charge)
    return None


# -------------------------------------------------------------- ScaLAPACK
def _panel_flops(n: int, nb: int, grid: ProcessGrid, myrow: int, mycol: int,
                 grows: np.ndarray, gcols: np.ndarray) -> list[float]:
    """This rank's flops per panel, each summed in pdgesv's float order:
    the panel columns, then the U12 TRSM, then the trailing GEMM."""
    nlrow, nlcol = len(grows), len(gcols)
    out = []
    for k0 in range(0, n, nb):
        kb = min(nb, n - k0)
        kblock = k0 // nb
        panel_flops = 0.0
        if mycol == kblock % grid.npcol:
            i1s = np.searchsorted(grows, np.arange(k0, k0 + kb),
                                  side="right")
            for t in range(kb):
                i1 = int(i1s[t])
                if i1 < nlrow:
                    rest = kb - t - 1
                    panel_flops += 2.0 * (nlrow - i1) * (rest + 0.5)
        c_r = int(np.searchsorted(gcols, k0 + kb))
        if myrow == kblock % grid.nprow and c_r < nlcol:
            panel_flops += float(kb) * kb * (nlcol - c_r)
        r_b = int(np.searchsorted(grows, k0 + kb))
        if r_b < nlrow and c_r < nlcol:
            panel_flops += 2.0 * (nlrow - r_b) * kb * (nlcol - c_r)
        out.append(panel_flops)
    return out


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
    size; with ``options.chunks`` the panel loop and the substitution
    sweeps are sampled (module docstring).
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
    kblocks, chunk_flops = _sample(
        _panel_flops(n, nb, grid, myrow, mycol, grows, gcols), opts.chunks)

    with ctx.span("scalapack:factorize", nb=nb, chunks=opts.chunks):
        for kblock, panel_flops in zip(kblocks, chunk_flops):
            k0 = kblock * nb
            kb = min(nb, n - k0)
            pck = kblock % grid.npcol
            prk = kblock % grid.nprow

            # ---- panel: pivot chain + column scale, once per column
            if mycol == pck:
                for j in range(k0, k0 + kb):
                    # Max-loc candidates are 2-tuples either way; all
                    # (1.0, j) folds to piv == j — the no-swap branch.
                    best = yield from col_comm.allreduce((1.0, j),
                                                         op=_maxloc)
                    yield from row_comm.bcast(best[1], root=pck)
                    # piv == j: the global row swap does not fire.
                    src_pr = owner_of(j, nb, grid.nprow)
                    prow_ph = 0.0 if myrow == src_pr else None
                    yield from col_comm.bcast(prow_ph, root=src_pr,
                                              nbytes=FLOAT_BYTES * (k0 + kb - j))
            else:
                # The kb row broadcasts of piv, back to back.
                yield from row_comm.bcast_chain(kb, root=pck)

            # ---- U12: L11 along the prk process row, U12 down columns
            c_r = int(np.searchsorted(gcols, k0 + kb))
            if myrow == prk:
                l11_ph = 0.0 if mycol == pck else None
                yield from row_comm.bcast(l11_ph, root=pck,
                                          nbytes=FLOAT_BYTES * kb * kb)
            u12_ph = 0.0 if myrow == prk else None
            yield from col_comm.bcast(
                u12_ph, root=prk,
                nbytes=FLOAT_BYTES * kb * max(nlcol - c_r, 0))

            # ---- L21 along process rows, then the panel's flop charge
            r_b = int(np.searchsorted(grows, k0 + kb))
            l21_ph = 0.0 if mycol == pck else None
            yield from row_comm.bcast(
                l21_ph, root=pck,
                nbytes=FLOAT_BYTES * max(nlrow - r_b, 0) * kb)

            if panel_flops:
                yield from ctx.compute(flops=panel_flops)

    with ctx.span("scalapack:substitution"):
        for kblock in (*kblocks, *reversed(kblocks)):
            kb = min(nb, n - kblock * nb)
            prk = kblock % grid.nprow
            pck = kblock % grid.npcol
            if myrow == prk:
                yield from row_comm.reduce(np.zeros(kb), root=pck)
            root = grid.rank_of(prk, pck)
            blk = np.zeros(kb) if comm.rank == root else None
            yield from comm.bcast(blk, root=root)
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
    program_fn = _program_for(algorithm)
    if machine is None:
        machine = marconi_a3()
    placement = Placement(
        layout_for(ranks, shape, machine, allow_tail=True), machine
    )
    job = Job(machine, placement, profile=profile, seed=seed)
    job.sim.fast = fast
    return job.run(program_fn, n=n, options=SymbolicOptions(nb=nb))


def _program_for(algorithm: str):
    # Read at call time: profilers patch the table's entries.
    try:
        return EXACT_SKELETON_PROGRAMS[algorithm.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"expected one of {sorted(EXACT_SKELETON_PROGRAMS)}"
        ) from None


# ----------------------------------------------------------------- driver
def run_traced(
    algorithm: str,
    n: int,
    ranks: int,
    nodes: int = 2,
    seed: int = 0,
    chunks: int | None = 48,
    nb: int = 64,
    machine: MachineSpec | None = None,
    fabric_jitter: float = 0.02,
    node_efficiency_spread: float = 0.02,
) -> tuple[JobResult, SpanTracer]:
    """Run a monitored exact skeleton with a tracer attached.

    Builds a small test machine with ``ranks`` spread over ``nodes``
    (mirroring ``repro solve``), attaches a fresh
    :class:`~repro.obs.tracer.SpanTracer`, and runs the ``algorithm``
    skeleton, its level loop sampled at ``chunks`` blocks (``None``:
    every level), under the white-box monitoring protocol.  Returns the
    job result and the tracer, ready for
    :func:`repro.obs.export.write_chrome_trace` /
    :func:`repro.obs.report.energy_report`.
    """
    skeleton = _program_for(algorithm)
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
    tracer = SpanTracer()
    job.attach_tracer(tracer)
    program = monitored_program(
        skeleton, n=n, options=SymbolicOptions(nb=nb, chunks=chunks)
    )
    result = job.run(program)
    return result, tracer
