"""The alternative IMe parallelization schemes of §2.1.

The paper enumerates three ways to parallelize the fundamental formula:

i.   **column-wise** — the scheme IMeP uses (``repro.solvers.ime.parallel``)
     "because its characteristic fits the integration with the fault
     tolerance requirements better than the others";
ii.  **row-wise** — "symmetrically, the node computing the last row t_l,∗
     should make it available to all the others and h^(l) is shared";
iii. **block-wise** — "combining row-wise and column-wise parallelization".

This module implements (ii) and (iii) so the choice can be studied as an
ablation (see ``benchmarks/test_scheme_ablation.py``): row-wise needs only
*one* broadcast per level (the pivot row) at the cost of replicating the
auxiliary quantities everywhere, and block-wise trades a 2D decomposition's
smaller per-rank broadcasts for two broadcasts per level along grid rows
and columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.dense import SingularMatrixError
from repro.solvers.scalapack.grid import ProcessGrid


def _cyclic(n: int, size: int, rank: int) -> np.ndarray:
    return np.arange(rank, n, size)


# ------------------------------------------------------------------ row-wise
def ime_rowwise_program(ctx, comm, system=None):
    """Row-wise IMeP: rows cyclically distributed, h replicated.

    Per level the owner of row ``l`` broadcasts the active pivot-row
    segment plus the pivot; every rank inhibits its own active rows and
    advances its full (shared) replica of h.  One collective per level.
    """
    rank, size = comm.rank, comm.size
    master = 0
    if rank == master:
        if system is None:
            raise ValueError("the master rank needs the input system")
        a = np.asarray(system.a, dtype=np.float64)
        b = np.asarray(system.b, dtype=np.float64)
        n = a.shape[0]
        d = np.diag(a).copy()
        if np.any(d == 0.0):
            raise SingularMatrixError("IMe requires nonzero diagonal entries")
        right = a.T / d[:, None]
        shards = [(n, right[_cyclic(n, size, r), :].copy(), b.copy())
                  for r in range(size)]
    else:
        shards = None
    n, r_local, h = yield from comm.scatter(shards, root=master)
    mine = _cyclic(n, size, rank)
    local_of = {int(g): i for i, g in enumerate(mine)}

    for level in range(n):
        owner = level % size
        # "the node computing the last row t_l,∗ should make it available
        # to all the others" — broadcast the active pivot-row segment.
        if rank == owner:
            lrow = local_of[level]
            p = r_local[lrow, level]
            if p == 0.0:
                raise SingularMatrixError(
                    f"zero inhibition pivot at level {level}"
                )
            payload = (r_local[lrow, :].copy(), p)
        else:
            payload = None
        m, p = yield from comm.bcast(payload, root=owner)
        m = m.copy()
        m[level] = 0.0

        # Inhibit the active window of the locally-owned rows.
        active = mine >= level
        if active.any():
            chat = r_local[active, level] / p
            # repro: allow[PERF001] -- alternative-scheme reference; kept level-wise for clarity
            r_local[active, :] -= np.outer(chat, m)
            r_local[active, level] = chat

        # "h^(l) is shared": every rank advances its full replica.
        hl = h[level] / p
        h -= m * hl
        h[level] = hl

        # Same published per-level cost, split across the ranks.
        yield from ctx.compute(flops=3.0 * n * (n - level) / size)

    if rank == master:
        return h / d
    return None


# ---------------------------------------------------------------- block-wise
@dataclass(frozen=True)
class BlockwiseOptions:
    grid: ProcessGrid | None = None


def ime_blockwise_program(ctx, comm, system=None,
                          options: BlockwiseOptions | None = None):
    """Block-wise IMeP: a Pr×Pc grid owns cyclic (rows × columns) tiles.

    Per level two broadcasts run: the owner process-*column* of table
    column ``n+l`` broadcasts its active segment along grid rows, and the
    owner process-*row* of row ``l`` broadcasts its segment along grid
    columns.  h is replicated per process column (each rank holds the h
    entries of its own columns), advanced with the broadcast pivot data.
    The solution is assembled on world rank 0.
    """
    opts = options or BlockwiseOptions()
    nprocs = comm.size
    grid = opts.grid or ProcessGrid.squarest(nprocs)
    if grid.size != nprocs:
        raise ValueError(
            f"grid {grid} needs {grid.size} processes, world has {nprocs}"
        )
    myrow, mycol = grid.coords(comm.rank)
    row_comm = yield from comm.split(color=myrow, key=mycol)
    col_comm = yield from comm.split(color=mycol, key=myrow)

    master = 0
    if comm.rank == master:
        if system is None:
            raise ValueError("the master rank needs the input system")
        a = np.asarray(system.a, dtype=np.float64)
        b = np.asarray(system.b, dtype=np.float64)
        n = a.shape[0]
        d = np.diag(a).copy()
        if np.any(d == 0.0):
            raise SingularMatrixError("IMe requires nonzero diagonal entries")
        right = a.T / d[:, None]
        shards = []
        for r in range(nprocs):
            pr, pc = grid.coords(r)
            rows = _cyclic(n, grid.nprow, pr)
            cols = _cyclic(n, grid.npcol, pc)
            shards.append((
                n,
                right[np.ix_(rows, cols)].copy(),
                b[cols].copy(),  # h shard for this rank's columns
            ))
    else:
        shards = None
    n, r_local, h_local = yield from comm.scatter(shards, root=master)
    my_rows = _cyclic(n, grid.nprow, myrow)
    my_cols = _cyclic(n, grid.npcol, mycol)
    lrow_of = {int(g): i for i, g in enumerate(my_rows)}
    lcol_of = {int(g): i for i, g in enumerate(my_cols)}

    for level in range(n):
        pc_l = level % grid.npcol   # process column owning table column n+l
        pr_l = level % grid.nprow   # process row owning row l

        # Pivot-row segment (for my columns) down my process column.
        if myrow == pr_l:
            payload = r_local[lrow_of[level], :].copy()
        else:
            payload = None
        m_seg = yield from col_comm.bcast(payload, root=pr_l)

        # The owner process column reads the pivot off its segment and
        # shares it across its process rows.
        p_candidate = (float(m_seg[lcol_of[level]]) if mycol == pc_l
                       else None)
        p = yield from row_comm.bcast(p_candidate, root=pc_l)
        if p == 0.0:
            raise SingularMatrixError(f"zero inhibition pivot at level {level}")

        # Pivot-column active segment (for my rows) across my process row.
        active_rows = my_rows >= level
        if mycol == pc_l:
            chat_seg = r_local[active_rows, lcol_of[level]] / p
        else:
            chat_seg = None
        chat_seg = yield from row_comm.bcast(chat_seg, root=pc_l)

        # Local inhibition of the (active rows × my columns) tile.
        m_update = m_seg.copy()
        if mycol == pc_l:
            m_update[lcol_of[level]] = 0.0
        if active_rows.any():
            # repro: allow[PERF001] -- alternative-scheme reference; kept level-wise for clarity
            r_local[active_rows, :] -= np.outer(chat_seg, m_update)
            if mycol == pc_l:
                r_local[active_rows, lcol_of[level]] = chat_seg

        # h shard for my columns, replicated within the process column.
        hl_candidate = h_local[lcol_of[level]] / p if mycol == pc_l else None
        hl = yield from row_comm.bcast(hl_candidate, root=pc_l)
        h_local -= m_seg * hl
        if mycol == pc_l:
            h_local[lcol_of[level]] = hl

        yield from ctx.compute(flops=3.0 * n * (n - level) / nprocs)

    # Assemble x on the master from one process row's h shards.
    if myrow == 0:
        gathered = yield from row_comm.gather((my_cols, h_local), root=0)
    if comm.rank == master:
        d_full = d
        h_full = np.empty(n)
        for cols, shard in gathered:
            h_full[cols] = shard
        return h_full / d_full
    return None
