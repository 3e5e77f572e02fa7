"""Distributed LU solve over the block-cyclic layout (``pdgesv``).

A right-looking LU factorization with partial pivoting followed by
distributed triangular solves, mirroring ScaLAPACK's
``pdgetrf`` + ``pdgetrs`` at the algorithm level:

* the matrix is 2D block-cyclic over a Pr×Pc BLACS grid with block size
  ``nb``;
* each panel is factored by one process *column* — per matrix column a
  pivot search (max-loc reduction down the process column), a global row
  swap (exchanged between the two owning process rows, across **all**
  process columns), then scale + rank-1 update of the panel remainder;
* the factored panel (L21) is broadcast along process rows, the U12 block
  row is computed by a triangular solve and broadcast down process
  columns, and every process applies the trailing GEMM update locally —
  the "block-partitioned algorithm promoting data reuse" of §2.2;
* triangular solves proceed block by block with row-communicator partial
  reductions and grid-wide broadcasts of each solved block.

The per-column pivot traffic (a log₂Pr reduction plus row swaps on the
critical path, n times) is exactly what makes ScaLAPACK latency-bound in
the paper's most distributed deployments — where IMe overtakes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.dense import SingularMatrixError
from repro.solvers.kernels import PanelAccumulator
from repro.solvers.scalapack.blockcyclic import (
    global_indices,
    local_index,
    owner_of,
)
from repro.solvers.scalapack.grid import ProcessGrid


@dataclass(frozen=True)
class ScalapackOptions:
    """Tunables of the distributed solve."""

    nb: int = 8
    grid: ProcessGrid | None = None
    charge_compute: bool = True
    pivoting: bool = True
    #: factor each panel left-looking through the shared blocked kernel
    #: (:mod:`repro.solvers.kernels`): the per-column rank-1 interior
    #: updates are deferred and each column is materialized by one gemv
    #: right before its pivot search.  ``False`` keeps the per-column
    #: ``np.outer`` right-looking reference.  Pivot choices, the message
    #: pattern, and the charged flops are identical either way.
    blocked_panel: bool = True

    def resolve_grid(self, nprocs: int) -> ProcessGrid:
        grid = self.grid or ProcessGrid.squarest(nprocs)
        if grid.size != nprocs:
            raise ValueError(
                f"grid {grid} needs {grid.size} processes, world has {nprocs}"
            )
        return grid


def _maxloc(a: tuple, b: tuple) -> tuple:
    """(|value|, global_row) max-reduction; ties pick the smallest row."""
    return a if (a[0], -a[1]) >= (b[0], -b[1]) else b


def pdgesv_program(ctx, comm, system=None,
                   options: ScalapackOptions | None = None):
    """Rank program: solve ``system`` (supplied on world rank 0).

    Returns the full solution vector on every rank (it is replicated by
    the final block broadcasts of the substitution phase).
    """
    # Loaded on the first solve, not at package import: analytic and
    # skeleton runs never get here, and scipy.linalg doubles their start-up.
    import scipy.linalg

    opts = options or ScalapackOptions()
    nprocs = comm.size
    grid = opts.resolve_grid(nprocs)
    nb = opts.nb
    myrow, mycol = grid.coords(comm.rank)
    row_comm = yield from comm.split(color=myrow, key=mycol)
    col_comm = yield from comm.split(color=mycol, key=myrow)

    # ------------------------------------------------------- distribution
    with ctx.span("scalapack:distribute", nb=nb):
        if comm.rank == 0:
            if system is None:
                raise ValueError("world rank 0 needs the input system")
            a = np.asarray(system.a, dtype=np.float64)
            n = a.shape[0]
            shards = []
            for r in range(nprocs):
                pr, pc = grid.coords(r)
                gr = global_indices(n, nb, pr, grid.nprow)
                gc = global_indices(n, nb, pc, grid.npcol)
                shards.append((n, a[np.ix_(gr, gc)].copy()))
            b_full = np.asarray(system.b, dtype=np.float64).copy()
        else:
            shards, b_full = None, None
        n, a_local = yield from comm.scatter(shards, root=0)
        b = yield from comm.bcast(b_full, root=0)

    grows = global_indices(n, nb, myrow, grid.nprow)
    gcols = global_indices(n, nb, mycol, grid.npcol)
    nlrow, nlcol = len(grows), len(gcols)

    ipiv: list[int] = []
    acc = PanelAccumulator(nb, nlrow, nb) if opts.blocked_panel else None
    # Reusable trailing-update product buffer: the per-panel temporaries
    # are multi-MB at paper scale, and reusing one allocation keeps the
    # pages warm (the values are identical — same matmul either way).
    gemm_work = np.empty(nlrow * nlcol)

    # ------------------------------------------------------ factorization
    with ctx.span("scalapack:factorize", nb=nb):
        # A block [k0, k0+nb) never straddles a distribution block, so its
        # local rows/columns on the owning process are one contiguous
        # slice starting at ``local_index(k0, ...)``; with sorted
        # grows/gcols, the "at or past k0" sets are suffix slices found by
        # ``searchsorted``.  Plain slices replace dict lookups and
        # ``np.ix_`` scatter/gather on every hot path below.
        #
        # With ``opts.blocked_panel`` the panel factorization runs
        # *left-looking* over the shared blocked kernel: each column's
        # scaled L segment and U row are pushed into the accumulator
        # instead of applying a rank-1 ``np.outer`` to the whole panel
        # remainder, a column is materialized by one gemv right before
        # its pivot search, and swapped pivot rows are finalized (and
        # dropped from the panel) before the exchange so the rows on the
        # wire are the true values.  Nothing is left pending at the end
        # of a panel — every interior column was materialized on read.
        for k0 in range(0, n, nb):
            kb = min(nb, n - k0)
            kblock = k0 // nb
            pck = kblock % grid.npcol
            prk = kblock % grid.nprow
            lc0 = local_index(k0, nb, grid.npcol)  # valid iff mycol == pck
            lr0 = local_index(k0, nb, grid.nprow)  # valid iff myrow == prk
            panel_flops = 0.0
            panel = None
            if mycol == pck:
                if acc is not None:
                    acc.reset()
                    panel = a_local[:, lc0:lc0 + kb]
                # "at or past j" row suffixes for every panel column, in
                # two vectorized searches instead of 2·kb scalar ones
                pcols = np.arange(k0, k0 + kb)
                i0s = np.searchsorted(grows, pcols)
                i1s = np.searchsorted(grows, pcols, side="right")

            # ---- panel factorization (process column pck)
            for j in range(k0, k0 + kb):
                t = j - k0
                if panel is not None and acc.k:
                    # Left-looking: apply the pending interior updates to
                    # column j before anyone reads it.
                    acc.apply_col(panel, t)
                if opts.pivoting:
                    if mycol == pck:
                        lj = lc0 + t
                        i0 = int(i0s[t])
                        if i0 < nlrow:
                            seg = a_local[i0:, lj]
                            ii = int(np.abs(seg).argmax())
                            cand = (abs(float(seg[ii])),
                                    int(grows[i0 + ii]))
                        else:
                            cand = (-1.0, -1)
                        best = yield from col_comm.allreduce(cand, op=_maxloc)
                        piv = best[1]
                    else:
                        piv = None
                    piv = yield from row_comm.bcast(piv, root=pck)
                else:
                    piv = j
                ipiv.append(piv)

                # global row swap j <-> piv (all process columns participate)
                if piv != j:
                    pr_j = owner_of(j, nb, grid.nprow)
                    pr_p = owner_of(piv, nb, grid.nprow)
                    if pr_j == pr_p:
                        if myrow == pr_j:
                            lj_r = local_index(j, nb, grid.nprow)
                            lp_r = local_index(piv, nb, grid.nprow)
                            if panel is not None and acc.k:
                                acc.finalize_rows(panel, (lj_r, lp_r), t + 1)
                            a_local[[lj_r, lp_r], :] = a_local[[lp_r, lj_r], :]
                    elif myrow == pr_j:
                        lj_r = local_index(j, nb, grid.nprow)
                        if panel is not None and acc.k:
                            acc.finalize_rows(panel, (lj_r,), t + 1)
                        row_j = a_local[lj_r, :].copy()
                        yield from col_comm.send(row_j, dest=pr_p, tag=3)
                        other = yield from col_comm.recv(source=pr_p, tag=3)
                        a_local[lj_r, :] = other
                    elif myrow == pr_p:
                        lp_r = local_index(piv, nb, grid.nprow)
                        if panel is not None and acc.k:
                            acc.finalize_rows(panel, (lp_r,), t + 1)
                        row_p = a_local[lp_r, :].copy()
                        yield from col_comm.send(row_p, dest=pr_j, tag=3)
                        other = yield from col_comm.recv(source=pr_j, tag=3)
                        a_local[lp_r, :] = other

                # scale column j and update the panel remainder
                if mycol == pck:
                    src_pr = owner_of(j, nb, grid.nprow)
                    lj = lc0 + t
                    lc_end = lc0 + kb
                    if myrow == src_pr:
                        lj_r = local_index(j, nb, grid.nprow)
                        if panel is not None and acc.k:
                            # The U row must carry the true values of the
                            # panel columns right of j.
                            acc.finalize_rows(panel, (lj_r,), t + 1)
                        prow = a_local[lj_r, lj:lc_end].copy()
                    else:
                        prow = None
                    prow = yield from col_comm.bcast(prow, root=src_pr)
                    pivot = prow[0]
                    if pivot == 0.0:
                        raise SingularMatrixError(f"zero pivot at column {j}")
                    i1 = int(i1s[t])
                    if i1 < nlrow:
                        a_local[i1:, lj] /= pivot
                        rest = lc_end - lj - 1
                        if panel is not None:
                            if rest:
                                acc.push(a_local[i1:, lj], i1,
                                         prow[1:], t + 1)
                        elif rest:
                            a_local[i1:, lj + 1:lc_end] -= (  # repro: allow[PERF001] -- the level-wise reference path (blocked_panel=False)
                                np.outer(a_local[i1:, lj], prow[1:])
                            )
                        panel_flops += 2.0 * (nlrow - i1) * (rest + 0.5)

            # ---- U12 block row: TRSM against L11, broadcast down columns
            c_r = int(np.searchsorted(gcols, k0 + kb))
            if myrow == prk:
                if mycol == pck:
                    l11 = a_local[lr0:lr0 + kb, lc0:lc0 + kb].copy()
                else:
                    l11 = None
                l11 = yield from row_comm.bcast(l11, root=pck)
                if c_r < nlcol:
                    u12 = scipy.linalg.solve_triangular(
                        l11, a_local[lr0:lr0 + kb, c_r:],
                        lower=True, unit_diagonal=True,
                    )
                    a_local[lr0:lr0 + kb, c_r:] = u12
                    panel_flops += float(kb) * kb * (nlcol - c_r)
                else:
                    u12 = np.zeros((kb, 0))
            else:
                u12 = None
            u12 = yield from col_comm.bcast(u12, root=prk)

            # ---- L21 panel broadcast along process rows
            r_b = int(np.searchsorted(grows, k0 + kb))
            if mycol == pck:
                l21 = a_local[r_b:, lc0:lc0 + kb].copy()
            else:
                l21 = None
            l21 = yield from row_comm.bcast(l21, root=pck)

            # ---- trailing update (local GEMM)
            if r_b < nlrow and c_r < nlcol and u12.shape[1]:
                h, w = nlrow - r_b, nlcol - c_r
                prod = np.matmul(l21, u12, out=gemm_work[:h * w].reshape(h, w))
                a_local[r_b:, c_r:] -= prod
                panel_flops += 2.0 * (nlrow - r_b) * kb * (nlcol - c_r)

            if opts.charge_compute and panel_flops:
                yield from ctx.compute(flops=panel_flops)

    # ------------------------------------------------------------- solve
    with ctx.span("scalapack:substitution"):
        # Apply the recorded pivots to the (replicated) right-hand side:
        # fold the swap chain into one index permutation and gather once
        # (bit-identical — swaps move values, they never combine them).
        perm = np.arange(n)
        for j, piv in enumerate(ipiv):
            if piv != j:
                perm[j], perm[piv] = perm[piv], perm[j]
        b = b[perm]

        nblocks = (n + nb - 1) // nb
        y = np.zeros(n)
        for kblock in range(nblocks):
            k0 = kblock * nb
            kb = min(nb, n - k0)
            prk = kblock % grid.nprow
            pck = kblock % grid.npcol
            y_k = None
            if myrow == prk:
                lr0 = local_index(k0, nb, grid.nprow)
                c_l = int(np.searchsorted(gcols, k0))
                partial = (
                    a_local[lr0:lr0 + kb, :c_l] @ y[gcols[:c_l]]
                    if c_l else np.zeros(kb)
                )
                total = yield from row_comm.reduce(partial, root=pck)
                if mycol == pck:
                    lc0 = local_index(k0, nb, grid.npcol)
                    l_kk = a_local[lr0:lr0 + kb, lc0:lc0 + kb]
                    y_k = scipy.linalg.solve_triangular(
                        l_kk, b[k0:k0 + kb] - total,
                        lower=True, unit_diagonal=True,
                    )
            y_k = yield from comm.bcast(y_k, root=grid.rank_of(prk, pck))
            y[k0:k0 + kb] = y_k

        x = np.zeros(n)
        for kblock in range(nblocks - 1, -1, -1):
            k0 = kblock * nb
            kb = min(nb, n - k0)
            prk = kblock % grid.nprow
            pck = kblock % grid.npcol
            x_k = None
            if myrow == prk:
                lr0 = local_index(k0, nb, grid.nprow)
                c_r = int(np.searchsorted(gcols, k0 + kb))
                partial = (
                    a_local[lr0:lr0 + kb, c_r:] @ x[gcols[c_r:]]
                    if c_r < nlcol else np.zeros(kb)
                )
                total = yield from row_comm.reduce(partial, root=pck)
                if mycol == pck:
                    lc0 = local_index(k0, nb, grid.npcol)
                    u_kk = a_local[lr0:lr0 + kb, lc0:lc0 + kb]
                    x_k = scipy.linalg.solve_triangular(
                        u_kk, y[k0:k0 + kb] - total, lower=False,
                    )
            x_k = yield from comm.bcast(x_k, root=grid.rank_of(prk, pck))
            x[k0:k0 + kb] = x_k

        if opts.charge_compute:
            # Substitution phase: 2n² flops spread over the grid.
            yield from ctx.compute(flops=2.0 * n * n / nprocs)
    return x
