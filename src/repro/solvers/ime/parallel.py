"""IMeP: the column-wise parallel Inhibition Method (§2.1).

The inhibition table is distributed **column-wise** (the scheme the paper
selects for its fault-tolerance fit), cyclically over the N ranks for load
balance.  Rank 0 is the *master*, the others are *slaves*.  Every level
``l`` performs exactly the message pattern §2.1 describes:

1. every rank sends the row-``l`` entries of its columns to the master —
   "only the n elements of the last row which result modified … must be
   sent to the master";
2. the master advances the auxiliary quantities ``h`` and **broadcasts**
   the level's auxiliary pair ``(ĥ_l, p)`` — "at every level it is also
   necessary to broadcast from the master to the slaves h";
3. the rank owning column ``l`` (table column ``n+l``) normalizes it and
   **broadcasts** it to all ranks — "the node in charge of the computation
   of the last column t∗,n+l should broadcast it to all the other nodes";
4. every rank inhibits row ``l`` from its own columns (a local, vectorized
   rank-1 update over the shrinking active window) and advances its local
   ``h`` shard with the broadcast ``ĥ_l``.

At the end the master reads the solution off its replica of ``h``
(``xᵢ = hᵢ/aᵢᵢ``); the distributed shards reproduce the same values (a
consistency property the tests check).

Compute time/energy is charged per level through the rank context, using
the *published* IMe complexity (3/2·n³ total, decaying linearly across
levels) so the performance model reflects the paper's algorithm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.memo import register_cache
from repro.solvers.dense import SingularMatrixError
from repro.solvers.ime.costmodel import ImeCostModel
from repro.solvers.kernels import PanelAccumulator


@dataclass(frozen=True)
class ImeOptions:
    """Tunables of the parallel run."""

    #: also return the rank-local h shard (testing/validation hook)
    return_shards: bool = False
    #: broadcast the final solution to all ranks instead of master-only
    broadcast_solution: bool = False
    #: defer the rank-1 table updates across this many levels and apply
    #: them as one BLAS-3 panel update (wall-clock only — the per-level
    #: message pattern, payload sizes, and charged flops are unchanged;
    #: float summation order differs from ``block_levels=1``, the
    #: level-at-a-time reference schedule)
    block_levels: int = 24


@register_cache
@functools.lru_cache(maxsize=None)
def _owned_columns(n: int, size: int, rank: int) -> np.ndarray:
    """Cyclic column distribution: rank owns columns rank, rank+N, …

    Cached (called once per level per rank); the array is read-only.
    """
    cols = np.arange(rank, n, size)
    cols.flags.writeable = False
    return cols


@register_cache
@functools.lru_cache(maxsize=None)
def _gather_permutation(n: int, size: int) -> np.ndarray:
    """Concatenated ownership map: position of every gathered element.

    ``m_full[_gather_permutation(n, size)] = concat(shards)`` assembles a
    rank-ordered gather result in one numpy scatter — the vectorized
    rank-class form of the per-rank assembly loop (values bitwise equal:
    it is a pure copy).  Read-only and memoized like the per-rank maps.
    """
    perm = np.concatenate([_owned_columns(n, size, r) for r in range(size)])
    perm.flags.writeable = False
    return perm


def ime_parallel_program(ctx, comm, system=None, options: ImeOptions | None = None):
    """Rank program solving ``system`` with IMeP.  Drive under a Job.

    ``system`` (a :class:`~repro.workloads.generator.LinearSystem`) needs to
    be supplied on the master only; slaves receive their table shards over
    the simulated network during INITIME.
    """
    opts = options or ImeOptions()
    rank = comm.rank
    size = comm.size
    master = 0

    # ----------------------------------------------------------- INITIME
    with ctx.span("ime:initime"):
        if rank == master:
            if system is None:
                raise ValueError("the master rank needs the input system")
            a = np.asarray(system.a, dtype=np.float64)
            b = np.asarray(system.b, dtype=np.float64)
            n = a.shape[0]
            d = np.diag(a).copy()
            if np.any(d == 0.0):
                raise SingularMatrixError(
                    "IMe requires nonzero diagonal entries"
                )
            right = a.T / d[:, None]      # R[i, j] = a_{j,i} / a_{i,i}
            shards = [
                (n, right[:, _owned_columns(n, size, r)].copy(),
                 b[_owned_columns(n, size, r)].copy())
                for r in range(size)
            ]
            h_master = b.copy()
        else:
            shards = None

        n, r_local, h_local = yield from comm.scatter(shards, root=master)
        mine = _owned_columns(n, size, rank)
        n_local = len(mine)
        # Map global column -> local index for the columns this rank owns.
        local_of = {int(g): i for i, g in enumerate(mine)}

        if rank == master:
            # INITIME scaling of the table: n² divisions.
            yield from ctx.compute(flops=float(n) * n, dram_bytes=8.0 * n * n)

    # ------------------------------------------------------------ levels
    #
    # The table updates are applied in *panels* of ``block_levels``
    # levels: within a panel the rank-1 updates are deferred (only the
    # row-``l`` values actually communicated are corrected on the fly),
    # then flushed as one trailing BLAS-3 update — the shared
    # blocked-panel kernel (:mod:`repro.solvers.kernels`).  A column
    # pivoted inside the panel is written back to the table immediately
    # (its chat) and its pending multipliers are zeroed (``zero_m``) —
    # the pre-pivot updates no longer apply to it — so the kernel's
    # correction formulas stay exact for pivoted columns too.  The
    # per-level message pattern — gather(row) → bcast(aux) →
    # bcast(column) — runs through ``comm.pipeline`` so the fast path
    # can fuse each level's chain into a single rendezvous on a
    # constant-cost fabric.
    kb = max(1, opts.block_levels)
    acc = PanelAccumulator(kb, n, n_local, zero_c_prefix=False)
    level_flops = ImeCostModel.level_flops_per_rank(n, size)

    with ctx.span("ime:levels", levels=n):
        for level in range(n):
            # (1) row-l entries of the owned columns go to the master;
            # (2) master advances its h replica, broadcasts (ĥ_l, p);
            # (3) the owner of table column n+l broadcasts its normalized
            #     active part to everyone.
            m_local = acc.row(r_local, level)
            owner = level % size

            if rank == master:
                def _aux(gathered, level=level):
                    nonlocal h_master
                    # One numpy scatter per level instead of a Python loop
                    # over ranks (same values: a pure permuted copy).
                    m_full = np.empty(n)
                    m_full[_gather_permutation(n, size)] = \
                        np.concatenate(gathered)
                    p = m_full[level]
                    if p == 0.0:
                        raise SingularMatrixError(
                            f"zero inhibition pivot at level {level}"
                        )
                    hl = h_master[level] / p
                    # Entry ``level`` picks up a bogus increment here, but
                    # the next statement overwrites it — every other entry
                    # sees exactly the masked update.
                    h_master -= m_full * hl
                    h_master[level] = hl
                    return (hl, p)
            else:
                _aux = None

            if rank == owner:
                def _chat(aux, level=level):
                    _hl, p = aux
                    col = acc.col(r_local, local_of[level], level)
                    col /= p
                    return col
            else:
                _chat = None

            _gathered, (hl, p), chat = yield from comm.pipeline((
                ("gather", master, m_local),
                ("bcast", master, _aux),
                ("bcast", owner, _chat),
            ))

            # (4) local inhibition of row `level` over the active window,
            # deferred into the panel.
            acc.push(chat, level, m_local)
            if rank == owner:
                lcol = local_of[level]
                acc.zero_m(lcol)
                r_local[level:, lcol] = chat
            h_local -= m_local * hl
            if rank == owner:
                h_local[local_of[level]] = hl
            if acc.k == kb or level == n - 1:
                acc.flush(r_local, level + 1)

            yield from ctx.compute(flops=float(level_flops[level]))

    # ------------------------------------------------------------- epilogue
    with ctx.span("ime:solution"):
        if rank == master:
            x = h_master / d
        else:
            x = None
        if opts.broadcast_solution:
            x = yield from comm.bcast(x, root=master)
    if opts.return_shards:
        return x, (mine, h_local)
    return x
