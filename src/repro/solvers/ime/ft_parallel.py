"""Fault-tolerant parallel IMe: surviving a rank failure mid-solve.

§2 motivates IMe with its "integrated low-cost multiple fault tolerance,
which is more efficient than the checkpoint/restart technique usually
applied in Gaussian Elimination" (Artioli/Loreti/Ciampolini, SRDS'19;
Loreti et al., SRDS'20).  This module reproduces that capability in the
simulated-MPI setting, end to end:

* the table's data columns are distributed cyclically over the first
  ``N−1`` ranks; the **last rank is the checksum rank**, carrying ``c``
  weighted-sum columns (seeded Gaussian weights, regenerable locally by
  every rank — recovery needs no weight communication);
* every level applies the standard fundamental-formula update to data
  *and* checksum columns, the checksums with the closed-form
  normalization correction (see :mod:`repro.solvers.ime.fault`), so the
  invariant ``C = Σ_j w_j · col_j`` holds exactly at every level;
* a **failure** of a data rank at a chosen level is injected as in real
  resilient MPI: the failed rank drops out, the survivors *shrink* the
  communicator (ULFM-style, via ``comm.split``) and run the recovery
  protocol — each survivor reduces its weighted column sums to the
  checksum rank, which solves the k×k weighted system and ships the
  reconstructed columns to the master, who **adopts** them (and their h
  entries, which its auxiliary-quantity replica already holds);
* the reduction then continues on the shrunk communicator with the
  remapped column ownership, finishing to the exact solution with **no
  restart and no checkpoint I/O**.

The failure level and victim are parameters (a deterministic simulation
has no spontaneous faults); ``fail_rank`` must be a slave data rank — the
master's h replica and the checksum rank are single points the SRDS
design protects by replication, out of scope here.

Blocked trailing updates
------------------------
Like plain IMeP, the per-level rank-1 table updates are deferred into
panels of ``block_levels`` levels and flushed as one BLAS-3 update
through the shared kernel (:mod:`repro.solvers.kernels`).  The checksum
rank needs *two* accumulators — the subtracted ``chat ⊗ m_cs`` update
and the added ``chat ⊗ w_l`` normalization correction — flushed in the
reference order.  Panels flush at the failure boundary before the
shrink, so every table row the recovery protocol's reductions feed into
recovered rows ``≥ fail_level`` is exact; rows *above* the failure
level may be stale mid-panel, but recovery reconstructs columns
row-independently and no row above the failure level is ever read again
(the same dead-row argument that lets plain IMeP skip updating row
``l`` at level ``l``).  ``block_levels=1`` reproduces the level-wise
arithmetic bitwise (the kernel contract), which the equivalence tests
pin against plain IMeP and the sequential solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.dense import SingularMatrixError
from repro.solvers.ime.costmodel import ImeCostModel
from repro.solvers.ime.fault import FaultRecoveryError
from repro.solvers.kernels import PanelAccumulator


@dataclass(frozen=True)
class FtOptions:
    """Fault-tolerant run parameters."""

    n_checksums: int = 2
    weight_seed: int = 7
    #: inject a failure of this data rank ... (None = fault-free run)
    fail_rank: int | None = None
    #: ... immediately before this level
    fail_level: int = 0
    #: defer the rank-1 table updates across this many levels and apply
    #: them as one BLAS-3 panel update (wall-clock only — the per-level
    #: message pattern, payload sizes, charged flops, and the recovery
    #: report are unchanged; ``block_levels=1`` is the bitwise
    #: level-wise reference)
    block_levels: int = 24

    def __post_init__(self):
        if self.n_checksums < 1:
            raise ValueError(
                f"need at least one checksum column: {self.n_checksums}"
            )
        if self.fail_rank is not None and self.fail_rank == 0:
            raise ValueError("the master (rank 0) cannot be the victim: its "
                             "h replica is required for recovery")


def _data_columns(n: int, n_data_ranks: int, rank: int) -> np.ndarray:
    return np.arange(rank, n, n_data_ranks)


def _weights(n: int, c: int, seed: int) -> np.ndarray:
    """The checksum weights — regenerated locally by every rank."""
    return np.random.default_rng(seed).normal(size=(c, n))


def ime_ft_parallel_program(ctx, comm, system=None,
                            options: FtOptions | None = None):
    """Rank program: fault-tolerant IMeP.

    World layout: ranks ``0 .. size−2`` hold data columns (rank 0 is the
    master), rank ``size−1`` is the checksum rank.  Returns the solution
    on the master, plus a small recovery report; other ranks return None
    (the failed rank returns the string ``"failed"``).
    """
    opts = options or FtOptions()
    rank, size = comm.rank, comm.size
    if size < 3:
        raise ValueError("fault-tolerant IMeP needs ≥ 3 ranks "
                         "(master + ≥1 slave + checksum rank)")
    n_data = size - 1
    cs_rank = size - 1
    master = 0
    if opts.fail_rank is not None and not (0 < opts.fail_rank < cs_rank):
        raise ValueError(
            f"fail_rank must be a slave data rank in (0, {cs_rank})"
        )

    # ----------------------------------------------------------- INITIME
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
        weights = _weights(n, opts.n_checksums, opts.weight_seed)
        shards = [
            (n, right[:, _data_columns(n, n_data, r)].copy(),
             b[_data_columns(n, n_data, r)].copy())
            for r in range(n_data)
        ]
        # The checksum rank receives C = R Wᵀ and the h checksums.
        shards.append((n, right @ weights.T, weights @ b))
        h_master = b.copy()
    else:
        shards = None
    n, local_cols, h_local = yield from comm.scatter(shards, root=master)
    weights = _weights(n, opts.n_checksums, opts.weight_seed)

    is_checksum_rank = rank == cs_rank
    if is_checksum_rank:
        owned: np.ndarray = np.array([], dtype=np.int64)
    else:
        owned = _data_columns(n, n_data, rank)

    #: global column -> owning world rank, kept identical on all ranks
    owner_of = np.arange(n, dtype=np.int64) % n_data
    alive = comm
    recovery_report = None

    kb = max(1, opts.block_levels)
    # The deferred trailing-update panels (shared blocked kernel).  The
    # checksum rank folds its two per-level rank-1 updates into a
    # subtract accumulator (chat ⊗ m_cs) and an add accumulator
    # (chat ⊗ w_l), flushed in the reference order.
    acc = PanelAccumulator(kb, n, local_cols.shape[1], zero_c_prefix=False)
    acc_w = (PanelAccumulator(kb, n, opts.n_checksums, sign=1.0,
                              zero_c_prefix=False)
             if is_checksum_rank else None)

    #: global column -> local column index on the owning rank (rebuilt
    #: only when the master adopts recovered columns)
    local_pos = np.full(n, -1, dtype=np.int64)
    local_pos[owned] = np.arange(len(owned))

    # Per-communicator lookup caches — the per-level hot path must not
    # rebuild the alive group or rescan ``owner_of``; both change only
    # at the (single) shrink.
    def _comm_caches():
        group = alive.group()
        alive_pos = {int(w): i for i, w in enumerate(group)}
        if rank == master:
            gather_cols = [
                None if w == cs_rank else np.nonzero(owner_of == w)[0]
                for w in group
            ]
            # Concatenated ownership map over the data ranks: the level
            # hot path assembles the gathered row in one numpy scatter
            # (the vectorized rank-class form of a per-rank assembly
            # loop; values bitwise equal — it is a pure permuted copy).
            gather_perm = np.concatenate(
                [c for c in gather_cols if c is not None]
            )
            gather_perm.flags.writeable = False
        else:
            gather_cols = gather_perm = None
        return alive_pos, gather_cols, gather_perm

    alive_pos, gather_cols, gather_perm = _comm_caches()

    # Published per-level compute cost (checksum rank pays 2c(n−l) extra
    # for its c weighted columns).
    level_flops = ImeCostModel.ft_level_flops_per_rank(
        n, n_data, opts.n_checksums if is_checksum_rank else 0
    )

    m_empty = np.empty(0)
    fail_at = opts.fail_level if opts.fail_rank is not None else None

    for level in range(n):
        # ------------------------------------------------ failure + shrink
        if fail_at is not None and level == fail_at:
            if rank == opts.fail_rank:
                # The victim drops out; survivors shrink the communicator.
                yield from alive.split(color=None)
                return "failed"
            # The recovery reductions below read whole table columns, so
            # survivors flush their pending panels first: rows ≥ level
            # become exact; staler rows only feed recovered rows the
            # solve never reads again (see the module docstring).
            acc.flush(local_cols, level)
            if acc_w is not None:
                acc_w.flush(local_cols, level)
            alive = yield from alive.split(color=0, key=alive.rank)

            # -------------------------------------------------- recovery
            lost = _data_columns(n, n_data, opts.fail_rank)
            k = len(lost)
            if k > opts.n_checksums:
                raise FaultRecoveryError(
                    f"{k} columns lost but only {opts.n_checksums} "
                    "checksum columns configured"
                )
            # Each survivor reduces Σ_{j owned} w_ij·col_j to the checksum
            # rank (now the last rank of the shrunk communicator).
            if is_checksum_rank:
                partial = np.zeros((opts.n_checksums, n))
            else:
                partial = np.einsum("cj,rj->cr", weights[:, owned],
                                    local_cols)
            cs_alive_rank = alive.size - 1
            total = yield from alive.reduce(partial, root=cs_alive_rank)
            if is_checksum_rank:
                rhs = local_cols.T - total          # (c, n): C − survivors
                v = weights[:, lost]                 # (c, k)
                if k == opts.n_checksums:
                    recovered = np.linalg.solve(v, rhs)      # (k, n)
                else:
                    recovered, *_ = np.linalg.lstsq(v, rhs, rcond=None)
                yield from alive.send(recovered.T.copy(), dest=0, tag=99)
            if rank == master:
                recovered_cols = yield from alive.recv(source=cs_alive_rank,
                                                       tag=99)
                # Adopt the lost columns (and their h entries, which the
                # master's replica already tracks).
                merged_cols = np.concatenate([owned, lost])
                order = np.argsort(merged_cols)
                owned = merged_cols[order]
                local_cols = np.concatenate(
                    [local_cols, recovered_cols], axis=1
                )[:, order]
                h_local = np.concatenate(
                    [h_local, h_master[lost]]
                )[order]
                local_pos = np.full(n, -1, dtype=np.int64)
                local_pos[owned] = np.arange(len(owned))
                acc = PanelAccumulator(kb, n, local_cols.shape[1],
                                       zero_c_prefix=False)
            owner_of[lost] = master
            alive_pos, gather_cols, gather_perm = _comm_caches()
            recovery_report = {"lost_columns": len(lost),
                               "recovered_at_level": level}
            fail_at = None

        # ----------------------------------------------- one level (as IMeP)
        # The gather→bcast(aux)→bcast(chat) chain runs as one pipeline so
        # the fast path can fuse the whole level into a single rendezvous
        # on a constant-cost fabric; elsewhere the pipeline drives the same
        # collectives one at a time.
        m_local = (acc.row(local_cols, level) if not is_checksum_rank
                   else m_empty)
        owner_world = int(owner_of[level])
        owner_alive = alive_pos[owner_world]

        if alive.rank == 0:  # master (world rank 0 keeps alive-rank 0)
            def _aux(gathered, level=level):
                nonlocal h_master
                m_full = np.empty(n)
                m_full[gather_perm] = np.concatenate(
                    [shard for r, shard in enumerate(gathered)
                     if gather_cols[r] is not None]
                )
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

        if rank == owner_world:
            def _chat(aux, level=level):
                _hl, p = aux
                col = acc.col(local_cols, local_pos[level], level)
                col /= p
                return col
        else:
            _chat = None

        _gathered, (hl, p), chat = yield from alive.pipeline((
            ("gather", master, m_local),
            ("bcast", 0, _aux),
            ("bcast", owner_alive, _chat),
        ))

        if is_checksum_rank:
            m_cs = acc.row(local_cols, level)
            if acc_w.k:
                m_cs += acc_w.correction_row(level)
            acc.push(chat, level, m_cs)
            acc_w.push(chat, level, weights[:, level])
            h_local -= m_cs * hl
            h_local += weights[:, level] * hl
        else:
            acc.push(chat, level, m_local)
            if rank == owner_world:
                li = local_pos[level]
                acc.zero_m(li)
                local_cols[level:, li] = chat
            # Entry ``level`` of the owner picks up a bogus increment
            # here; the overwrite below restores the masked semantics.
            h_local -= m_local * hl
            if rank == owner_world:
                h_local[local_pos[level]] = hl
        if acc.k == kb or level == n - 1:
            acc.flush(local_cols, level + 1)
            if acc_w is not None:
                acc_w.flush(local_cols, level + 1)

        yield from ctx.compute(flops=float(level_flops[level]))

    if rank == master:
        return h_master / d, recovery_report
    return None
