"""Shared blocked-panel compute kernels for the simulated solvers.

Every dense solver in this repository has the same wall-clock problem:
the *algorithm* applies a rank-1 trailing update per level/column, but
executing ``np.outer`` once per level serializes all simulated ranks on
BLAS-1 work in a single interpreter.  The fix (first landed for plain
IMeP) is always the same shape:

* defer the per-level updates into a pair of panel accumulators —
  ``C`` (the broadcast column / L segment per level, stored at its
  global offset) and ``M`` (the row the level multiplies it with);
* answer any *read* of a not-yet-updated entry with a small on-the-fly
  correction (one gemv against the pending panel);
* apply the whole panel at once as one BLAS-3 update — through
  scipy's ``dgemm`` writing in place when available, with a pure-numpy
  fallback.

:class:`PanelAccumulator` packages that machinery so IMeP, ft-IMe and
the ScaLAPACK ``pdgesv`` panel factorization all share one
implementation.  The pending update it represents is::

    table[i, j]  +=  sign * Σ_t C[t, i] · M[t, j]

with ``sign = -1`` for the usual subtracted trailing update.

Bitwise contract at panel size 1
--------------------------------
With capacity ``kb = 1`` every level is flushed immediately, and each
code path is arranged to reproduce the level-wise reference arithmetic
*bitwise*: a k=1 ``dgemm`` performs the same multiply-subtract per
element as ``np.outer`` (asserted end-to-end by the solver equivalence
tests), corrected reads degrade to plain copies (``k == 0``), and the
correction expressions keep the reference operand order.  Solvers
expose this as their ``block_levels=1`` / reference modes; larger
panels change float summation order only — never the communication
pattern, charged flops, or payload sizes.
"""

from __future__ import annotations

import numpy as np

#: ``_dgemm`` before the first flush has looked scipy up
_UNRESOLVED = object()
#: scipy's in-place ``dgemm``, or ``None`` for the numpy fallback.
#: Resolved on the first flush: importing ``scipy.linalg`` costs about
#: as much as the rest of the package import, and analytic and skeleton
#: runs never flush a panel.
_dgemm = _UNRESOLVED


def _resolve_dgemm():
    global _dgemm
    try:
        from scipy.linalg.blas import dgemm as _dgemm
    except ImportError:  # pragma: no cover - scipy is in the baked toolchain
        _dgemm = None
    return _dgemm


class PanelAccumulator:
    """Deferred rank-k update ``table += sign · Cᵀ M`` over ≤ kb levels.

    ``C`` is ``(kb, nc)`` — one pending row per deferred level, indexed
    like the table's *rows* (IMe: the level's chat at its global row
    offset) or *local rows* (ScaLAPACK: the scaled L segment).  ``M`` is
    ``(kb, nm)`` — the matching multiplier row, indexed like the table's
    *columns*.  The ``(kb, n)`` layout keeps each level's push
    contiguous and feeds the flush gemm its transposed operand directly.
    """

    __slots__ = ("kb", "nc", "nm", "sign", "zero_c_prefix", "k", "c", "m")

    def __init__(self, kb: int, nc: int, nm: int, sign: float = -1.0,
                 zero_c_prefix: bool = True):
        self.kb = int(kb)
        self.nc = int(nc)
        self.nm = int(nm)
        self.sign = float(sign)
        #: IMe-style users push at monotonically increasing offsets and
        #: only ever read at or right of them, so zeroing the C prefix
        #: is dead work they opt out of; users whose reads span full C
        #: columns (``apply_col``/``finalize_rows`` from 0) keep it.
        self.zero_c_prefix = bool(zero_c_prefix)
        self.k = 0                       # pending levels
        self.c = np.empty((self.kb, self.nc))
        self.m = np.empty((self.kb, self.nm))

    # ------------------------------------------------------------- writes
    def push(self, c_values: np.ndarray, c_lo: int,
             m_values: np.ndarray, m_lo: int = 0) -> int:
        """Defer one level: C row at offset ``c_lo``, M row at ``m_lo``.

        Entries outside the given segments are zeroed, so reads and
        flushes may span the full width.  Returns the slot index.
        """
        idx = self.k
        if self.zero_c_prefix:
            self.c[idx, :c_lo] = 0.0
        self.c[idx, c_lo:c_lo + len(c_values)] = c_values
        if m_lo or m_lo + len(m_values) < self.nm:
            self.m[idx, :] = 0.0
            self.m[idx, m_lo:m_lo + len(m_values)] = m_values
        else:
            self.m[idx] = m_values
        self.k = idx + 1
        return idx

    def zero_m(self, j: int) -> None:
        """Void all pending updates to table column ``j`` (its final
        value was just written directly — e.g. a normalized pivot
        column)."""
        self.m[:self.k, j] = 0.0

    # -------------------------------------------------------------- reads
    def correction_row(self, i: int) -> np.ndarray:
        """Unsigned pending contribution to table row ``i``: C[:k, i]·M."""
        return self.c[:self.k, i] @ self.m[:self.k]

    def row(self, table: np.ndarray, i: int) -> np.ndarray:
        """Row ``i`` of the true (fully updated) table."""
        if not self.k:
            return table[i, :].copy()
        if self.sign < 0:
            return table[i, :] - self.correction_row(i)
        return table[i, :] + self.correction_row(i)

    def col(self, table: np.ndarray, j: int, lo: int = 0) -> np.ndarray:
        """Column ``j`` of the true table, rows ``lo:``."""
        if not self.k:
            return table[lo:, j].copy()
        corr = self.m[:self.k, j] @ self.c[:self.k, lo:]
        if self.sign < 0:
            return table[lo:, j] - corr
        return table[lo:, j] + corr

    def apply_col(self, table: np.ndarray, j: int, lo: int = 0) -> None:
        """Materialize column ``j`` in place (rows ``lo:``)."""
        if not self.k:
            return
        corr = self.m[:self.k, j] @ self.c[:self.k, lo:]
        if self.sign < 0:
            table[lo:, j] -= corr
        else:
            table[lo:, j] += corr

    def finalize_rows(self, table: np.ndarray, rows, m_lo: int = 0) -> None:
        """Materialize table rows in place over columns ``m_lo:`` and
        drop them from the pending panel (their C entries are zeroed) —
        for rows about to be exchanged, e.g. a pivot row swap."""
        k = self.k
        if not k:
            return
        hi = table.shape[1]  # table may be narrower than M (partial panel)
        for r in rows:
            corr = self.c[:k, r] @ self.m[:k, m_lo:hi]
            if self.sign < 0:
                table[r, m_lo:] -= corr
            else:
                table[r, m_lo:] += corr
            self.c[:k, r] = 0.0

    # -------------------------------------------------------------- flush
    def flush(self, table: np.ndarray, lo: int = 0) -> None:
        """Apply the whole pending panel to table rows ``lo:`` as one
        BLAS-3 update, then reset."""
        k = self.k
        if k and lo < self.nc:
            tail = table[lo:, :]
            dgemm = _dgemm if _dgemm is not _UNRESOLVED else _resolve_dgemm()
            if dgemm is not None and tail.flags.c_contiguous:
                # In-place trailing update via the transposed problem:
                # tail.T is an F-contiguous view, so BLAS can accumulate
                # the product without the temporary the numpy expression
                # below materializes.
                dgemm(alpha=self.sign, a=self.m[:k].T, b=self.c[:k, lo:],
                      beta=1.0, c=tail.T, overwrite_c=1)
            elif self.sign < 0:
                tail -= self.c[:k, lo:].T @ self.m[:k]
            else:
                tail += self.c[:k, lo:].T @ self.m[:k]
        self.k = 0

    def reset(self) -> None:
        """Discard the pending panel without applying it."""
        self.k = 0
