"""Min-plus (tropical) semiring matrix algebra.

Section 2.1 frames APSP as exponentiation over the tropical semiring
``R = (Z>=0 ∪ {inf}, min, +)``; Section 5 computes *filtered* powers where
each row keeps only its ``k`` smallest entries (ties broken by node ID).
This module provides:

* row filtering with the paper's exact tie-breaking rule,
* a row-sparse representation (``(n, k)`` index/value arrays) and the
  filtered hop power over it, ``filter_k(Ā^h)`` — the local computation
  performed by the node assigned an h-combination in the Section 5
  algorithm.  :func:`filtered_power_rows` computes it on ``(n, k)``
  arrays (:func:`filtered_power_rows_sparse`) and keeps the dense
  Bellman–Ford (:func:`hop_power_row_sparse`) for small instances and as
  the reference.

The dense products themselves (``minplus``, ``minplus_power``, ...) live
in :mod:`repro.semiring.kernels` — the pluggable kernel registry — and
are re-exported here for back-compat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernels import (  # noqa: F401  (re-exported for back-compat)
    DEFAULT_MEMORY_BUDGET,
    INF,
    minplus,
    minplus_gather,
    minplus_power,
    minplus_square,
)


def k_smallest_in_rows(matrix: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Indices and values of the ``k`` smallest entries per row.

    Ties are broken by column index (= node ID), matching the paper's
    convention ("breaking ties by node IDs").  Rows with fewer than ``k``
    finite entries are padded with ``(-1, inf)``.

    Returns
    -------
    (indices, values):
        Both of shape ``(n, k)``; ``indices`` is int64, padded with -1.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n_rows, n_cols = matrix.shape
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    k_eff = min(k, n_cols)
    # argsort is stable for kind="stable": equal values keep ascending
    # column order, which is exactly the ID tie-break.
    order = np.argsort(matrix, axis=1, kind="stable")[:, :k_eff]
    values = np.take_along_axis(matrix, order, axis=1)
    indices = order.astype(np.int64)
    indices[~np.isfinite(values)] = -1
    values = np.where(np.isfinite(values), values, INF)
    if k_eff < k:
        pad_idx = np.full((n_rows, k - k_eff), -1, dtype=np.int64)
        pad_val = np.full((n_rows, k - k_eff), INF)
        indices = np.concatenate([indices, pad_idx], axis=1)
        values = np.concatenate([values, pad_val], axis=1)
    return indices, values


@dataclass
class RowSparse:
    """Row-sparse matrix: each row holds at most ``k`` finite entries.

    ``indices[i, j] = -1`` marks a padding slot (value ``inf``).  This is the
    object a node actually stores in the Section 5 algorithm: its local list
    ``M(u)`` of k outgoing edges.
    """

    indices: np.ndarray  # (n, k) int64, -1 = empty
    values: np.ndarray  # (n, k) float64, inf on empty slots
    n_cols: int

    @property
    def n_rows(self) -> int:
        return self.indices.shape[0]

    @property
    def k(self) -> int:
        return self.indices.shape[1]

    def density(self) -> float:
        """Average finite entries per row (the rho of [CDKL21])."""
        return float(np.isfinite(self.values).sum() / max(1, self.n_rows))

    def to_dense(self) -> np.ndarray:
        """Dense matrix with inf in unfilled slots."""
        out = np.full((self.n_rows, self.n_cols), INF)
        rows = np.repeat(np.arange(self.n_rows), self.k)
        cols = self.indices.ravel()
        vals = self.values.ravel()
        keep = cols >= 0
        np.minimum.at(out, (rows[keep], cols[keep]), vals[keep])
        return out


def row_sparse_from_dense(matrix: np.ndarray, k: int) -> RowSparse:
    """Filter a dense matrix into its k-smallest-per-row sparse form."""
    indices, values = k_smallest_in_rows(matrix, k)
    return RowSparse(indices=indices, values=values, n_cols=matrix.shape[1])


def hop_power_row_sparse(
    sparse: RowSparse,
    hops: int,
    include_zero_diagonal: bool = True,
) -> np.ndarray:
    """Exact ``h``-hop distances in the filtered graph: ``Ā^h`` (dense).

    Bellman-Ford over the row-sparse structure: ``h`` rounds of
    ``D[u, :] <- min(D[u, :], min_j (w(u, nbr_j) + D[nbr_j, :]))``.
    With a zero diagonal, the result after ``h`` rounds is the minimum
    length over paths with at most ``h`` edges of ``Ā``.

    Complexity is ``O(h * n * k * n)`` numpy element-ops plus an ``(n, n)``
    result.  Callers that only need the k smallest entries per row go
    through :func:`filtered_power_rows`, which uses this dense path only
    for small instances; it stays the reference the row-sparse path
    (:func:`filtered_power_rows_sparse`) is tested against.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    n = sparse.n_rows
    if sparse.n_cols != n:
        raise ValueError("hop power requires a square matrix")
    dist = sparse.to_dense()
    if include_zero_diagonal:
        np.fill_diagonal(dist, 0.0)
    # Replace -1 padding with self-loops of weight inf (harmless).
    nbr = np.where(sparse.indices >= 0, sparse.indices, np.arange(n)[:, None])
    wgt = np.where(sparse.indices >= 0, sparse.values, INF)
    current = dist
    for _ in range(hops - 1):
        # candidate[u, v] = min_j w(u, nbr_j) + current[nbr_j, v], blocked
        # through the kernel layer's gathered product.
        candidate = minplus_gather(wgt, nbr, current)
        updated = np.minimum(current, candidate)
        if np.array_equal(updated, current):
            break
        current = updated
    return current


#: Smallest ``n`` at which :func:`filtered_power_rows` takes the row-sparse
#: path.  Set from the E4c switch-point table
#: (``benchmarks/bench_knearest.py::test_sparse_switch_point``, Theorem 1.1
#: schedule on degree-24 ER graphs, 2-CPU x86-64 host, three runs): the
#: dense Bellman–Ford wins at n = 64 (0.4-0.6 ms vs 0.9-1.2 ms), the
#: row-sparse path from n = 128 on (1.8-2.1x at 128, 2.0-2.4x at 256,
#: 2.8-3.3x at 512, 3.6-4.9x at 1024).
SPARSE_POWER_MIN_N = 128


def _k_smallest_triples(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    n_rows: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The k smallest entries per row of a list of ``(row, col, value)``.

    Repeated ``(row, col)`` pairs keep their minimum value; the rest are
    ordered by ``(value, col)`` — the ID tie-break of
    :func:`k_smallest_in_rows`, whose ``(n_rows, k)`` padded layout the
    result shares.  Non-finite values are dropped.  Values are replaced by
    their rank among the distinct values, so both orderings are plain
    sorts of one bit-packed int64 key; the row, column and rank bits must
    fit in 63 (``ValueError`` otherwise).
    """
    finite = vals < INF
    rows, cols = rows[finite], cols[finite]
    distinct, rank = np.unique(vals[finite], return_inverse=True)
    vbits = max(1, len(distinct) - 1).bit_length()
    cbits = max(1, int(cols.max(initial=0))).bit_length()
    if max(1, n_rows - 1).bit_length() + cbits + vbits > 63:
        raise ValueError("rows, columns and distinct values overflow an int64 sort key")
    cmask, vmask = (1 << cbits) - 1, (1 << vbits) - 1
    # Sorted by (row, col, value), the first copy of a pair is its minimum.
    key = np.sort((((rows << cbits) | cols) << vbits) | rank)
    pair = key >> vbits
    first = np.ones(len(key), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    pair, rank = pair[first], key[first] & vmask
    rows, cols = pair >> cbits, pair & cmask
    # Re-sort by (row, value, col) and keep the first k of each row.
    key = np.sort((((rows << vbits) | rank) << cbits) | cols)
    rows, rank, cols = key >> (vbits + cbits), (key >> cbits) & vmask, key & cmask
    slot = np.arange(len(key)) - np.searchsorted(rows, rows)
    kept = slot < k
    indices = np.full((n_rows, k), -1, dtype=np.int64)
    values = np.full((n_rows, k), INF)
    indices[rows[kept], slot[kept]] = cols[kept]
    values[rows[kept], slot[kept]] = distinct[rank[kept]]
    return indices, values


def filter_with_zero_diagonal(
    sparse: RowSparse, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``filter_k`` of ``sparse`` with its diagonal set to zero.

    The row-sparse form of ``to_dense()`` + ``fill_diagonal(0)`` +
    :func:`k_smallest_in_rows`: a stored self-entry is replaced by 0.
    """
    n = sparse.n_rows
    own = np.arange(n)
    keep = (sparse.indices >= 0) & (sparse.indices != own[:, None])
    rows = np.concatenate([np.repeat(own, sparse.k)[keep.ravel()], own])
    cols = np.concatenate([sparse.indices[keep], own])
    vals = np.concatenate([sparse.values[keep], np.zeros(n)])
    return _k_smallest_triples(rows, cols, vals, n, k)


def _filtered_step(
    weights: np.ndarray,
    nbr: np.ndarray,
    indices: np.ndarray,
    values: np.ndarray,
    memory_budget: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One filtered product ``F <- filter_k(F ∪ Ā ⊗ F)`` on ``(n, k)`` rows.

    Row ``u`` gathers the candidates ``w(u, nbr_j) + F[nbr_j, l]`` and keeps
    those not above its current k-th value ``F[u, k-1]``: a larger one is
    beaten by all k entries of the row.  Equal ones stay, since they can
    still win on the ID tie-break.  Rows are processed in blocks whose
    ``(rows, deg, k)`` candidate arrays, and the sort keys of the worst
    case where none is pruned, fit ``memory_budget``.
    """
    n, k = indices.shape
    deg = nbr.shape[1]
    # Padded thresholds (rows with < k entries) admit every finite candidate.
    limit = np.where(values[:, -1] < INF, values[:, -1], np.finfo(np.float64).max)
    block = max(1, memory_budget // (64 * max(1, deg * k)))
    out_idx = np.empty_like(indices)
    out_val = np.empty_like(values)
    for start in range(0, n, block):
        stop = min(start + block, n)
        cand = weights[start:stop, :, None] + values[nbr[start:stop]]
        r, j, col = np.nonzero(cand <= limit[start:stop, None, None])
        own = indices[start:stop]
        rows = np.concatenate([np.repeat(np.arange(stop - start), k), r])
        cols = np.concatenate([own.ravel(), indices[nbr[start + r, j], col]])
        vals = np.concatenate([values[start:stop].ravel(), cand[r, j, col]])
        out_idx[start:stop], out_val[start:stop] = _k_smallest_triples(
            rows, cols, vals, stop - start, k
        )
    return out_idx, out_val


def filtered_power_rows_sparse(
    sparse: RowSparse, hops: int, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``filter_k(Ā^h)`` computed on ``(n, k)`` arrays, never ``(n, n)``.

    ``Ā`` is ``sparse`` with a zero diagonal.  Starts from
    ``F = filter_k(Ā ∪ 0-diagonal)`` and takes ``hops - 1`` filtered
    products ``F <- filter_k(F ∪ Ā ⊗ F)`` (:func:`_filtered_step`); it
    stops early once ``F`` no longer changes.  By the argument of Lemma
    5.5, every entry among the k smallest of a row of ``Ā^{j+1}`` is
    reached through entries among the k smallest of ``Ā^j``, so the
    result equals ``k_smallest_in_rows(hop_power_row_sparse(sparse,
    hops), k)`` bit for bit whenever the path-length additions are exact
    (integer weights, or floats whose sums do not round).  Transient
    memory is O(n * deg * k), where ``deg`` is the width of ``sparse``,
    in row blocks within
    :data:`~repro.semiring.kernels.DEFAULT_MEMORY_BUDGET` bytes.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = sparse.n_rows
    if sparse.n_cols != n:
        raise ValueError("hop power requires a square matrix")
    indices, values = filter_with_zero_diagonal(sparse, k)
    present = sparse.indices >= 0
    nbr = np.where(present, sparse.indices, np.arange(n)[:, None])
    weights = np.where(present, sparse.values, INF)
    for _ in range(hops - 1):
        new_idx, new_val = _filtered_step(
            weights, nbr, indices, values, DEFAULT_MEMORY_BUDGET
        )
        if np.array_equal(new_idx, indices) and np.array_equal(new_val, values):
            break
        indices, values = new_idx, new_val
    return indices, values


def filtered_power_rows(
    sparse: RowSparse, hops: int, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The k smallest entries per row of ``Ā^h`` (zero diagonal added).

    One Lemma 5.1 round.  The path is chosen from the input shape: the
    dense :func:`hop_power_row_sparse` below :data:`SPARSE_POWER_MIN_N`
    nodes, :func:`filtered_power_rows_sparse` from there on.  Both return
    the same arrays.
    """
    if sparse.n_rows < SPARSE_POWER_MIN_N:
        return k_smallest_in_rows(hop_power_row_sparse(sparse, hops), k)
    return filtered_power_rows_sparse(sparse, hops, k)
