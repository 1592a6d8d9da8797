"""Fast computation of the k-nearest nodes (Section 5, Lemmas 5.1–5.3).

The paper computes, for every node ``u``, the ``h``-hop distances to its
``k`` nearest nodes ``N^h_k(u)`` in O(1) rounds whenever ``k in O(n^{1/h})``
(Lemma 5.1), then iterates ``i`` times to reach ``h^i``-hop distances in
O(i) rounds (Lemma 5.2).  Combined with a ``k``-nearest ``h^i``-hopset this
yields exact distances to ``N_k(u)`` (Lemma 3.3).

Executable content:

* the *output* of each round is the filtered power ``filter_k(Ā^h)``
  (Lemmas 5.4/5.5), computed by
  :func:`repro.semiring.minplus.filtered_power_rows` as ``h - 1``
  filtered products on ``(n, k)`` rows (dense Bellman–Ford only for
  small ``n``) — exactly the local computation of the node assigned an
  h-combination, applied globally;
* the *communication structure* — bins, h-combinations, and their counting
  claims (``h * C(p, h) <= n``, bin assignments, the set ``S`` of queried
  nodes) — is implemented in :class:`BinPlan` and validated in tests;
* the *round cost* is charged per Lemma 5.3: two Lemma 2.2 routings per
  iteration, after validating ``k in O(n^{1/h})``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..cclique.accounting import RoundLedger
from ..cclique.errors import LoadPreconditionError
from ..semiring.minplus import (
    RowSparse,
    filter_with_zero_diagonal,
    filtered_power_rows,
    row_sparse_from_dense,
)
from . import params


@dataclass
class BinPlan:
    """The bin / h-combination bookkeeping of Section 5.2.

    The global edge list ``M`` (all nodes' k-edge lists concatenated in ID
    order) is split into ``p = floor(n^{1/h} * h / 4)`` contiguous bins; each
    way of choosing ``h`` distinct bins with a distinguished first bin is an
    *h-combination*, assigned to a distinct node.  The plan records the
    arithmetic and exposes the counting facts the correctness proof uses.
    """

    n: int
    k: int
    h: int
    p: int
    bin_size: int
    combination_count: int
    trivial: bool

    @property
    def feasible(self) -> bool:
        """Both standing assumptions of Section 5.2 hold."""
        return not self.trivial

    def assignments(self, limit: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Enumerate h-combinations as tuples ``(first, *rest)``.

        ``rest`` is an unordered set (sorted here); the first bin is
        distinguished.  ``limit`` truncates the enumeration *lazily* —
        only the requested prefix is ever materialised (tests only need
        prefixes for large instances, where the full ``h * C(p, h)`` list
        is huge).  Full enumerations are memoised per ``(p, h)``, shared
        across the equal-parameter plans each pipeline level rebuilds.
        """
        if limit is not None:
            return list(islice(_iter_assignments(self.p, self.h), max(0, limit)))
        return list(_full_assignments(self.p, self.h))

    def bin_of_global_index(self, index: int) -> int:
        """Bin containing position ``index`` of the global list ``M``."""
        if not 0 <= index < self.n * self.k:
            raise ValueError("global index out of range")
        return min(self.p - 1, index // self.bin_size)

    def bins_touching_node(self, u: int) -> List[int]:
        """Bins containing entries of node ``u``'s local list ``M(u)``.

        Since a bin is much larger than a local list, at most two bins
        intersect ``M(u)`` (used in Lemma 5.3's bound ``|S| <= 2n/p``).
        """
        first = self.bin_of_global_index(u * self.k)
        last = self.bin_of_global_index((u + 1) * self.k - 1)
        return list(range(first, last + 1))


def _iter_assignments(p: int, h: int) -> Iterator[Tuple[int, ...]]:
    """Lazily yield the Section 5.2 h-combinations ``(first, *rest)``.

    ``others`` is ascending, so ``combinations`` emits each ``rest``
    already sorted — the historical per-tuple ``sorted`` call was a no-op.
    """
    for first in range(p):
        others = [b for b in range(p) if b != first]
        yield from ((first, *rest) for rest in combinations(others, h - 1))


@lru_cache(maxsize=32)
def _full_assignments(p: int, h: int) -> Tuple[Tuple[int, ...], ...]:
    """The complete enumeration, memoised per ``(p, h)``."""
    return tuple(_iter_assignments(p, h))


def make_bin_plan(n: int, k: int, h: int) -> BinPlan:
    """Compute the Section 5.2 parameters, flagging the trivial regimes.

    The trivial regimes (``p < h`` or bin size <= k) imply ``k in O(1)`` and
    the problem is solved by direct broadcast (the paper's "Assumptions"
    paragraph); callers fall back accordingly.
    """
    if n < 1 or k < 1 or h < 1:
        raise ValueError("need n, k, h >= 1")
    p = int(math.floor(n ** (1.0 / h) * h / 4.0))
    if p < h or p <= 0:
        return BinPlan(n, k, h, max(p, 0), 0, 0, trivial=True)
    bin_size = -(-n * k // p)  # ceil
    if bin_size <= k:
        return BinPlan(n, k, h, p, bin_size, 0, trivial=True)
    count = h * math.comb(p, h)
    return BinPlan(n, k, h, p, bin_size, count, trivial=False)


@dataclass
class KNearestResult:
    """Distances to the k nearest nodes (per the relevant hop bound)."""

    indices: np.ndarray  # (n, k) node ids, -1 padding
    values: np.ndarray  # (n, k) distances, inf padding
    k: int
    h: int
    iterations: int

    def to_row_sparse(self, n_cols: int) -> RowSparse:
        return RowSparse(indices=self.indices, values=self.values, n_cols=n_cols)

    def dense(self, n: int) -> np.ndarray:
        """Dense (n, n) matrix with inf outside the known entries."""
        return self.to_row_sparse(n).to_dense()

    def known_mask(self, n: int) -> np.ndarray:
        """Boolean (n, n) mask of pairs (u, v) with v in the k-nearest set."""
        mask = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), self.indices.shape[1])
        cols = self.indices.ravel()
        keep = cols >= 0
        mask[rows[keep], cols[keep]] = True
        return mask


def _charge_one_iteration(ledger: RoundLedger, n: int, k: int, h: int, plan: BinPlan) -> None:
    """Charge the O(1) rounds of one Lemma 5.1 execution.

    Step 3 (learning bins): each node receives h bins of O(n/h) edges =
    O(n) words.  Step 4 (queries): |S| * k <= 2 (n/p) k in O(n) words.
    Both are Lemma 2.2 routings; the loads are validated explicitly.
    """
    if plan.trivial:
        # k in O(1): all nodes broadcast their k edges directly.
        ledger.charge_broadcast(3 * n * k, detail="k-nearest trivial broadcast")
        return
    bin_messages = plan.bin_size * h
    ledger.charge_redundancy_routing(
        max_received_per_node=bin_messages,
        detail=f"bin contents (h={h} bins of {plan.bin_size} edges)",
    )
    s_size = max(1, 2 * n // plan.p + 1)
    ledger.charge_redundancy_routing(
        max_received_per_node=s_size * k,
        detail=f"k-nearest query responses (|S|<={s_size}, k={k})",
    )


def knearest_one_round(
    matrix: np.ndarray,
    k: int,
    h: int,
    ledger: Optional[RoundLedger] = None,
    validate: bool = True,
) -> KNearestResult:
    """Lemma 5.1: h-hop distances to ``N^h_k(u)`` for every ``u``, O(1) rounds.

    ``matrix`` is a min-plus adjacency matrix with zero diagonal (weights of
    ``G`` or of ``G ∪ H``).  The result rows are the k smallest entries of
    ``A^h`` per row, obtained via the filtered power ``Ā^h`` (Lemma 5.5
    guarantees they coincide; tests verify it).  This is
    :func:`knearest_iterated` with a single iteration.
    """
    return knearest_iterated(matrix, k, h, 1, ledger=ledger, validate=validate)


def knearest_iterated(
    matrix: np.ndarray,
    k: int,
    h: int,
    iterations: int,
    ledger: Optional[RoundLedger] = None,
    validate: bool = True,
) -> KNearestResult:
    """Lemma 5.2: ``h^i``-hop distances to ``N^{h^i}_k(u)`` in O(i) rounds.

    Iterates Lemma 5.1: the filtered output of round ``j`` (k entries per
    row, diagonal reset to zero) is the input of round ``j + 1``, passed
    on as ``(n, k)`` rows.  Once an iteration's input equals the previous
    one, every later iteration repeats it, so computation stops there;
    the rounds of every iteration are still charged.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if validate and not params.knearest_feasible(n, k, h):
        raise LoadPreconditionError(
            f"k = {k} exceeds O(n^(1/h)) = "
            f"{params.KNEAREST_LOAD_CONSTANT} * {n ** (1.0 / h):.2f} "
            f"for h = {h} (Lemma 5.1 precondition)"
        )
    plan = make_bin_plan(n, k, h)
    rows = row_sparse_from_dense(matrix, k)
    indices, values = rows.indices, rows.values
    converged = False
    for _ in range(iterations):
        if ledger is not None:
            _charge_one_iteration(ledger, n, k, h, plan)
        if converged:
            continue
        indices, values = filtered_power_rows(rows, h, k)
        next_idx, next_val = filter_with_zero_diagonal(
            RowSparse(indices=indices, values=values, n_cols=n), k
        )
        converged = np.array_equal(next_idx, rows.indices) and np.array_equal(
            next_val, rows.values
        )
        rows = RowSparse(indices=next_idx, values=next_val, n_cols=n)
    return KNearestResult(
        indices=indices, values=values, k=k, h=h, iterations=iterations
    )


def knearest_exact_via_hopset(
    augmented_matrix: np.ndarray,
    k: int,
    h: int,
    beta: int,
    ledger: Optional[RoundLedger] = None,
    validate: bool = True,
) -> KNearestResult:
    """Lemma 3.3: exact distances to ``N_k(u)`` given a k-nearest beta-hopset.

    ``augmented_matrix`` is the adjacency of ``G ∪ H``.  The iteration count
    is the smallest ``i`` with ``h^i >= beta``; the hopset guarantees an
    exact-length path of at most ``beta`` hops to every k-nearest node, so
    the ``h^i``-hop distances are the true distances on those pairs.
    """
    i = params.knearest_iterations(beta, h)
    return knearest_iterated(
        augmented_matrix, k, h, i, ledger=ledger, validate=validate
    )
