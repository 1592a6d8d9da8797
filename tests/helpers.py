"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.graphs import (
    erdos_renyi,
    grid_graph,
    heavy_tail_weights,
    path_with_shortcuts,
)
from repro.semiring import (
    INF,
    RowSparse,
    hop_power_row_sparse,
    k_smallest_in_rows,
    row_sparse_from_dense,
)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def graph_family(seed: int):
    """A representative set of (name, graph) pairs for sweep tests."""
    rng = make_rng(seed)
    return [
        ("er-sparse", erdos_renyi(40, 0.08, rng)),
        ("er-dense", erdos_renyi(40, 0.3, rng)),
        ("grid", grid_graph(6, rng)),
        ("path", path_with_shortcuts(40, rng, shortcut_count=4)),
        ("heavy", erdos_renyi(40, 0.1, rng, weights=heavy_tail_weights())),
    ]


def brute_force_k_nearest(exact: np.ndarray, u: int, k: int):
    """The paper's N_k(u): k nodes with smallest d(u, .), ID tie-break."""
    order = np.argsort(exact[u], kind="stable")[:k]
    return order, exact[u, order]


def filter_rows(matrix: np.ndarray, k: int) -> np.ndarray:
    """The filtered matrix ``Ā``: keep the k smallest entries per row.

    All other entries are set to ``inf`` (Section 5.4).  The diagonal is
    *not* treated specially: with a zero diagonal it always survives the
    filter (0 is minimal and self-ID ties are irrelevant).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    indices, values = k_smallest_in_rows(matrix, k)
    out = np.full_like(matrix, INF)
    rows = np.repeat(np.arange(matrix.shape[0]), indices.shape[1])
    cols = indices.ravel()
    vals = values.ravel()
    keep = cols >= 0
    out[rows[keep], cols[keep]] = vals[keep]
    return out


def filtered_hop_power(matrix: np.ndarray, hops: int, k: int) -> np.ndarray:
    """``filter_k(A)`` raised to the ``h``-th hop power, dense output.

    This is the quantity ``Ā^h`` from Lemma 5.4/5.5.  By Lemma 5.5 its
    k-smallest row entries equal those of ``A^h`` when ``A`` has a zero
    diagonal.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    sparse = row_sparse_from_dense(matrix, k)
    return hop_power_row_sparse(sparse, hops)


def rows_agree_on_k_smallest(
    a: np.ndarray,
    b: np.ndarray,
    k: int,
) -> bool:
    """Whether two matrices have identical k-smallest row entries.

    Lemma 5.5: ``Ā^h`` and ``A^h`` agree on the filtered positions,
    including the ID tie-break.
    """
    ia, va = k_smallest_in_rows(a, k)
    ib, vb = k_smallest_in_rows(b, k)
    values_match = np.allclose(
        np.where(np.isfinite(va), va, -1.0),
        np.where(np.isfinite(vb), vb, -1.0),
    )
    return bool(values_match and np.array_equal(ia, ib))


def dense_knearest_iterated(matrix: np.ndarray, k: int, h: int, iterations: int):
    """Lemma 5.2 on dense ``(n, n)`` matrices: the reference for the row-sparse path.

    Every iteration filters a dense matrix, takes the dense filtered power
    and scatters the result back with a zero diagonal; no early exit.
    Returns ``(indices, values)``.
    """
    current = np.asarray(matrix, dtype=np.float64)
    n = current.shape[0]
    for _ in range(iterations):
        powered = hop_power_row_sparse(row_sparse_from_dense(current, k), h)
        indices, values = k_smallest_in_rows(powered, k)
        current = RowSparse(indices=indices, values=values, n_cols=n).to_dense()
        np.fill_diagonal(current, 0.0)
    return indices, values


def synthetic_approximation(
    exact: np.ndarray, a: float, rng: np.random.Generator
) -> np.ndarray:
    """A symmetric a-approximation with random per-pair stretch in [1, a]."""
    n = exact.shape[0]
    noise = rng.uniform(1.0, a, size=(n, n))
    noise = np.maximum(noise, noise.T)
    delta = exact * noise
    np.fill_diagonal(delta, 0.0)
    return delta
