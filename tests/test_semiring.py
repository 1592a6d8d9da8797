"""Tests for the min-plus algebra and the filtered-power machinery (Sec 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import erdos_renyi, exact_apsp
from repro.semiring import (
    INF,
    RowSparse,
    density,
    embed,
    hop_power_row_sparse,
    k_smallest_in_rows,
    minplus,
    minplus_power,
    row_sparse_from_dense,
    sparse_minplus,
)
from repro.cclique import RoundLedger

from tests.helpers import filter_rows, filtered_hop_power, rows_agree_on_k_smallest


def random_adjacency(rng, n=12, p=0.4):
    m = np.full((n, n), INF)
    np.fill_diagonal(m, 0.0)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                m[i, j] = float(rng.integers(1, 20))
    return m


class TestMinplus:
    def test_identity(self):
        n = 6
        ident = np.full((n, n), INF)
        np.fill_diagonal(ident, 0.0)
        a = np.arange(n * n, dtype=float).reshape(n, n)
        assert np.allclose(minplus(ident, a), a)
        assert np.allclose(minplus(a, ident), a)

    def test_associativity(self, rng):
        a = random_adjacency(rng)
        b = random_adjacency(rng)
        c = random_adjacency(rng)
        left = minplus(minplus(a, b), c)
        right = minplus(a, minplus(b, c))
        assert np.allclose(left, right)

    def test_power_matches_repeated_product(self, rng):
        a = random_adjacency(rng, n=8)
        p4 = minplus_power(a, 4)
        manual = minplus(minplus(minplus(a, a), a), a)
        assert np.allclose(p4, manual)

    def test_power_requires_zero_diagonal(self):
        a = np.ones((3, 3))
        with pytest.raises(ValueError):
            minplus_power(a, 2)

    def test_power_is_hop_limited_distance(self, rng):
        g = erdos_renyi(16, 0.3, rng)
        full = minplus_power(g.matrix(), 16)
        assert np.allclose(full, exact_apsp(g))

    def test_inner_dimension_check(self):
        with pytest.raises(ValueError):
            minplus(np.zeros((2, 3)), np.zeros((2, 3)))


class TestKSmallest:
    def test_values_and_ids(self):
        m = np.array([[0.0, 5.0, 2.0, 2.0], [1.0, 0.0, INF, 3.0]])
        idx, val = k_smallest_in_rows(m, 3)
        # Row 0: 0 (id 0), 2 (id 2 beats id 3 on tie), 2 (id 3).
        assert idx[0].tolist() == [0, 2, 3]
        assert val[0].tolist() == [0.0, 2.0, 2.0]

    def test_id_tie_break_exhaustive(self):
        m = np.array([[7.0, 7.0, 7.0, 7.0]])
        idx, _ = k_smallest_in_rows(m, 2)
        assert idx[0].tolist() == [0, 1]

    def test_inf_padding(self):
        m = np.array([[0.0, INF, INF]])
        idx, val = k_smallest_in_rows(m, 3)
        assert idx[0].tolist() == [0, -1, -1]
        assert val[0, 0] == 0.0
        assert np.all(np.isinf(val[0, 1:]))

    def test_k_larger_than_n(self):
        m = np.array([[0.0, 1.0]])
        idx, val = k_smallest_in_rows(m, 5)
        assert idx.shape == (1, 5)
        assert idx[0].tolist() == [0, 1, -1, -1, -1]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            k_smallest_in_rows(np.zeros((2, 2)), 0)

    def test_filter_rows_keeps_k_entries(self, rng):
        m = random_adjacency(rng, n=10)
        f = filter_rows(m, 3)
        assert np.all(np.isfinite(f).sum(axis=1) <= 3)
        # kept entries agree with the original
        mask = np.isfinite(f)
        assert np.allclose(f[mask], m[mask])


class TestRowSparse:
    def test_roundtrip(self, rng):
        m = random_adjacency(rng, n=10)
        sparse = row_sparse_from_dense(m, 4)
        dense = sparse.to_dense()
        assert np.allclose(dense, filter_rows(m, 4))

    def test_density(self, rng):
        m = random_adjacency(rng, n=10, p=1.0)
        sparse = row_sparse_from_dense(m, 4)
        assert sparse.density() == 4.0

    def test_hop_power_matches_dense_power(self, rng):
        """Ā^h via row-sparse Bellman-Ford == dense min-plus power of Ā."""
        m = random_adjacency(rng, n=10)
        k, h = 4, 3
        filtered = filter_rows(m, k)
        np.fill_diagonal(filtered, 0.0)
        dense_power = minplus_power(filtered, h)
        sparse_power = hop_power_row_sparse(row_sparse_from_dense(m, k), h)
        assert np.allclose(dense_power, sparse_power)

    def test_packed_sort_key_overflow_rejected(self):
        from repro.semiring.minplus import _k_smallest_triples

        rows, cols, vals = np.array([0]), np.array([2**20]), np.array([1.0])
        assert _k_smallest_triples(rows, cols, vals, 1, 1)[0][0, 0] == 2**20
        with pytest.raises(ValueError, match="overflow"):
            _k_smallest_triples(rows, cols, vals, 2**45, 1)

    def test_hop_power_requires_square(self):
        sparse = RowSparse(
            indices=np.array([[0]]), values=np.array([[1.0]]), n_cols=3
        )
        with pytest.raises(ValueError):
            hop_power_row_sparse(sparse, 2)


class TestLemma55:
    """Filtered powers agree with true powers on the k smallest entries."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_filtered_equals_unfiltered_on_k_smallest(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(20, 0.3, rng)
        m = g.matrix()
        k, h = 4, 3
        true_power = minplus_power(m, h)
        filtered_power = filtered_hop_power(m, h, k)
        assert rows_agree_on_k_smallest(true_power, filtered_power, k)

    def test_directed_case(self):
        rng = np.random.default_rng(9)
        m = random_adjacency(rng, n=15, p=0.3)
        k, h = 3, 2
        true_power = minplus_power(m, h)
        filtered_power = filtered_hop_power(m, h, k)
        assert rows_agree_on_k_smallest(true_power, filtered_power, k)


class TestSparsePricing:
    def test_density_measured(self):
        m = np.full((4, 4), INF)
        m[0, 0] = 1.0
        m[1, 2] = 2.0
        assert density(m) == 0.5

    def test_sparse_minplus_charges_ledger(self, rng):
        a = random_adjacency(rng, n=8)
        ledger = RoundLedger(8)
        result = sparse_minplus(a, a, ledger=ledger)
        assert result.rounds_charged >= 1
        assert ledger.total_rounds == result.rounds_charged
        assert np.allclose(result.product, minplus(a, a))

    def test_clique_n_normalization(self, rng):
        a = random_adjacency(rng, n=8)
        wide = sparse_minplus(a, a, clique_n=64)
        narrow = sparse_minplus(a, a, clique_n=8)
        assert wide.rho_s < narrow.rho_s

    def test_embed(self):
        small = np.array([[1.0, 2.0], [3.0, 4.0]])
        big = embed(small, 4)
        assert big.shape == (4, 4)
        assert np.allclose(big[:2, :2], small)
        assert np.all(np.isinf(big[2:, :]))

    def test_embed_too_large(self):
        with pytest.raises(ValueError):
            embed(np.zeros((5, 5)), 4)
