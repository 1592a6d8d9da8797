"""Property-based tests (hypothesis) for the core invariants.

Strategy: generate small random weighted graphs and check the paper's
contracts hold for *every* instance, not just the seeded ensembles:

* estimates never underestimate and respect their advertised factor;
* the k-nearest machinery agrees with brute force;
* filtered matrix powers preserve the k smallest row entries (Lemma 5.5);
* hopsets preserve distances and certify their hop bound;
* min-plus algebra laws; tie-breaking determinism.
"""

from __future__ import annotations

import importlib
import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    build_knearest_hopset,
    knearest_one_round,
    lift_zero_weights,
    reduce_approximation,
)
from repro.core.results import Estimate
from repro.graphs import WeightedGraph, check_estimate, exact_apsp
from repro.semiring import (
    filtered_power_rows_sparse,
    hop_power_row_sparse,
    k_smallest_in_rows,
    minplus,
    minplus_power,
    row_sparse_from_dense,
)

from tests.helpers import filter_rows, filtered_hop_power, rows_agree_on_k_smallest

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=16, max_weight=20):
    """Small connected weighted graphs (random tree + extra edges)."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        weight = draw(st.integers(1, max_weight))
        edges.append((v, parent, weight))
    extra = draw(st.integers(0, 2 * n))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((u, v, draw(st.integers(1, max_weight))))
    return WeightedGraph(n, edges)


@st.composite
def adjacency_matrices(draw, min_n=3, max_n=10):
    """Min-plus adjacency matrices with zero diagonal."""
    n = draw(st.integers(min_n, max_n))
    matrix = np.full((n, n), np.inf)
    np.fill_diagonal(matrix, 0.0)
    count = draw(st.integers(0, n * (n - 1)))
    for _ in range(count):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            matrix[i, j] = float(draw(st.integers(1, 15)))
    return matrix


class TestMinplusLaws:
    @SETTINGS
    @given(adjacency_matrices())
    def test_power_monotone_in_exponent(self, matrix):
        p2 = minplus_power(matrix, 2)
        p3 = minplus_power(matrix, 3)
        assert np.all(p3 <= p2 + 1e-9)

    @SETTINGS
    @given(adjacency_matrices())
    def test_product_dominates_longer_paths(self, matrix):
        """A^2 <= A pointwise (zero diagonal makes powers decreasing)."""
        squared = minplus(matrix, matrix)
        assert np.all(squared <= matrix + 1e-9)

    @SETTINGS
    @given(adjacency_matrices(), st.integers(1, 4))
    def test_filter_is_idempotent(self, matrix, k):
        once = filter_rows(matrix, k)
        twice = filter_rows(once, k)
        assert np.array_equal(
            np.where(np.isfinite(once), once, -1),
            np.where(np.isfinite(twice), twice, -1),
        )

    @SETTINGS
    @given(adjacency_matrices(), st.integers(1, 5))
    def test_k_smallest_sorted_and_tiebroken(self, matrix, k):
        idx, val = k_smallest_in_rows(matrix, k)
        finite = np.isfinite(val)
        # values ascending within each row
        for row_vals, row_fin in zip(val, finite):
            kept = row_vals[row_fin]
            assert np.all(np.diff(kept) >= -1e-9)
        # equal values appear in increasing ID order
        for r in range(matrix.shape[0]):
            for a in range(k - 1):
                if finite[r, a] and finite[r, a + 1]:
                    if val[r, a] == val[r, a + 1]:
                        assert idx[r, a] < idx[r, a + 1]


class TestLemma55Property:
    @SETTINGS
    @given(adjacency_matrices(), st.integers(1, 4), st.integers(1, 3))
    def test_filtered_power_agrees(self, matrix, k, h):
        truth = minplus_power(matrix, h)
        filtered = filtered_hop_power(matrix, h, k)
        assert rows_agree_on_k_smallest(truth, filtered, k)


#: Edge weight families for the row-sparse differential test.  Floats sit
#: on a binary grid (multiples of 1/8) so every path sum is exact: the
#: filtered and dense paths agree bit for bit only while additions do not
#: round (with rounding, two different sums can collapse onto one value
#: and reorder an ID tie).
WEIGHT_FAMILIES = {
    "int": st.integers(1, 1000).map(float),
    "float": st.integers(1, 8000).map(lambda x: x / 8.0),
    "zero": st.sampled_from([0.0, 0.0, 1.0, 2.0]),
}


@st.composite
def filtered_power_instances(draw):
    """``(RowSparse, h, k)`` over directed/undirected, sparse or empty graphs."""
    n = draw(st.integers(1, 12))
    family = draw(st.sampled_from(["int", "float", "zero", "equal"]))
    weight = (
        st.just(draw(WEIGHT_FAMILIES["int"]))
        if family == "equal"
        else WEIGHT_FAMILIES[family]
    )
    directed = draw(st.booleans())
    matrix = np.full((n, n), np.inf)
    node = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        if u == v:
            continue
        w = draw(weight)
        matrix[u, v] = min(matrix[u, v], w)
        if not directed:
            matrix[v, u] = matrix[u, v]
    np.fill_diagonal(matrix, 0.0)
    k = draw(st.integers(1, n + 2))
    h = draw(st.integers(2, 4))
    return row_sparse_from_dense(matrix, k), h, k


class TestRowSparseFilteredPower:
    """``filtered_power_rows_sparse`` against the dense Bellman–Ford."""

    @settings(max_examples=300, deadline=None)
    @given(filtered_power_instances(), st.sampled_from([None, 1]))
    def test_bit_identical_to_dense_reference(self, instance, budget):
        """``budget=1`` shrinks the candidate blocks to one row each."""
        sparse, h, k = instance
        want_idx, want_val = k_smallest_in_rows(hop_power_row_sparse(sparse, h), k)
        module = importlib.import_module("repro.semiring.minplus")
        default = module.DEFAULT_MEMORY_BUDGET
        with mock.patch.object(module, "DEFAULT_MEMORY_BUDGET", budget or default):
            got_idx, got_val = filtered_power_rows_sparse(sparse, h, k)
        assert np.array_equal(got_idx, want_idx)
        assert np.array_equal(got_val, want_val)


class TestKNearestProperty:
    @SETTINGS
    @given(connected_graphs(), st.integers(1, 4))
    def test_one_round_matches_brute_force(self, graph, k):
        h = 2
        result = knearest_one_round(graph.matrix(), k, h, validate=False)
        truth = minplus_power(graph.matrix(), h)
        t_idx, t_val = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx)


class TestHopsetProperty:
    @SETTINGS
    @given(connected_graphs(min_nodes=5, max_nodes=14), st.integers(1, 3))
    def test_distances_preserved_and_hop_bound(self, graph, a_int):
        a = float(a_int)
        exact = exact_apsp(graph)
        delta = exact * a
        np.fill_diagonal(delta, 0.0)
        hopset = build_knearest_hopset(graph, delta, a)
        augmented = hopset.augmented(graph)
        aug_exact = exact_apsp(augmented)
        assert np.allclose(aug_exact, exact)
        # beta-hop exactness on the k nearest
        beta_hop = minplus_power(augmented.matrix(), hopset.beta_bound)
        for u in range(graph.n):
            order = np.argsort(exact[u], kind="stable")[: hopset.k]
            assert np.allclose(beta_hop[u, order], exact[u, order])


class TestReductionProperty:
    @SETTINGS
    @given(connected_graphs(min_nodes=8, max_nodes=14), st.integers(2, 8))
    def test_estimate_contract(self, graph, a_int):
        rng = np.random.default_rng(0)
        a = float(a_int)
        exact = exact_apsp(graph)
        delta = exact * a
        np.fill_diagonal(delta, 0.0)
        result = reduce_approximation(graph, delta, a, rng)
        report = check_estimate(exact, result.estimate)
        assert report.sound
        assert report.max_stretch <= result.factor + 1e-9
        assert result.factor <= 15.0 * math.sqrt(a) + 1e-9


class TestZeroWeightProperty:
    @st.composite
    @staticmethod
    def graphs_with_zeros(draw):
        n = draw(st.integers(4, 12))
        edges = []
        for v in range(1, n):
            parent = draw(st.integers(0, v - 1))
            weight = draw(st.integers(0, 10))
            edges.append((v, parent, weight))
        return WeightedGraph(n, edges, require_positive=False)

    @SETTINGS
    @given(graphs_with_zeros())
    def test_lift_exactness(self, graph):
        def solver(g):
            return Estimate(estimate=exact_apsp(g), factor=1.0)

        result = lift_zero_weights(graph, solver)
        assert np.allclose(result.estimate, exact_apsp(graph))
