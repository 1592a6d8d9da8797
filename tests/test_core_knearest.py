"""Tests for the k-nearest machinery (Section 5, Lemmas 5.1–5.3)."""

from __future__ import annotations


import numpy as np
import pytest

from repro.cclique import LoadPreconditionError, RoundLedger
from repro.core import (
    build_knearest_hopset,
    knearest_exact_via_hopset,
    knearest_iterated,
    knearest_one_round,
    make_bin_plan,
)
from repro.core import knearest as knearest_module
from repro.graphs import (
    WeightedGraph,
    erdos_renyi,
    exact_apsp,
    heavy_tail_weights,
    unit_weights,
)
from repro.semiring import k_smallest_in_rows, minplus_power
from repro.semiring.minplus import SPARSE_POWER_MIN_N

from tests.helpers import brute_force_k_nearest, dense_knearest_iterated, make_rng

SEEDS = [0, 1, 2]


class TestBinPlan:
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_combination_count_at_most_n(self, n, h):
        """The paper's counting claim: h * C(p, h) <= n."""
        k = max(1, int(n ** (1.0 / h)))
        plan = make_bin_plan(n, k, h)
        if plan.feasible:
            assert plan.combination_count <= n

    def test_assignments_enumeration(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.feasible
        combos = plan.assignments()
        assert len(combos) == plan.combination_count
        # first bin distinguished; the rest sorted and distinct
        for combo in combos:
            assert len(set(combo)) == len(combo)

    def test_assignment_limit(self):
        plan = make_bin_plan(256, 16, 2)
        assert len(plan.assignments(limit=5)) == 5

    def test_assignment_limit_is_a_prefix(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.assignments(limit=7) == plan.assignments()[:7]

    def test_assignments_memoised_per_p_h(self):
        """Equal (p, h) plans share one enumeration (the full list is
        recomputed at most once across the pipeline's rebuilds)."""
        from repro.core.knearest import _full_assignments

        _full_assignments.cache_clear()
        plan = make_bin_plan(256, 16, 2)
        first = plan.assignments()
        again = make_bin_plan(256, 16, 2).assignments()
        assert first == again
        info = _full_assignments.cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_large_plan_limit_does_not_materialise_everything(self):
        """A huge enumeration served with a small limit stays lazy: the
        full-list memo must not be populated for that (p, h)."""
        from repro.core.knearest import _full_assignments

        _full_assignments.cache_clear()
        plan = make_bin_plan(1 << 24, 64, 2)
        assert plan.combination_count > 10**6
        prefix = plan.assignments(limit=3)
        assert len(prefix) == 3
        assert _full_assignments.cache_info().currsize == 0

    def test_bins_touching_node_at_most_two(self):
        plan = make_bin_plan(256, 16, 2)
        for u in (0, 100, 255):
            assert 1 <= len(plan.bins_touching_node(u)) <= 2

    def test_bin_of_global_index(self):
        plan = make_bin_plan(256, 16, 2)
        assert plan.bin_of_global_index(0) == 0
        assert plan.bin_of_global_index(256 * 16 - 1) == plan.p - 1
        with pytest.raises(ValueError):
            plan.bin_of_global_index(256 * 16)

    def test_trivial_regime_small_p(self):
        # h so large that p < h: the problem is trivial (k in O(1)).
        plan = make_bin_plan(16, 1, 8)
        assert plan.trivial

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_bin_plan(0, 1, 1)


class TestLemma51:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_true_h_hop_k_nearest(self, seed):
        """Output rows equal the k smallest entries of A^h (Lemma 5.1)."""
        rng = make_rng(seed)
        graph = erdos_renyi(36, 0.15, rng)
        matrix = graph.matrix()
        k, h = 6, 2
        result = knearest_one_round(matrix, k, h)
        truth = minplus_power(matrix, h)
        t_idx, t_val = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx)
        assert np.allclose(
            np.where(np.isfinite(result.values), result.values, -1),
            np.where(np.isfinite(t_val), t_val, -1),
        )

    def test_load_precondition_enforced(self, rng):
        graph = erdos_renyi(36, 0.3, rng)
        with pytest.raises(LoadPreconditionError):
            knearest_one_round(graph.matrix(), k=30, h=2)

    def test_validate_can_be_disabled(self, rng):
        graph = erdos_renyi(36, 0.3, rng)
        result = knearest_one_round(graph.matrix(), k=30, h=2, validate=False)
        assert result.k == 30

    def test_constant_rounds_charged(self, rng):
        graph = erdos_renyi(36, 0.2, rng)
        ledger = RoundLedger(36)
        knearest_one_round(graph.matrix(), 6, 2, ledger=ledger)
        assert 0 < ledger.total_rounds <= 10


class TestLemma52:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iterated_matches_h_pow_i(self, seed):
        """After i iterations, rows equal the k smallest of A^(h^i)."""
        rng = make_rng(seed)
        graph = erdos_renyi(30, 0.15, rng)
        matrix = graph.matrix()
        k, h, i = 5, 2, 3
        result = knearest_iterated(matrix, k, h, i)
        truth = minplus_power(matrix, h**i)
        t_idx, t_val = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx)

    def test_rounds_linear_in_iterations(self, rng):
        graph = erdos_renyi(36, 0.2, rng)
        one = RoundLedger(36)
        three = RoundLedger(36)
        knearest_iterated(graph.matrix(), 6, 2, 1, ledger=one)
        knearest_iterated(graph.matrix(), 6, 2, 3, ledger=three)
        assert three.total_rounds == 3 * one.total_rounds

    def test_invalid_iterations(self, rng):
        graph = erdos_renyi(16, 0.3, rng)
        with pytest.raises(ValueError):
            knearest_iterated(graph.matrix(), 4, 2, 0)


class TestLemma33:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exact_k_nearest_via_hopset(self, seed):
        """Hopset + iterated filtering gives *exact* N_k distances."""
        rng = make_rng(seed)
        n = 36
        graph = erdos_renyi(n, 0.12, rng)
        exact = exact_apsp(graph)
        a = 3.0
        delta = exact * a
        np.fill_diagonal(delta, 0.0)
        hopset = build_knearest_hopset(graph, delta, a)
        augmented = hopset.augmented(graph)
        k = 6
        result = knearest_exact_via_hopset(
            augmented.matrix(), k, 2, hopset.beta_bound
        )
        for u in range(n):
            ids, dists = brute_force_k_nearest(exact, u, k)
            assert np.allclose(np.sort(result.values[u]), np.sort(dists))
            assert set(result.indices[u].tolist()) == set(ids.tolist())

    def test_dense_and_mask_helpers(self, rng):
        graph = erdos_renyi(25, 0.2, rng)
        result = knearest_one_round(graph.matrix(), 5, 2)
        dense = result.dense(25)
        mask = result.known_mask(25)
        assert dense.shape == (25, 25)
        assert mask.sum() == np.isfinite(result.values).sum()
        assert np.all(np.isfinite(dense[mask]))


def _path_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(u, u + 1, 1.0) for u in range(n - 1)])


def _assert_same_rows(result, reference):
    indices, values = reference
    assert np.array_equal(result.indices, indices)
    assert np.array_equal(result.values, values)


class TestRowSparsePath:
    """The (n, k) row computation returns exactly the dense path's arrays."""

    @pytest.mark.parametrize("n", [48, SPARSE_POWER_MIN_N + 44])
    @pytest.mark.parametrize(
        "weights",
        [None, heavy_tail_weights(), unit_weights()],
        ids=["int", "heavy", "unit"],
    )
    def test_iterated_bit_identical_to_dense(self, n, weights):
        graph = erdos_renyi(n, 8.0 / n, make_rng(n), weights=weights)
        matrix = graph.matrix()
        for k, h, i in ((9, 2, 3), (6, 3, 2), (1, 2, 2)):
            result = knearest_iterated(matrix, k, h, i, validate=False)
            _assert_same_rows(result, dense_knearest_iterated(matrix, k, h, i))

    def test_one_round_bit_identical_to_dense(self):
        n = SPARSE_POWER_MIN_N + 20
        matrix = erdos_renyi(n, 0.03, make_rng(5)).matrix()
        result = knearest_one_round(matrix, 12, 2)
        _assert_same_rows(result, dense_knearest_iterated(matrix, 12, 2, 1))

    def test_exact_via_hopset_bit_identical_to_dense(self):
        n = SPARSE_POWER_MIN_N
        graph = erdos_renyi(n, 0.02, make_rng(6))
        delta = exact_apsp(graph) * 2.0
        hopset = build_knearest_hopset(graph, delta, 2.0)
        matrix = hopset.augmented(graph).matrix()
        k, h = 8, 2
        result = knearest_exact_via_hopset(matrix, k, h, hopset.beta_bound)
        i = result.iterations
        _assert_same_rows(result, dense_knearest_iterated(matrix, k, h, i))

    def test_fixed_point_stops_computing_but_charges_every_iteration(
        self, monkeypatch
    ):
        """A converged run skips the work of later iterations, yet its
        ledger equals that of a run that changes in every iteration."""
        calls = []
        real = knearest_module.filtered_power_rows

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(knearest_module, "filtered_power_rows", counting)
        n, k, h, i = 64, 16, 2, 3
        # A path's k-nearest sets grow with every iteration's hop reach
        # (2, 4, 8 hops); isolated nodes are settled after the first.
        growing = _path_graph(n).matrix()
        settled = WeightedGraph(n, []).matrix()
        ledgers = []
        for matrix in (growing, settled):
            calls.clear()
            ledger = RoundLedger(n)
            result = knearest_iterated(matrix, k, h, i, ledger=ledger, validate=False)
            _assert_same_rows(result, dense_knearest_iterated(matrix, k, h, i))
            ledgers.append((ledger, len(calls)))
        (grow_ledger, grow_calls), (settled_ledger, settled_calls) = ledgers
        assert grow_calls == i and settled_calls == 1
        assert settled_ledger.total_rounds == grow_ledger.total_rounds
        assert [(e.rounds, e.detail) for e in settled_ledger.entries] == [
            (e.rounds, e.detail) for e in grow_ledger.entries
        ]
