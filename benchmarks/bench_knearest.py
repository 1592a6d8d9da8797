"""E4 — Lemmas 5.1/5.2: k-nearest in O(i) rounds; bin-combination counting.

Three tables: (a) ledger rounds scale exactly linearly in the iteration
count i (the O(i) claim), with per-iteration cost constant; (b) the
Section 5.2 combinatorics — h * C(p, h) <= n for the paper's parameter
choices, so every h-combination can be assigned to a distinct node;
(c) the switch point between the dense and the row-sparse computation
of one Lemma 5.1 round, which ``SPARSE_POWER_MIN_N`` is set from.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks table (c) to two sizes.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.analysis import emit, format_table
from repro.cclique import RoundLedger
from repro.core import knearest_iterated, make_bin_plan, params
from repro.semiring import (
    filtered_power_rows_sparse,
    hop_power_row_sparse,
    k_smallest_in_rows,
    minplus_power,
    row_sparse_from_dense,
)
from repro.semiring.minplus import SPARSE_POWER_MIN_N

from conftest import workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SWITCH_SIZES = (64, 256) if SMOKE else (64, 128, 256, 512, 1024)


def test_rounds_linear_in_iterations(results_sink, benchmark):
    graph = workload("er", 96)
    matrix = graph.matrix()
    k, h = 9, 2
    rows = []
    per_iteration = None
    for i in (1, 2, 4, 8):
        ledger = RoundLedger(graph.n)
        result = knearest_iterated(matrix, k, h, i, ledger=ledger)
        truth = minplus_power(matrix, h**i)
        t_idx, _ = k_smallest_in_rows(truth, k)
        assert np.array_equal(result.indices, t_idx), f"i={i} output mismatch"
        if per_iteration is None:
            per_iteration = ledger.total_rounds
        assert ledger.total_rounds == per_iteration * i  # exactly O(i)
        rows.append((i, h**i, ledger.total_rounds))
    table = format_table(
        ["iterations i", "hop reach h^i", "ledger rounds"],
        rows,
        title="E4 / Lemma 5.2 — k-nearest rounds scale exactly as O(i) (n=96, k=9, h=2)",
    )
    emit(table, sink_path=results_sink)

    benchmark.pedantic(
        lambda: knearest_iterated(matrix, k, h, 3), rounds=1, iterations=1
    )


def test_bin_combination_counting(results_sink, benchmark):
    rows = []
    for n in (64, 256, 1024, 4096, 16384):
        for h in (2, 3, 4):
            k = max(1, int(n ** (1.0 / h)))
            plan = make_bin_plan(n, k, h)
            if not plan.feasible:
                rows.append((n, h, k, plan.p, "trivial", "-"))
                continue
            assert plan.combination_count <= n
            rows.append((n, h, k, plan.p, plan.combination_count, "<= n OK"))
    table = format_table(
        ["n", "h", "k=n^(1/h)", "bins p", "h-combinations", "claim"],
        rows,
        title="E4b / Section 5.2 — h * C(p, h) <= n (assignable to distinct nodes)",
    )
    emit(table, sink_path=results_sink)
    benchmark.pedantic(lambda: make_bin_plan(4096, 16, 3), rounds=1, iterations=1)


def _median_seconds(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def test_sparse_switch_point(results_sink, benchmark):
    """One Lemma 5.1 round, dense Bellman–Ford vs. row-sparse filtered
    products, at the Theorem 1.1 schedule's (k, h) on degree-24 ER graphs."""
    rows = []
    for n in SWITCH_SIZES:
        k = params.theorem11_k0(n)
        h, _ = params.choose_hop_schedule(n, k)
        sparse = row_sparse_from_dense(workload("er-dense", n).matrix(), k)
        dense_out = k_smallest_in_rows(hop_power_row_sparse(sparse, h), k)
        sparse_out = filtered_power_rows_sparse(sparse, h, k)
        assert np.array_equal(dense_out[0], sparse_out[0]), f"n={n} indices"
        assert np.array_equal(dense_out[1], sparse_out[1]), f"n={n} values"
        dense_s = _median_seconds(
            lambda: k_smallest_in_rows(hop_power_row_sparse(sparse, h), k)
        )
        sparse_s = _median_seconds(lambda: filtered_power_rows_sparse(sparse, h, k))
        path = "sparse" if n >= SPARSE_POWER_MIN_N else "dense"
        rows.append((n, k, h, f"{dense_s * 1e3:.2f}", f"{sparse_s * 1e3:.2f}",
                     f"{dense_s / sparse_s:.2f}x", path, "all rows equal"))
    table = format_table(
        ["n", "k", "h", "dense ms", "sparse ms", "sparse speedup", "chosen", "output"],
        rows,
        title=(
            "E4c / Lemma 5.1 round — dense vs row-sparse switch point "
            f"(SPARSE_POWER_MIN_N = {SPARSE_POWER_MIN_N})"
        ),
    )
    emit(table, sink_path=results_sink)
    n = SWITCH_SIZES[-1]
    k = params.theorem11_k0(n)
    h, _ = params.choose_hop_schedule(n, k)
    sparse = row_sparse_from_dense(workload("er-dense", n).matrix(), k)
    benchmark.pedantic(
        lambda: filtered_power_rows_sparse(sparse, h, k), rounds=1, iterations=1
    )
