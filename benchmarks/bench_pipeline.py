"""E18 — end-to-end pipeline profiler + construction-layer speedups.

Two claims are regenerated here:

* **phase breakdown** — the Theorem 1.1 / Theorem 1.2 / Theorem 7.1
  pipelines now report *wall-clock per phase* through the
  :class:`~repro.cclique.accounting.RoundLedger` phase contexts; this
  module records them at several sizes and emits ``BENCH_pipeline.json``
  so CI and dashboards can track where pipeline time goes;
* **construction speedup** — the array-native construction layer
  (CSR-view Baswana–Sen spanner, batched-dijkstra hopset) beats the
  pre-PR per-vertex dict implementations (frozen below as references) by
  >= 3x / >= 2x at n = 512, the acceptance bar of the layer.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` restricts the sweep to the smallest
size and skips the speedup ratio assertions (CI asserts the JSON schema
and the hopset equivalence, which need no quiet machine).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.cclique import RoundLedger
from repro.core import build_knearest_hopset, run_variant
from repro.core.hopsets import _local_dijkstra
from repro.graphs import WeightedGraph, exact_apsp
from repro.semiring.minplus import k_smallest_in_rows
from repro.spanners import baswana_sengupta_spanner, spanner_edge_bound

from conftest import bench_json_path, rng_for, workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (96,) if SMOKE else (128, 256, 512)
SPEEDUP_N = 512
#: (variant, params) triples profiled per size — the three headline
#: pipelines of the registry.
PIPELINES = (
    ("theorem11", {}),
    ("tradeoff", {"t": 2}),
    ("small-diameter", {}),
)
JSON_PATH = bench_json_path("pipeline")


# --------------------------------------------------------------------- #
# Frozen pre-PR reference implementations (per-vertex, dict-based).
# Kept verbatim so the speedup claim is measured against the real thing.
# --------------------------------------------------------------------- #


def _reference_lightest_edges_per_cluster(edges, cluster_of, vertex):
    best: Dict[int, Tuple[float, int]] = {}
    for neighbour, weight in edges[vertex].items():
        cluster = int(cluster_of[neighbour])
        if cluster < 0:
            continue
        key = (weight, neighbour)
        if cluster not in best or key < best[cluster]:
            best[cluster] = key
    return best


def reference_spanner(
    graph: WeightedGraph, k: int, rng: np.random.Generator
) -> WeightedGraph:
    """The pre-PR sequential Baswana–Sen construction (dict residual)."""
    n = graph.n
    sample_probability = n ** (-1.0 / k)
    edges: Dict[int, Dict[int, float]] = {v: {} for v in range(n)}
    for u, v, w in graph.edges():
        edges[u][v] = min(w, edges[u].get(v, np.inf))
        edges[v][u] = min(w, edges[v].get(u, np.inf))
    spanner: Set[Tuple[int, int, float]] = set()

    def add_edge(u, v, w):
        spanner.add((min(u, v), max(u, v), w))

    def drop_edges_to_cluster(vertex, cluster, cluster_of):
        for neighbour in [
            x for x in edges[vertex] if int(cluster_of[x]) == cluster
        ]:
            del edges[vertex][neighbour]
            del edges[neighbour][vertex]

    cluster_of = np.arange(n, dtype=np.int64)
    for _ in range(k - 1):
        centers = set(int(c) for c in np.unique(cluster_of[cluster_of >= 0]))
        sampled = {c for c in centers if rng.random() < sample_probability}
        new_cluster = np.full(n, -1, dtype=np.int64)
        for vertex in range(n):
            c = int(cluster_of[vertex])
            if c >= 0 and c in sampled:
                new_cluster[vertex] = c
        for vertex in range(n):
            old = int(cluster_of[vertex])
            if old < 0 or old in sampled:
                continue
            best = _reference_lightest_edges_per_cluster(edges, cluster_of, vertex)
            sampled_adjacent = {c: key for c, key in best.items() if c in sampled}
            if not sampled_adjacent:
                for cluster, (weight, neighbour) in best.items():
                    add_edge(vertex, neighbour, weight)
                    drop_edges_to_cluster(vertex, cluster, cluster_of)
            else:
                target_cluster, (target_w, target_nbr) = min(
                    sampled_adjacent.items(), key=lambda item: item[1]
                )
                add_edge(vertex, target_nbr, target_w)
                new_cluster[vertex] = target_cluster
                drop_edges_to_cluster(vertex, target_cluster, cluster_of)
                for cluster, (weight, neighbour) in best.items():
                    if cluster == target_cluster:
                        continue
                    if (weight, neighbour) < (target_w, target_nbr):
                        add_edge(vertex, neighbour, weight)
                        drop_edges_to_cluster(vertex, cluster, cluster_of)
        cluster_of = new_cluster
        for vertex in range(n):
            own = int(cluster_of[vertex])
            if own < 0:
                continue
            same = [
                x for x in edges[vertex] if int(cluster_of[x]) == own and x > vertex
            ]
            for neighbour in same:
                del edges[vertex][neighbour]
                del edges[neighbour][vertex]
    for vertex in range(n):
        best = _reference_lightest_edges_per_cluster(edges, cluster_of, vertex)
        for cluster, (weight, neighbour) in best.items():
            add_edge(vertex, neighbour, weight)
    return WeightedGraph(
        n,
        [(u, v, w) for (u, v, w) in sorted(spanner)],
        require_positive=False,
        require_integer=False,
    )


def reference_hopset(
    graph: WeightedGraph, delta: np.ndarray, k: int
) -> WeightedGraph:
    """The pre-PR hopset construction: per-vertex dict assembly, heapq
    Dijkstra per node, and the triple-list graph constructor — the full
    cost the Lemma 3.2 step used to pay."""
    n = graph.n
    nearest_indices, _ = k_smallest_in_rows(delta, k)
    short_edges = [graph.k_shortest_out_edges(u, k) for u in range(n)]
    full_adjacency = graph.adjacency()
    hopset_edges: List[Tuple[int, int, float]] = []
    for v in range(n):
        local: Dict[int, List[Tuple[int, float]]] = {}
        for u in nearest_indices[v]:
            if u < 0:
                continue
            local.setdefault(int(u), []).extend(short_edges[int(u)])
        local.setdefault(v, [])
        local[v] = list(full_adjacency[v]) + local[v]
        dist = _local_dijkstra(local, v)
        for u, d_vu in dist.items():
            if u != v and math.isfinite(d_vu):
                hopset_edges.append((v, int(u), float(d_vu)))
    return WeightedGraph(
        n,
        hopset_edges,
        directed=graph.directed,
        require_positive=False,
        require_integer=False,
    )


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #


def best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def profile_pipelines() -> List[Dict]:
    records: List[Dict] = []
    for n in SIZES:
        graph = workload("er-dense", n)
        for variant, params in PIPELINES:
            ledger = RoundLedger(graph.n)
            rng = rng_for(f"pipeline:{variant}:{n}")
            start = time.perf_counter()
            run_variant(variant, graph, rng, ledger=ledger, **params)
            wall = time.perf_counter() - start
            records.append(
                {
                    "variant": variant,
                    "n": n,
                    "wall_s": wall,
                    "timed_s": ledger.timed_seconds,
                    "rounds": ledger.total_rounds,
                    "seconds_by_phase": ledger.seconds_by_phase(),
                    "rounds_by_phase": ledger.rounds_by_phase(),
                }
            )
    return records


def measure_construction() -> List[Dict]:
    """New-vs-reference timings for the vectorized construction phases."""
    n = SIZES[0] if SMOKE else SPEEDUP_N
    graph = workload("er-dense", n)
    records: List[Dict] = []

    spanner_rng = rng_for(f"pipeline:spanner:{n}")
    state = spanner_rng.bit_generator.state

    def fresh_rng():
        spanner_rng.bit_generator.state = state
        return spanner_rng

    vec_s = best_of(lambda: baswana_sengupta_spanner(graph, 3, fresh_rng()))
    ref_s = best_of(lambda: reference_spanner(graph, 3, fresh_rng()))
    vec_spanner = baswana_sengupta_spanner(graph, 3, fresh_rng())
    records.append(
        {
            "phase": "spanner (Baswana-Sen, k=3)",
            "n": n,
            "reference_s": ref_s,
            "vectorized_s": vec_s,
            "speedup": ref_s / vec_s,
            "edges": vec_spanner.num_edges,
            "edge_bound_2x": 2 * spanner_edge_bound(n, 3),
        }
    )

    exact = exact_apsp(graph)
    delta = exact * 2.0
    np.fill_diagonal(delta, 0.0)
    result = build_knearest_hopset(graph, delta, 2.0)
    k = result.k
    vec_h = best_of(lambda: build_knearest_hopset(graph, delta, 2.0))
    ref_h = best_of(lambda: reference_hopset(graph, delta, k))
    ref_graph = reference_hopset(graph, delta, k)
    records.append(
        {
            "phase": f"hopset (Lemma 3.2, k={k})",
            "n": n,
            "reference_s": ref_h,
            "vectorized_s": vec_h,
            "speedup": ref_h / vec_h,
            "edges": result.hopset.num_edges,
            "identical_to_reference": bool(
                np.array_equal(result.hopset.edge_u, ref_graph.edge_u)
                and np.array_equal(result.hopset.edge_v, ref_graph.edge_v)
                and np.array_equal(result.hopset.edge_w, ref_graph.edge_w)
            ),
        }
    )
    return records


@pytest.fixture(scope="module")
def pipeline_records() -> List[Dict]:
    return profile_pipelines()


@pytest.fixture(scope="module")
def construction_records() -> List[Dict]:
    return measure_construction()


def top_phases(seconds: Dict[str, float], limit: int = 3) -> str:
    ranked = sorted(seconds.items(), key=lambda kv: -kv[1])[:limit]
    return ", ".join(f"{name} {sec * 1e3:.0f}ms" for name, sec in ranked)


def test_pipeline_phase_breakdown(pipeline_records, construction_records,
                                  results_sink, benchmark):
    # Every profiled pipeline must attribute its time to named phases.
    for record in pipeline_records:
        assert record["seconds_by_phase"], record["variant"]
        assert record["timed_s"] <= record["wall_s"] + 1e-6

    rows = [
        (
            r["variant"],
            r["n"],
            f"{r['wall_s'] * 1e3:.0f}",
            r["rounds"],
            top_phases(r["seconds_by_phase"]),
        )
        for r in pipeline_records
    ]
    table = format_table(
        ["pipeline", "n", "wall ms", "rounds", "heaviest phases"],
        rows,
        title="E18 — pipeline phase profile (claim: construction phases "
        "are array-native; wall time attributed per ledger phase)",
    )
    emit(table, sink_path=results_sink)

    construction_rows = [
        (
            r["phase"],
            r["n"],
            f"{r['reference_s'] * 1e3:.0f}",
            f"{r['vectorized_s'] * 1e3:.0f}",
            f"{r['speedup']:.2f}x",
        )
        for r in construction_records
    ]
    emit(
        format_table(
            ["construction", "n", "reference ms", "vectorized ms", "speedup"],
            construction_rows,
            title="E18 — construction layer vs frozen pre-PR references "
            "(claim: spanner >= 3x, hopset >= 2x at n=512)",
        ),
        sink_path=results_sink,
    )

    payload = {
        "experiment": "E18-pipeline",
        "sizes": list(SIZES),
        "smoke": SMOKE,
        "pipelines": [name for name, _ in PIPELINES],
        "records": pipeline_records,
        "construction": construction_records,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    graph = workload("er-dense", SIZES[-1])
    benchmark.pedantic(
        lambda: run_variant(
            "theorem11", graph, rng_for("pipeline:bench"), ledger=RoundLedger(graph.n)
        ),
        rounds=1,
        iterations=1,
    )


def test_hopset_batched_path_identical_to_reference(construction_records):
    """The batched dijkstra must reproduce the per-vertex hopset exactly."""
    record = next(r for r in construction_records if r["phase"].startswith("hopset"))
    assert record["identical_to_reference"], record


def test_json_schema(pipeline_records, construction_records):
    """Schema contract for BENCH_pipeline.json consumers (CI smoke runs this)."""
    assert len(pipeline_records) >= 3  # >= 3 registry variants profiled
    assert {r["variant"] for r in pipeline_records} == {n for n, _ in PIPELINES}
    for record in pipeline_records:
        for key in ("variant", "n", "wall_s", "timed_s", "rounds",
                    "seconds_by_phase", "rounds_by_phase"):
            assert key in record, key
        assert isinstance(record["seconds_by_phase"], dict)
    for record in construction_records:
        for key in ("phase", "n", "reference_s", "vectorized_s", "speedup"):
            assert key in record, key


@pytest.mark.skipif(SMOKE, reason="speedup ratios need the n=512 measurement")
def test_construction_speedups_at_512(construction_records):
    """Acceptance: spanner >= 3x and hopset >= 2x over the pre-PR code."""
    spanner = next(
        r for r in construction_records if r["phase"].startswith("spanner")
    )
    hopset = next(
        r for r in construction_records if r["phase"].startswith("hopset")
    )
    assert spanner["speedup"] >= 3.0, spanner
    assert hopset["speedup"] >= 2.0, hopset
    # The spanner changed RNG semantics but must keep the size contract.
    assert spanner["edges"] <= spanner["edge_bound_2x"], spanner
