"""E10/E19 — Lemmas 2.1/2.2 routing: O(1) rounds, and the plane speedup.

Message-level measurements on the simulator, now in two parts:

* **E10 (correctness shape)** — at *full load* (every node sends and
  receives exactly n messages) the two-phase deterministic router
  finishes in a small constant number of rounds while naive direct
  routing needs rounds proportional to the worst pair congestion.

* **E19 (communication-plane speedup)** — the same full-load instances
  are routed on both planes: the frozen per-message object simulator
  (``repro.cclique.reference``) and the struct-of-arrays engine.  Round
  counts and spill statistics must be identical; wall-clock must not be.
  The acceptance bar is a >= 10x array-plane speedup at n = 512, recorded
  in ``BENCH_routing.json`` (per-size rounds, seconds, and speedups for
  CI and dashboards).

* **Bounded construction** — the row-sharded ``next_hop_table`` build
  at n = 4096 with memmap destinations keeps its peak transient working
  set (tracemalloc) below half of one (n, n) int64 table; recorded under
  ``construction`` in the same artifact.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` restricts the sweep to small sizes —
the CI configuration, where only plane equivalence and the bounded
construction (not the speedup ratio, which needs the large sizes and a
quiet machine) are asserted.  The construction chunk shrinks with n so
the bound stays meaningful at smoke scale.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import tracemalloc
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.cclique import (
    Message,
    MessageBatch,
    route_batch_two_phase,
    route_direct,
    route_randomized,
    route_two_phase,
    route_two_phase_reference,
)
from repro.core.routing_tables import next_hop_table
from repro.graphs import erdos_renyi

from conftest import bench_json_path, host_fingerprint, rng_for

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (32, 64) if SMOKE else (64, 128, 256, 512)
CONSTRUCTION_N = 256 if SMOKE else 4096
CONSTRUCTION_CHUNK = 1 << 11 if SMOKE else 1 << 17
JSON_PATH = bench_json_path("routing")


def full_load(n: int, rng) -> list:
    messages = []
    for _ in range(n):
        perm = rng.permutation(n)
        for sender in range(n):
            messages.append(Message(sender, int(perm[sender]), (sender,)))
    return messages


def as_batch(messages, n: int) -> MessageBatch:
    src = np.fromiter((m.sender for m in messages), np.int64, len(messages))
    dst = np.fromiter((m.receiver for m in messages), np.int64, len(messages))
    payload = np.fromiter(
        (float(m.payload[0]) for m in messages), np.float64, len(messages)
    ).reshape(-1, 1)
    return MessageBatch(src=src, dst=dst, payload=payload)


def hot_pair(n: int) -> list:
    return [Message(0, 1, (i,)) for i in range(n)]


def measure() -> List[Dict]:
    """Per size: both planes' rounds, spills, and wall-clock seconds."""
    records: List[Dict] = []
    for n in SIZES:
        rng = rng_for(f"e19:{n}")
        messages = full_load(n, rng)
        batch = as_batch(messages, n)

        start = time.perf_counter()
        _, object_stats = route_two_phase_reference(messages, n)
        object_seconds = time.perf_counter() - start

        start = time.perf_counter()
        _, array_stats = route_batch_two_phase(batch, n)
        array_seconds = time.perf_counter() - start

        start = time.perf_counter()
        _, wrapper_stats = route_two_phase(messages, n)
        wrapper_seconds = time.perf_counter() - start

        records.append(
            {
                "n": n,
                "messages": n * n,
                "object_rounds": object_stats.rounds,
                "array_rounds": array_stats.rounds,
                "wrapper_rounds": wrapper_stats.rounds,
                "object_spill_rounds": object_stats.spill_rounds,
                "array_spill_rounds": array_stats.spill_rounds,
                "object_seconds": object_seconds,
                "array_seconds": array_seconds,
                "wrapper_seconds": wrapper_seconds,
                "array_speedup": object_seconds / array_seconds,
                "wrapper_speedup": object_seconds / wrapper_seconds,
            }
        )
    return records


def measure_construction() -> Dict:
    """Row-sharded ``next_hop_table`` into memmap destinations; inputs are
    allocated before tracing starts, so the peak is the build's own."""
    n = CONSTRUCTION_N
    rng = rng_for(f"shard-construct:{n}")
    graph = erdos_renyi(n, 6.0 / n, rng)
    graph.csr()
    estimate = rng.uniform(1.0, 50.0, (n, n))
    np.fill_diagonal(estimate, 0.0)
    with tempfile.TemporaryDirectory(prefix="bench-routing-") as tmp:
        table = np.memmap(os.path.join(tmp, "next_hop.bin"),
                          dtype=np.int64, mode="w+", shape=(n, n))
        hop_weight = np.memmap(os.path.join(tmp, "hop_weight.bin"),
                               dtype=np.float64, mode="w+", shape=(n, n))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            next_hop_table(
                graph, estimate, chunk_elems=CONSTRUCTION_CHUNK,
                out=table, hop_weight_out=hop_weight,
            )
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        record = {
            "n": n, "seconds": seconds,
            "peak_transient_bytes": int(peak),
            "table_bytes": int(table.nbytes),
            "bounded": bool(peak < table.nbytes / 2),
        }
        del table, hop_weight
    return record


@pytest.fixture(scope="module")
def routing_records() -> List[Dict]:
    return measure()


@pytest.fixture(scope="module")
def construction_record() -> Dict:
    return measure_construction()


def test_routing_planes_identical_and_fast(
    routing_records, construction_record, results_sink, benchmark
):
    """E19: planes agree exactly; the array plane is the fast one."""
    for record in routing_records:
        assert record["array_rounds"] == record["object_rounds"], record
        assert record["array_spill_rounds"] == record["object_spill_rounds"], record
        assert record["wrapper_rounds"] == record["object_rounds"], record
        assert record["array_rounds"] <= 12, "two-phase must stay constant-round"

    rows = [
        (
            r["n"],
            r["messages"],
            r["array_rounds"],
            f"{r['object_seconds'] * 1e3:.0f}",
            f"{r['array_seconds'] * 1e3:.0f}",
            f"{r['array_speedup']:.1f}x",
        )
        for r in routing_records
    ]
    table = format_table(
        ["n", "messages", "rounds", "object ms", "array ms", "speedup"],
        rows,
        title="E19 — full-load routing, object plane vs array plane "
        "(claim: identical rounds/spills, >= 10x at n=512)",
    )
    emit(table, sink_path=results_sink)
    c = construction_record
    emit(format_table(
        ["n", "seconds", "peak transient MiB", "table MiB", "bounded"],
        [(c["n"], f"{c['seconds']:.2f}", f"{c['peak_transient_bytes'] / 2**20:.1f}",
          f"{c['table_bytes'] / 2**20:.0f}", c["bounded"])],
        title="Row-sharded next_hop_table into memmaps "
        "(claim: peak transient < half a table)",
    ), sink_path=results_sink)

    payload = {
        "experiment": "E19-routing",
        "sizes": list(SIZES),
        "smoke": SMOKE,
        "host": host_fingerprint(),
        "records": routing_records,
        "construction": construction_record,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    n = SIZES[-1]
    batch = as_batch(full_load(n, rng_for(f"e19:{n}")), n)
    benchmark.pedantic(lambda: route_batch_two_phase(batch, n), rounds=1, iterations=1)


def test_construction_stays_bounded(construction_record):
    """Acceptance: the memmap build's peak stays below half a table."""
    assert construction_record["bounded"], construction_record


@pytest.mark.skipif(SMOKE, reason="speedup ratio needs the n=512 measurement")
def test_array_plane_at_least_10x_at_512(routing_records):
    """Acceptance: >= 10x wall-clock at n=512 full load."""
    record = next(r for r in routing_records if r["n"] == 512)
    assert record["array_speedup"] >= 10.0, (
        f"array plane only {record['array_speedup']:.1f}x over the object "
        f"plane at n=512"
    )


def test_routing_rounds_table(results_sink, benchmark):
    """E10: deterministic vs randomized relaying at full load."""
    rows = []
    for n in (16, 32, 64):
        rng = rng_for(f"e10:{n}")
        messages = full_load(n, rng)
        _, two_phase = route_two_phase(messages, n)
        _, randomized = route_randomized(messages, n, rng)
        assert two_phase.rounds <= 12, "two-phase must stay constant-round"
        rows.append(
            (
                n,
                n * n,
                two_phase.rounds,
                randomized.rounds,
                two_phase.relay_max_load,
            )
        )
    table = format_table(
        ["n", "messages", "two-phase rounds", "randomized rounds", "relay max load"],
        rows,
        title="E10 / Lemma 2.1 — full-load routing stays O(1) rounds",
    )
    emit(table, sink_path=results_sink)

    n = 32
    messages = full_load(n, rng_for("e10:kernel"))
    benchmark.pedantic(
        lambda: route_two_phase(messages, n), rounds=1, iterations=1
    )


def test_hot_pair_contrast(results_sink, benchmark):
    """The value of relaying: a single congested pair."""
    rows = []
    for n in (16, 32, 64):
        messages = hot_pair(n)
        _, direct = route_direct(messages, n)
        _, relayed = route_two_phase(messages, n)
        assert direct.rounds >= n
        assert relayed.rounds <= 12
        rows.append((n, direct.rounds, relayed.rounds))
    table = format_table(
        ["n", "direct rounds", "two-phase rounds"],
        rows,
        title="E10b — hot-pair instance: relaying beats direct by Theta(n)",
    )
    emit(table, sink_path=results_sink)
    benchmark.pedantic(
        lambda: route_two_phase(hot_pair(32), 32), rounds=1, iterations=1
    )
