"""E21 — the async oracle-serving tier: micro-batched vs single-query.

Two measurements on :class:`repro.serve.OracleService` under a
synthetic closed-loop load (see :func:`repro.serve.run_closed_loop`):

* **Equivalence** — every endpoint (``distance``, ``route``,
  ``k_nearest``) must return *bit-identical* results through the
  micro-batched path and the single-query path: the engine calls are
  per-item independent, so batch membership must not leak into answers.
  Asserted at every load level, smoke or not.

* **Throughput/latency** — p50/p99 latency and queries/sec for both
  paths at >= 3 offered-load levels (concurrent closed-loop clients).
  The batcher flushes as soon as the backend is idle and coalesces only
  what queues behind a flush in flight, so it must never lose to the
  single path: the gates are batched >= 0.9x single qps at every level
  on both endpoints, and the micro-batched ``route`` path at >= 5x the
  single-query throughput at the highest (saturating) load, written to
  ``BENCH_serve.json``.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks the instance and the load
levels — CI asserts equivalence and the metrics-snapshot JSON
round-trip, not the throughput ratios (they need saturation and a
quiet machine).
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Dict, List

import pytest

from repro.analysis import emit, format_table
from repro.graphs import erdos_renyi
from repro.serve import OracleService, ServiceConfig, run_closed_loop

from conftest import bench_json_path, host_fingerprint, rng_for

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
N = 64 if SMOKE else 256
LEVELS = (2, 4, 8) if SMOKE else (8, 64, 256)
REQUESTS = 60 if SMOKE else 2000
MAX_BATCH = 16 if SMOKE else 128
ENDPOINTS = ("distance", "route")
JSON_PATH = bench_json_path("serve")


def build_service():
    """One warmed service over a seeded workload + the query sample."""
    rng = rng_for(f"e21:{N}")
    graph = erdos_renyi(N, min(1.0, 8.0 / N), rng)
    service = OracleService(ServiceConfig(max_batch=MAX_BATCH, max_workers=4))
    handle = service.warm(graph, variant="small-diameter", seed=7)
    qrng = rng_for(f"e21:queries:{N}")
    sources = qrng.integers(0, N, size=4096)
    targets = qrng.integers(0, N, size=4096)
    return service, handle, sources, targets


def drive(service, handle, sources, targets, endpoint, batched, level):
    """One closed-loop run; returns the LoadReport snapshot."""
    call = getattr(service, endpoint)

    async def request(i: int):
        s = int(sources[i % len(sources)])
        t = int(targets[i % len(targets)])
        return await call(handle, s, t, batched=batched)

    report = asyncio.run(run_closed_loop(request, REQUESTS, level))
    assert report.errors == 0, (endpoint, batched, level)
    return report.snapshot()


def collect_answers(service, handle, sources, targets, endpoint, batched, count):
    """The first ``count`` per-query answers through one serving path."""
    call = getattr(service, endpoint)

    async def gather():
        return await asyncio.gather(
            *(
                call(
                    handle,
                    int(sources[i]),
                    int(targets[i]),
                    batched=batched,
                )
                for i in range(count)
            )
        )

    return asyncio.run(gather())


def measure() -> Dict:
    service, handle, sources, targets = build_service()
    with service:
        # Equivalence first: answers must not depend on the serving path.
        mismatches = 0
        checked = min(REQUESTS, 512)
        for endpoint in ENDPOINTS:
            batched = collect_answers(
                service, handle, sources, targets, endpoint, True, checked
            )
            single = collect_answers(
                service, handle, sources, targets, endpoint, False, checked
            )
            mismatches += sum(1 for b, s in zip(batched, single) if b != s)

        async def knn_all(batched: bool):
            return await asyncio.gather(
                *(
                    service.k_nearest(
                        handle, int(sources[i]), 5, batched=batched
                    )
                    for i in range(checked)
                )
            )

        knn_batched = asyncio.run(knn_all(True))
        knn_single = asyncio.run(knn_all(False))
        mismatches += sum(
            1 for b, s in zip(knn_batched, knn_single) if b != s
        )

        records: List[Dict] = []
        for endpoint in ENDPOINTS:
            for level in LEVELS:
                single = drive(
                    service, handle, sources, targets, endpoint, False, level
                )
                batched = drive(
                    service, handle, sources, targets, endpoint, True, level
                )
                records.append(
                    {
                        "endpoint": endpoint,
                        "clients": level,
                        "requests": REQUESTS,
                        "single": single,
                        "batched": batched,
                        "batched_speedup": batched["qps"] / single["qps"],
                    }
                )
        snapshot = service.snapshot()
    # The metrics plane must survive a strict JSON round-trip.
    assert snapshot == json.loads(json.dumps(snapshot, allow_nan=False))
    return {
        "mismatches": mismatches,
        "checked_per_endpoint": checked,
        "records": records,
        "snapshot": snapshot,
    }


@pytest.fixture(scope="module")
def serve_records() -> Dict:
    return measure()


def test_serving_tier_identical_and_fast(serve_records, results_sink, benchmark):
    """E21: batched answers == single answers; both paths measured."""
    assert serve_records["mismatches"] == 0

    rows = []
    for r in serve_records["records"]:
        rows.append(
            (
                r["endpoint"],
                r["clients"],
                f"{r['single']['qps']:.0f}",
                f"{r['batched']['qps']:.0f}",
                f"{r['batched_speedup']:.2f}x",
                f"{r['single']['latency']['p50'] * 1e3:.2f}/"
                f"{r['single']['latency']['p99'] * 1e3:.2f}",
                f"{r['batched']['latency']['p50'] * 1e3:.2f}/"
                f"{r['batched']['latency']['p99'] * 1e3:.2f}",
            )
        )
    table = format_table(
        ["endpoint", "clients", "single qps", "batched qps", "speedup",
         "single p50/p99 ms", "batched p50/p99 ms"],
        rows,
        title="E21 — serving tier: micro-batched vs single-query closed-loop "
        "load (claim: identical answers, >= 5x route throughput at "
        "saturation)",
    )
    emit(table, sink_path=results_sink)

    payload = {
        "experiment": "E21-serve",
        "n": N,
        "levels": list(LEVELS),
        "requests": REQUESTS,
        "max_batch": MAX_BATCH,
        "smoke": SMOKE,
        "host": host_fingerprint(),
        "mismatches": serve_records["mismatches"],
        "records": serve_records["records"],
        "metrics_snapshot": serve_records["snapshot"],
    }
    with open(JSON_PATH, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    service, handle, sources, targets = build_service()
    with service:
        benchmark.pedantic(
            lambda: drive(
                service, handle, sources, targets, "distance", True, LEVELS[-1]
            ),
            rounds=1,
            iterations=1,
        )


def test_metrics_snapshot_round_trip(serve_records):
    """The smoke-run assertion: the snapshot is JSON-round-trippable."""
    snapshot = serve_records["snapshot"]
    assert snapshot == json.loads(json.dumps(snapshot, allow_nan=False))
    # The load above must actually have exercised the batcher.
    batching = snapshot["metrics"]["batching"]
    assert batching["distance"]["batches"] >= 1
    assert batching["distance"]["max_batch"] >= 2


@pytest.mark.skipif(SMOKE, reason="saturation ratio needs the full load levels")
def test_batched_route_at_least_5x_at_saturation(serve_records):
    """Acceptance: micro-batched route >= 5x single-query at the top load."""
    top = max(
        (
            r
            for r in serve_records["records"]
            if r["endpoint"] == "route"
        ),
        key=lambda r: r["clients"],
    )
    assert top["batched_speedup"] >= 5.0, (
        f"micro-batched route path only {top['batched_speedup']:.2f}x the "
        f"single-query path at {top['clients']} clients"
    )


@pytest.mark.skipif(SMOKE, reason="throughput ratios need the full load levels")
def test_batched_never_slower_than_single(serve_records):
    """Acceptance: batched >= 0.9x single qps at every level, both endpoints."""
    slow = [
        f"{r['endpoint']}@{r['clients']}: {r['batched_speedup']:.2f}x"
        for r in serve_records["records"]
        if r["batched_speedup"] < 0.9
    ]
    assert not slow, f"micro-batched path below 0.9x single: {slow}"
