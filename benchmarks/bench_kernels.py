"""E17 — min-plus kernel layer: every kernel bit-identical, tiled >= 2x.

The kernel registry (``repro.semiring.kernels``) promises two things:

* **equivalence** — every registered kernel returns bit-identical output
  on the same inputs (the property the repo's correctness rests on), and
* **speed** — the cache-tiled kernel (or the numba JIT one, when numba
  is installed) beats the ``broadcast`` reference by >= 2x at n = 512,
  the acceptance bar for the kernel subsystem.

Besides the usual ``bench_results.md`` table, this module emits
``BENCH_kernels.json`` (machine-readable per-kernel timings and
speedups) so CI and dashboards can track kernel regressions.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` restricts the sweep to the smallest
size — the CI configuration, where only equivalence (not the speedup
ratio, which needs the large size and a quiet machine) is asserted.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np
import pytest

from repro.analysis import emit, format_table
from repro.semiring import iter_kernels, kernel_names, minplus, resolve_kernel

from conftest import bench_json_path, rng_for

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
SIZES = (128,) if SMOKE else (128, 256, 512)
REFERENCE = "broadcast"
JSON_PATH = bench_json_path("kernels")


def kernel_workload(n: int) -> np.ndarray:
    """An integer min-plus matrix with inf holes (an ER-like adjacency)."""
    rng = rng_for(f"kernels:{n}")
    matrix = rng.integers(1, 100, (n, n)).astype(np.float64)
    matrix[rng.random((n, n)) < 0.5] = np.inf
    np.fill_diagonal(matrix, 0.0)
    return matrix


def best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> List[Dict]:
    """Per (size, kernel): best wall time, speedup vs reference, equality."""
    records: List[Dict] = []
    for n in SIZES:
        matrix = kernel_workload(n)
        reference_out = minplus(matrix, matrix, kernel=REFERENCE)
        reference_time = best_of(lambda: minplus(matrix, matrix, kernel=REFERENCE))
        for spec in iter_kernels():
            out = minplus(matrix, matrix, kernel=spec.name)
            seconds = (
                reference_time
                if spec.name == REFERENCE
                else best_of(lambda: minplus(matrix, matrix, kernel=spec.name))
            )
            records.append(
                {
                    "n": n,
                    "kernel": spec.name,
                    "seconds": seconds,
                    "speedup_vs_broadcast": reference_time / seconds,
                    "identical_to_reference": bool(
                        np.array_equal(out, reference_out)
                    ),
                }
            )
    return records


@pytest.fixture(scope="module")
def kernel_records() -> List[Dict]:
    return measure()


def test_kernel_equivalence_and_speed(kernel_records, results_sink, benchmark):
    for record in kernel_records:
        assert record["identical_to_reference"], record

    rows = [
        (
            r["n"],
            r["kernel"],
            f"{r['seconds'] * 1e3:.1f}",
            f"{r['speedup_vs_broadcast']:.2f}x",
            "yes" if r["identical_to_reference"] else "NO",
        )
        for r in kernel_records
    ]
    table = format_table(
        ["n", "kernel", "best ms", "speedup vs broadcast", "bit-identical"],
        rows,
        title="E17 — min-plus kernel registry (claim: identical outputs, "
        "tiled >= 2x at n=512)",
    )
    emit(table, sink_path=results_sink)

    payload = {
        "experiment": "E17-kernels",
        "sizes": list(SIZES),
        "smoke": SMOKE,
        "reference": REFERENCE,
        "kernels": list(kernel_names()),
        "records": kernel_records,
    }
    with open(JSON_PATH, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=2)

    # Representative timing for pytest-benchmark: the auto-selected kernel
    # at the largest size of this run.
    matrix = kernel_workload(SIZES[-1])
    benchmark.extra_info["auto_kernel"] = resolve_kernel(matrix, matrix)
    benchmark.pedantic(lambda: minplus(matrix, matrix), rounds=1, iterations=1)


@pytest.mark.skipif(SMOKE, reason="speedup ratio needs the n=512 measurement")
def test_fast_kernel_at_least_2x_at_512(kernel_records):
    """Acceptance: tiled (or numba when installed) >= 2x the reference."""
    candidates = [
        r
        for r in kernel_records
        if r["n"] == 512 and r["kernel"] in ("tiled", "numba")
    ]
    assert candidates, "no fast kernel measured at n=512"
    best = max(candidates, key=lambda r: r["speedup_vs_broadcast"])
    assert best["speedup_vs_broadcast"] >= 2.0, (
        f"{best['kernel']} only {best['speedup_vs_broadcast']:.2f}x "
        f"over {REFERENCE} at n=512"
    )


def test_auto_selection_picks_a_fast_kernel_for_large_integer_inputs():
    matrix = kernel_workload(max(SIZES))
    assert resolve_kernel(matrix, matrix) in ("int-repack", "tiled", "numba")
