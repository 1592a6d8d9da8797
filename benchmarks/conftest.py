"""Shared workloads and reporting for the benchmark/experiment harness.

Every module regenerates one experiment from DESIGN.md's per-experiment
index (E1-E12).  Conventions:

* each experiment prints a markdown table ("paper claim" vs "measured") and
  appends it to ``bench_results.md`` at the repo root;
* each experiment also times a representative kernel via pytest-benchmark,
  so ``pytest benchmarks/ --benchmark-only`` doubles as a perf harness;
* tables must state the *bound* next to the *measured* value — the
  reproduction's claim is "measured within bound, shape as in the paper".
"""

from __future__ import annotations

import os
import subprocess
import zlib
from typing import Dict, List

import numpy as np
import pytest

from repro.cclique import RoundLedger
from repro.core.registry import VariantSpec, iter_variants, run_variant
from repro.graphs import (
    WeightedGraph,
    cached_exact_apsp,
    erdos_renyi,
    grid_graph,
    heavy_tail_weights,
    path_with_shortcuts,
    polynomial_weights,
)

RESULTS_FILE = os.path.join(os.path.dirname(__file__), "..", "bench_results.md")


def sink_path() -> str:
    return os.path.abspath(RESULTS_FILE)


@pytest.fixture(scope="session")
def results_sink() -> str:
    """Results file, truncated once per session."""
    path = sink_path()
    marker = path + ".session"
    if not os.path.exists(marker) or os.environ.get("REPRO_FRESH", "1") == "1":
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("# Benchmark results (regenerated)\n\n")
        with open(marker, "w", encoding="utf-8") as m:
            m.write("session\n")
        os.environ["REPRO_FRESH"] = "0"
    return path


def bench_json_path(plane: str) -> str:
    """Where a bench module writes its artifact: ``BENCH_<plane>.json`` at
    the repo root, or ``BENCH_<plane>.smoke.json`` under
    ``REPRO_BENCH_SMOKE=1`` so smoke runs never overwrite the committed
    full-run numbers."""
    smoke = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
    name = f"BENCH_{plane}.smoke.json" if smoke else f"BENCH_{plane}.json"
    return os.path.abspath(os.path.join(os.path.dirname(__file__), "..", name))


def rng_for(tag: str) -> np.random.Generator:
    """A generator seeded from a stable digest of ``tag``: the same graph in
    every process (builtin ``hash()`` of a string is salted per process)."""
    return np.random.default_rng(zlib.crc32(tag.encode("utf-8")))


def host_fingerprint() -> Dict[str, object]:
    """Where a ``BENCH_*.json`` was measured: CPU count, numpy version and
    the checkout's ``git describe`` (a ``-dirty`` suffix marks uncommitted
    changes; ``None`` outside a git checkout)."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"cpu_count": os.cpu_count(), "numpy": np.__version__, "git_sha": sha}


def registered_variants() -> List[VariantSpec]:
    """The solver catalogue, in registration order (registry-driven)."""
    return list(iter_variants())


def run_registered(name: str, graph: WeightedGraph, tag: str, **params):
    """Run one registered variant on a fresh ledger; returns (result, ledger).

    The shared entry point for benchmarks that enumerate the registry:
    default parameters declared by the variant (thm 1.2's ``t``) are
    applied, explicit ``params`` win.
    """
    ledger = RoundLedger(graph.n)
    result = run_variant(
        name, graph, rng_for(tag), ledger=ledger, apply_defaults=True, **params
    )
    return result, ledger


@pytest.fixture(params=[spec.name for spec in iter_variants()])
def variant_name(request) -> str:
    """Parametrized fixture iterating every registered variant name."""
    return request.param


_GRAPH_CACHE: Dict[str, WeightedGraph] = {}


def workload(name: str, n: int) -> WeightedGraph:
    """Named, cached benchmark workloads."""
    key = f"{name}:{n}"
    if key not in _GRAPH_CACHE:
        rng = rng_for(key)
        if name == "er":
            graph = erdos_renyi(n, min(1.0, 6.0 / n), rng)
        elif name == "er-dense":
            graph = erdos_renyi(n, min(1.0, 24.0 / n), rng)
        elif name == "grid":
            side = max(2, int(round(n**0.5)))
            graph = grid_graph(side, rng)
        elif name == "path":
            graph = path_with_shortcuts(n, rng, shortcut_count=n // 10)
        elif name == "heavy":
            graph = erdos_renyi(n, min(1.0, 8.0 / n), rng, weights=heavy_tail_weights())
        elif name == "poly":
            graph = erdos_renyi(
                n, min(1.0, 8.0 / n), rng, weights=polynomial_weights(n, 2.5)
            )
        else:
            raise ValueError(f"unknown workload {name!r}")
        _GRAPH_CACHE[key] = graph
    return _GRAPH_CACHE[key]


def exact_for(name: str, n: int) -> np.ndarray:
    # Content-hash memoised oracle: shared with the solver facade and the
    # sweep runner (and LRU/byte bounded there), so cross-harness reruns
    # of one workload never recompute Dijkstra.
    return cached_exact_apsp(workload(name, n))
