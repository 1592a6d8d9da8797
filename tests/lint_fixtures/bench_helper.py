"""Benchmark corpus naming artifacts through conftest.bench_json_path
(linted under a virtual benchmarks/ path).

The registered plane passes; the unregistered one is flagged just as a
literal ``BENCH_*.json`` name would be.
"""

import json

from conftest import bench_json_path

REGISTERED = bench_json_path("kernels")
UNREGISTERED = bench_json_path("unregistered")  # reg-bench-tag
PAYLOAD = {"experiment": "E17-kernels", "records": [{"kernel": "broadcast"}]}


def emit(path):
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(PAYLOAD, sink)
