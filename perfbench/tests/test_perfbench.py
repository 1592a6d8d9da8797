"""Tests of the repo benchmark itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from loadgen import FAILED  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

from repro import ApspSolver  # noqa: E402
from repro.graphs.distances import exact_apsp  # noqa: E402
from repro.serve import DistanceOracle, OracleService  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_names_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in workloads.UNLISTED]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in workloads.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert any(line.split()[:1] == [name] and unit in line for line in lines)


def test_traced_smoke_reports_every_per_layer_metric():
    done = _bench("--workload", "apsp-thm11", "--seed", "3", "--seconds", "0.5",
                  "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == list(layers.metric_units())
    assert result["metrics"]["knearest_iterated.calls"]["value"] >= 1
    assert "self time under 'solve' spans" in done.stdout


def test_graphs_are_identical_across_processes():
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import workloads\n"
        "from repro.graphs.distances import graph_content_hash\n"
        "spec = workloads.GraphSpec(96, 8.0, 'heavy-tail')\n"
        "print(graph_content_hash(workloads.make_graph(spec, 5)))\n"
    )
    hashes = set()
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        hashes.add(done.stdout.strip())
    assert len(hashes) == 1


def test_planted_underestimate_and_stretch_are_caught():
    graph = workloads.make_graph(workloads.GraphSpec(48, 6.0), 1)
    exact = exact_apsp(graph)
    assert workloads.check_solve(exact, exact.copy(), 1.0)[0] == []
    under = exact.copy()
    under[0, 1] -= 0.5
    assert any("unsound" in p for p in workloads.check_solve(exact, under, None)[0])
    assert any("above factor bound" in p
               for p in workloads.check_solve(exact, exact * 3, 2.0)[0])


def test_planted_wrong_answer_is_caught():
    workload = workloads.WORKLOADS["apsp-thm11"]
    graph = workloads.make_graph(workloads.GraphSpec(48, 6.0), 1)
    oracle = DistanceOracle.build(graph, ApspSolver(variant="theorem11").solve(graph))
    ops = workloads.make_ops(workload, 1, "check", graph.n, 200)
    answers = workloads.direct_answers(oracle, ops.kinds, ops.a, ops.b)
    rng = np.random.default_rng(0)
    assert workloads.cross_check(oracle, ops, answers, rng, sample=200) == 0
    wrong = list(answers)
    first_distance = int(np.nonzero(ops.kinds == 0)[0][0])
    wrong[first_distance] += 1.0
    # A failed request is counted as an error when it fails, not re-checked.
    wrong[0 if first_distance else 1] = FAILED
    assert workloads.cross_check(oracle, ops, wrong, rng, sample=200) == 1


def test_run_exits_nonzero_on_planted_faults(monkeypatch, capsys):
    original_solve = ApspSolver.solve
    original_distance = OracleService.distance

    def underestimating_solve(self, graph, stream=0):
        result = original_solve(self, graph, stream)
        result.estimate[0, 1] = result.estimate[1, 0] = 0.0
        return result

    async def wrong_distance(self, *args, **kwargs):
        return await original_distance(self, *args, **kwargs) + 1.0

    monkeypatch.setattr(ApspSolver, "solve", underestimating_solve)
    monkeypatch.setattr(OracleService, "distance", wrong_distance)
    code = bench_run.main(["--workload", "apsp-thm11", "--seed", "2",
                           "--seconds", "0.3", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    # Every set-up solve is unsound, and served distances all differ.
    assert result["failed"] > workloads.SETUPS


def test_tracer_reports_missing_names_as_absent():
    tracer = Tracer((
        Target("repro.semiring", "gone", "repro.semiring.minplus", "no_such_function"),
        Target("repro.nowhere", "nowhere", "repro.no_such_module", "f"),
        Target("repro.serve", "Gone.method", "repro.serve.oracle", "NoSuchClass.method"),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gone", "nowhere", "Gone.method"]


def test_tracer_patches_names_where_they_are_looked_up():
    # ``repro.semiring.minplus`` is also the name of a re-exported function.
    kernels = importlib.import_module("repro.semiring.kernels")
    minplus = importlib.import_module("repro.semiring.minplus")

    original = kernels.minplus_gather
    tracer = Tracer()
    tracer.install()
    try:
        assert minplus.minplus_gather is kernels.minplus_gather is not original
        graph = workloads.make_graph(workloads.GraphSpec(48, 6.0), 1)
        with tracer.root("solve"):
            ApspSolver(variant="theorem11").solve(graph)
    finally:
        tracer.uninstall()
    assert minplus.minplus_gather is original
    names = {s.name for s in tracer.spans}
    assert {"api.solve", "knearest_iterated", "minplus_gather",
            "k_smallest_in_rows"} <= names
    self_time = tracer.self_times()
    assert all(t >= -1e-9 for t in self_time.values())


def test_compare_refuses_different_hosts(tmp_path):
    record = {"workload": "apsp-exact", "stamp": {f: 1 for f in bench_run.HOST_FIELDS},
              "metrics": {"solve_s": {"value": 1.0, "unit": "s"}}}
    base, same, other = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base.write_text(json.dumps(record))
    same.write_text(json.dumps(record))
    record["stamp"] = dict(record["stamp"], cpu_count=64)
    other.write_text(json.dumps(record))
    assert bench_run.compare(str(base), str(same)) == 0
    assert bench_run.compare(str(base), str(other)) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "apsp-thm81", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
