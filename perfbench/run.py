"""Repo benchmark: one workload per invocation, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload apsp-thm11 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps the public functions of each layer (see
``tracer.py``), prints a per-layer self-time table and reports the
per-layer metrics; its spans are written as JSON lines under
``.perfbench/`` when the run ends.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; every solve and a sample of
served answers are checked, and any failure makes the exit code 1.

``--out FILE`` also writes the full result (samples, flags and the
host/software stamp); ``--compare BASE NEW`` prints the change of every
metric between two such files and refuses results from different hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Stamp fields that must match for two results to be compared.
HOST_FIELDS = ("cpu_count", "machine", "python", "numpy", "scipy")


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and the benchmark modules importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {ROOT / 'src'}; run from a "
            "full checkout of the repository"
        )
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def stamp(service_config: Dict[str, Any], auto_kernel: str) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "service_config": service_config,
        "auto_kernel": auto_kernel,
    }


def compare(base_path: str, new_path: str) -> int:
    """Print each metric's change from BASE to NEW; exit 2 on a host mismatch."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    mismatched = [
        f for f in HOST_FIELDS if base["stamp"].get(f) != new["stamp"].get(f)
    ]
    if mismatched:
        print(
            "perfbench: refusing to compare results from different hosts "
            f"(differ in {', '.join(mismatched)})",
            file=sys.stderr,
        )
        return 2
    if base["workload"] != new["workload"]:
        print("perfbench: refusing to compare different workloads", file=sys.stderr)
        return 2
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            print(f"{name:48s} {old['value']:>14.6g} {'absent':>14s}")
            continue
        value = new["metrics"][name]["value"]
        change = (value / old["value"] - 1) if old["value"] else float("nan")
        print(f"{name:48s} {old['value']:>14.6g} {value:>14.6g} {change:>+9.2%} {old['unit']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="64-node graphs, for the smoke test")
    parser.add_argument("--out", help="also write the full result as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _bootstrap()

    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, tracer, tiny=args.tiny)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if len(outcome.solves) < 2:
        print("\n".join(["perfbench: the solve loop failed"] + outcome.problems),
              file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = workloads.end_to_end(outcome, peak_rss_mb)
    late = workloads.generator_late(outcome)
    flags = []
    if late[0] > workloads.LATE_FLAG_S:
        flags.append(f"generator ran late: p99 {late[0] * 1e3:.2f} ms")
    error_rate = outcome.failed / outcome.attempted

    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# {workload.why}")
    print(f"{'metric':24s} {'value':>14s} {'unit':>6s} {'samples':>8s}")
    for name, (value, unit, samples) in e2e.items():
        print(f"{name:24s} {value:>14.6g} {unit:>6s} {samples:>8d}")
    print(f"{'error_rate':24s} {error_rate:>14.6g} {'ratio':>6s} {outcome.attempted:>8d}")
    by_graph: Dict[int, List[str]] = {}
    for solve in outcome.solves:
        by_graph.setdefault(solve.graph, []).append(
            f"{solve.seconds:.3f}{'t' if solve.traced else ''}")
    print("# solve seconds by graph (t = traced): " + " | ".join(
        f"g{g}: {' '.join(times)}" for g, times in sorted(by_graph.items())))
    print("# max-rate probes (rate: p99 ms, +held/-missed): " + ", ".join(
        f"{rate:.0f}: {p99 * 1e3:.1f}{'+' if held else '-'}"
        for rate, p99, held in outcome.ladder.probes))
    for line in flags + outcome.problems:
        print(f"# {line}")
    host = stamp(outcome.service_config, outcome.auto_kernel)
    print(f"# stamp: {json.dumps(host, sort_keys=True)}")

    metrics: Dict[str, Dict[str, Any]]
    if tracer is None:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()}
    else:
        units = layers.metric_units()
        values = layers.per_layer(outcome, tracer, late)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        for root in ("solve", "serve.r2000"):
            rows = layers.layer_table(tracer, root)
            print(f"# self time under '{root}' spans, by function")
            for layer, name, calls, self_s, share in rows:
                print(f"  {layer:16s} {name:28s} {calls:>7d} {self_s:>10.4f} s {share:>7.1%}")
            print(f"# self time under '{root}' spans, by layer")
            by_layer: Dict[str, List[float]] = {}
            for layer, _, _, self_s, share in rows:
                total = by_layer.setdefault(layer, [0.0, 0.0])
                total[0] += self_s
                total[1] += share
            for layer, (self_s, share) in sorted(by_layer.items(), key=lambda kv: -kv[1][0]):
                print(f"  {layer:16s} {self_s:>10.4f} s {share:>7.1%}")
        print(f"{'trace.overhead_frac':24s} {values['trace.overhead_frac']:>14.6g}")
        if tracer.absent:
            print("# absent (not wrapped): " + ", ".join(tracer.absent))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-{args.seed}.jsonl"
        tracer.write_jsonl(str(trace_path))
        print(f"# spans: {trace_path.relative_to(ROOT)} ({len(tracer.spans)})")

    if args.out:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "stamp": host,
            "metrics": {
                name: {"value": v, "unit": u, "samples": n}
                for name, (v, u, n) in e2e.items()
            } if tracer is None else metrics,
            "error_rate": error_rate,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "flags": flags,
            "problems": outcome.problems,
        }
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
