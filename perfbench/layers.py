"""Per-layer metrics of a traced run, named after the modules they measure.

Solve-side layers (``repro.api``, ``repro.core``, ``repro.semiring``,
``repro.graphs``, ``repro.spanners``) are reported *per solve*, over the
traced solves of the run.  Engine calls of
``repro.serve`` are totals over the 2000 req/s windows; batcher counters
and queue waits cover the 500 req/s windows.  A metric of a layer that
did not run (or a wrapped name that no longer exists) reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Tuple

from loadgen import quantile
from tracer import TARGETS, Span, Tracer
from workloads import ENDPOINTS, RunOutcome

#: Ledger phases of the registered variants (``<top>`` is the exact variant's).
LEDGER_PHASES = (
    "thm1.1/k-nearest",
    "thm1.1/skeleton",
    "thm1.1/simulated-G_S/thm8.1/bootstrap",
    "thm1.1/simulated-G_S/thm8.1/scaled-solves",
    "thm1.1/simulated-G_S/thm8.1/scaled-solves/G_i",
    "thm1.1/simulated-G_S/thm8.1/skeleton",
    "thm1.1/extend",
    "thm8.1/bootstrap",
    "thm8.1/scaled-solves",
    "thm8.1/scaled-solves/G_i",
    "thm8.1/skeleton",
    "<top>",
)

#: Min-plus kernels a dispatcher may resolve to.
KERNELS = ("broadcast", "tiled", "int-repack", "numba", "sharded")

#: Engine call serving each endpoint.
ENGINE = {
    "distance": "DistanceOracle.query_many",
    "route": "route_batch",
    "k_nearest": "DistanceOracle.k_nearest",
}

SOLVE_TARGETS = tuple(t.name for t in TARGETS if t.layer != "repro.serve")


def ledger_name(phase: str) -> str:
    return "ledger." + phase.replace("<top>", "top").replace("/", ".")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in output order, with its unit."""
    units: Dict[str, str] = {}
    for name in SOLVE_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units["minplus.ops"] = "count"
    units["minplus.bytes"] = "bytes"
    for kernel in KERNELS:
        units[f"minplus.kernel.{kernel}.calls"] = "count"
    units["minplus_gather.ops"] = "count"
    units["k_smallest_in_rows.elems"] = "count"
    units["gather.kept_ratio"] = "ratio"
    for phase in LEDGER_PHASES:
        units[ledger_name(phase) + ".s"] = "s"
        units[ledger_name(phase) + ".rounds"] = "rounds"
    units["ledger.unattributed.s"] = "s"
    for engine in ENGINE.values():
        units[f"{engine}.calls"] = "count"
        units[f"{engine}.s"] = "s"
        units[f"{engine}.items"] = "count"
    for endpoint in ENDPOINTS:
        for stat, unit in (("flushes", "count"), ("size_flushes", "count"),
                           ("deadline_flushes", "count"), ("mean_batch", "count"),
                           ("fill_ratio", "ratio")):
            units[f"batcher.{endpoint}.{stat}"] = unit
    units.update({
        "lat_p99_ms.r500": "ms",
        "lat_p99_ms.r2000": "ms",
        "max_rate_rps": "1/s",
        "serve.wait_ms.p50": "ms",
        "serve.wait_ms.p99": "ms",
        "serve.backend.busy_frac": "ratio",
        "store.hits": "count",
        "store.misses": "count",
        "store.builds": "count",
        "store.build_s": "s",
        "gen.late_ms.p99": "ms",
        "gen.late_ms.max": "ms",
        "trace.overhead_frac": "ratio",
    })
    return units


def _in_root(tracer: Tracer, root: str) -> Tuple[List[Span], List[Span]]:
    roots = [s for s in tracer.spans if s.parent is None and s.name == root]
    spans = [s for s in tracer.spans if s.parent is not None and s.root == root]
    return roots, spans


def _under(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    """Whether a span named ``name`` encloses ``span``."""
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


def _solve_metrics(tracer: Tracer, root: str, self_time: Dict[int, float]) -> Dict[str, float]:
    roots, spans = _in_root(tracer, root)
    by_id = {s.id: s for s in spans}
    totals: Dict[str, float] = {}
    computed = kept = 0
    for span in spans:
        if span.layer == "bench" or span.name not in SOLVE_TARGETS:
            continue
        _add(totals, f"{span.name}.calls", 1)
        _add(totals, f"{span.name}.s", self_time[span.id])
        if span.name == "minplus":
            _add(totals, "minplus.ops", span.attrs["ops"])
            _add(totals, "minplus.bytes", span.attrs["bytes"])
            _add(totals, f"minplus.kernel.{span.attrs['kernel']}.calls", 1)
        elif span.name == "minplus_gather":
            _add(totals, "minplus_gather.ops", span.attrs["ops"])
            if _under(span, "knearest_iterated", by_id):
                computed += span.attrs["entries"]
        elif span.name == "k_smallest_in_rows":
            _add(totals, "k_smallest_in_rows.elems", span.attrs["elems"])
            if _under(span, "knearest_iterated", by_id):
                kept += span.attrs["kept"]
    out = {name: total / max(1, len(roots)) for name, total in totals.items()}
    out["gather.kept_ratio"] = kept / computed if computed else 0.0
    return out


def _serve_metrics(tracer: Tracer, self_time: Dict[int, float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    roots, spans = _in_root(tracer, "serve.r2000")
    root_ids = {r.id for r in roots}
    top = [s for s in spans if s.parent in root_ids and s.layer != "bench"]
    for span in top:
        _add(out, f"{span.name}.calls", 1)
        _add(out, f"{span.name}.s", self_time[span.id])
        _add(out, f"{span.name}.items", span.attrs.get("items", 0))
    if roots:
        busy = sum(s.duration for s in top)
        out["serve.backend.busy_frac"] = busy / sum(r.duration for r in roots)
    out.update(_waits(tracer))
    return out


def _waits(tracer: Tracer) -> Dict[str, float]:
    """Due time to the start of the engine call that served each request.

    With one backend worker, the batches of one endpoint run in the order
    their requests were submitted, so within a window the i-th request of
    an endpoint is served by the engine call whose cumulative item count
    first exceeds i.
    """
    roots, spans = _in_root(tracer, "serve.r500")
    waits: List[float] = []
    for root in roots:
        children = [s for s in spans if s.parent == root.id]
        for endpoint, engine in ENGINE.items():
            requests = sorted((s for s in children if s.name == f"request.{endpoint}"),
                              key=lambda s: s.attrs["request"])
            calls = iter(sorted((s for s in children if s.name == engine),
                                key=lambda s: s.start))
            call, left = None, 0
            for request in requests:
                while left == 0:
                    call = next(calls, None)
                    if call is None:
                        break
                    left = call.attrs.get("items", 0)
                if call is None:
                    break
                waits.append(call.start - request.start)
                left -= 1
    if not waits:
        return {}
    waits.sort()
    return {
        "serve.wait_ms.p50": quantile(waits, 0.5) * 1e3,
        "serve.wait_ms.p99": quantile(waits, 0.99) * 1e3,
    }


def _add(out: Dict[str, float], key: str, value: float) -> None:
    out[key] = out.get(key, 0.0) + value


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(outcome: RunOutcome, tracer: Tracer, late: Tuple[float, float]) -> Dict[str, float]:
    """Every metric of :func:`metric_units` for one traced run."""
    self_time = tracer.self_times()
    values: Dict[str, float] = {name: 0.0 for name in metric_units()}
    values.update(_solve_metrics(tracer, "solve", self_time))
    values.update(_serve_metrics(tracer, self_time))

    untraced = [s for s in outcome.solves if not s.traced]
    for phase in LEDGER_PHASES:
        name = ledger_name(phase)
        values[name + ".s"] = _median(s.seconds_by_phase.get(phase, 0.0) for s in untraced)
        values[name + ".rounds"] = _median(s.rounds_by_phase.get(phase, 0) for s in untraced)
    values["ledger.unattributed.s"] = _median(s.unattributed_s for s in untraced)

    for endpoint, counts in outcome.batchers_r500.items():
        for stat in ("flushes", "size_flushes", "deadline_flushes"):
            values[f"batcher.{endpoint}.{stat}"] = counts[stat]
        mean = counts["completed"] / counts["flushes"] if counts["flushes"] else 0.0
        values[f"batcher.{endpoint}.mean_batch"] = mean
        if outcome.max_batch:
            values[f"batcher.{endpoint}.fill_ratio"] = mean / outcome.max_batch
    store = outcome.store
    values["store.hits"] = float(store.get("hits", 0))
    values["store.misses"] = float(store.get("misses", 0))
    values["store.builds"] = float(store.get("builds", 0))
    values["store.build_s"] = float(store.get("build_seconds", 0.0))

    for rate in outcome.windows:
        values[f"lat_p99_ms.r{rate}"] = outcome.median_quantile(rate, 0.99) * 1e3
    values["max_rate_rps"] = outcome.ladder.max_rate
    values["gen.late_ms.p99"] = late[0] * 1e3
    values["gen.late_ms.max"] = late[1] * 1e3
    traced = [s.seconds for s in outcome.solves if s.traced]
    plain = [s.seconds for s in untraced]
    if traced and plain:
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {name: values[name] for name in metric_units()}


def layer_table(tracer: Tracer, root: str) -> List[Tuple[str, str, int, float, float]]:
    """``(layer, name, calls, self_s, share)`` rows of one root, by self time.

    ``share`` is the span's self time over the total time of the root's
    spans (the roots' own self time included).
    """
    self_time = tracer.self_times()
    roots, spans = _in_root(tracer, root)
    total = sum(s.duration for s in roots)
    rows: Dict[Tuple[str, str], List[float]] = {}
    for span in spans:
        if span.layer == "bench":
            continue
        row = rows.setdefault((span.layer, span.name), [0, 0.0])
        row[0] += 1
        row[1] += self_time[span.id]
    outside = total - sum(r[1] for r in rows.values())
    rows[("bench", "(outside wrapped calls)")] = [len(roots), outside]
    return sorted(
        ((layer, name, int(c), s, s / total if total else 0.0)
         for (layer, name), (c, s) in rows.items()),
        key=lambda r: -r[3],
    )
