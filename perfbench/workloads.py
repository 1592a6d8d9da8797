"""The benchmark's workloads: inputs, set-up, measured phases and checks.

Every workload is one user's work on one graph, solving and then
serving it, so that every end-to-end metric is measured on every
workload:

1. set-up, repeated :data:`SETUPS` times: generate the graph from the
   seed, compute the exact reference (``cached_exact_apsp``), run one
   ``ApspSolver.solve`` and build the serving oracle with
   ``OracleService.warm``;
2. a closed loop of ``ApspSolver.solve`` calls, one caller, cycling
   over :data:`SOLVE_GRAPHS` graphs of the family for
   :data:`SOLVE_SHARE` of the measuring time;
3. open-loop serving of the workload's own oracle for the rest: a
   70/20/10 mix of ``distance``/``route``/``k_nearest(k=8)`` requests on
   the batched path at 500 and 2000 req/s, then a search for the highest
   rate whose p99 stays within :data:`P99_LIMIT_S`.

The workloads differ in graph and variant, and so in which layer does
the solving: k-nearest (``apsp-thm11``), construction (``apsp-thm81``)
or dense min-plus (``apsp-exact``).  Serving ``apsp-thm11``'s oracle is
also the mixed serving workload; a separate serving-only workload on
the same graph would repeat its set-up for no new measurement.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import importlib
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from loadgen import FAILED, PhaseResult, open_loop, quantile
from tracer import Tracer

from repro import ApspSolver, SolverConfig
from repro.core.registry import get_variant
from repro.graphs.distances import DEFAULT_ORACLE, cached_exact_apsp
from repro.graphs.generators import erdos_renyi, heavy_tail_weights
from repro.graphs.graph import WeightedGraph
from repro.graphs.validation import check_estimate
from repro.serve import DistanceOracle, OracleService, ServiceConfig, route_batch

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Graphs of the family the solve loop cycles over: how hard one random
#: graph happens to be should not decide a run's ``solve_s``.
SOLVE_GRAPHS = 3

#: Share of the measuring time spent in the closed solve loop; the rest serves.
SOLVE_SHARE = 0.7

#: Offered rates of the two fixed-rate serving phases (requests/s).
FIXED_RATES = (500, 2000)

#: Latency limit on p99 for the maximum-rate search.  On a 2-vCPU VM the
#: p99 of the n=1024 oracle was already 10-17 ms at 3000 req/s, so a
#: 20 ms limit measured host noise; at 50 ms the search finds the rate
#: where the backlog starts to grow (p99 then jumps past 100 ms).
P99_LIMIT_S = 0.050

#: Shares of the serving time spent at each fixed rate, and in one max-rate probe.
FIXED_SHARES = (0.45, 0.2)
PROBE_SHARE = 0.03

#: Max-rate search: rate ratio while climbing, bisection steps after the
#: first miss, and the most probes per run.
LADDER = 1.5
BISECTIONS = 3
MAX_PROBES = 16

#: A rate counts as missed only after this many probes in a row miss it.
PROBE_ATTEMPTS = 2

#: Requests per fixed-rate window: its p99 has at least ten samples beyond it.
WINDOW_REQUESTS = 1000

#: ``k`` of the ``k_nearest`` requests.
K_NEAREST = 8

#: Share of requests per endpoint: distance, route, k_nearest.
MIX = (0.7, 0.2, 0.1)
ENDPOINTS = ("distance", "route", "k_nearest")

#: Generator lateness (p99) beyond which a run is flagged: it measured the generator.
LATE_FLAG_S = 0.005


@dataclass(frozen=True)
class GraphSpec:
    """An Erdős–Rényi family: ``n`` nodes, average degree, weight law."""

    n: int
    degree: float = 24.0
    weights: str = "uniform"  # or "heavy-tail": integers in [1, 10^4]

    @property
    def key(self) -> str:
        return f"er:{self.n}:{self.degree:g}:{self.weights}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: GraphSpec
    variant: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "apsp-thm11",
            "Thm 1.1 on ER n=1024, degree 24: k-nearest (gather + argsort) does "
            "nearly all the solving; its oracle is the mixed serving workload",
            GraphSpec(1024),
            "theorem11",
        ),
        Workload(
            "apsp-thm81",
            "Thm 8.1 on ER n=512, heavy-tail weights: hopsets, spanner bootstrap "
            "and scaled graphs dominate the solve; k-nearest about a fifth",
            GraphSpec(512, weights="heavy-tail"),
            "large-bandwidth",
        ),
        Workload(
            "apsp-exact",
            "exact min-plus squaring on ER n=512: dense min-plus kernels do 96% "
            "of the solve, k-nearest and construction none",
            GraphSpec(512),
            "exact",
        ),
    )
}

#: Workloads that run on request but are not in BENCHMARK.json.  The dense
#: min-plus solve of ``apsp-exact`` swung between 1.2 and 2.5 s from
#: minute to minute on a shared 2-vCPU VM (same graph, back to back), and
#: no reference kernel timed beside it tracked the swing, so ten runs of
#: it spread past any usable bound; compare it with paired runs of the
#: two commits instead.
UNLISTED = ("apsp-exact",)

#: Smaller graphs for the smoke test (``--tiny``).
TINY_N = 64


def digest_seed(*parts: Any) -> int:
    """A 63-bit seed from a stable digest of ``parts`` (never ``hash()``,
    which Python salts per process)."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


def make_graph(spec: GraphSpec, seed: int, index: int = 0) -> WeightedGraph:
    """Graph ``index`` of the family for ``seed``."""
    rng = np.random.default_rng(digest_seed("graph", spec.key, seed, index))
    weights = heavy_tail_weights() if spec.weights == "heavy-tail" else None
    return erdos_renyi(spec.n, spec.degree / (spec.n - 1), rng, weights=weights)


def solver_seed(workload: Workload, seed: int) -> int:
    return digest_seed("solver", workload.name, seed) % 2**32


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #


def check_solve(
    exact: np.ndarray, estimate: np.ndarray, bound: Optional[float]
) -> Tuple[List[str], float]:
    """Problems with one solve (empty when sound and within ``bound``) and its max stretch."""
    report = check_estimate(exact, estimate)
    problems = []
    if not report.sound:
        problems.append(
            f"unsound: {report.underestimates} of {report.pairs_checked} pairs underestimated"
        )
    if bound is not None and not report.max_stretch <= bound * (1 + 1e-9):
        problems.append(f"stretch {report.max_stretch:.4f} above factor bound {bound:.4f}")
    return problems, float(report.max_stretch)


def direct_answers(
    oracle: DistanceOracle, kinds: np.ndarray, a: np.ndarray, b: np.ndarray
) -> List[Any]:
    """What a direct ``DistanceOracle`` call answers for each request."""
    out: List[Any] = [None] * len(kinds)
    for kind in range(len(ENDPOINTS)):
        (rows,) = np.nonzero(kinds == kind)
        if not rows.size:
            continue
        if ENDPOINTS[kind] == "distance":
            values = [float(v) for v in oracle.query_many(a[rows], b[rows])]
        elif ENDPOINTS[kind] == "route":
            values = route_batch(oracle, a[rows], b[rows]).to_records()
        else:
            ids, dists = oracle.k_nearest(K_NEAREST, sources=a[rows])
            values = [
                {"ids": [int(v) for v in i], "dists": [float(d) for d in ds]}
                for i, ds in zip(ids, dists)
            ]
        for row, value in zip(rows, values):
            out[row] = value
    return out


def cross_check(
    oracle: DistanceOracle, ops: "Ops", answers: List[Any], rng: np.random.Generator,
    sample: int = 256,
) -> int:
    """Served answers (a sample) that differ from a direct oracle call."""
    served = [i for i, ans in enumerate(answers) if ans is not FAILED]
    if not served:
        return 0
    picked = np.sort(rng.choice(served, size=min(sample, len(served)), replace=False))
    expected = direct_answers(oracle, ops.kinds[picked], ops.a[picked], ops.b[picked])
    return sum(1 for i, want in zip(picked, expected) if answers[i] != want)


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #


@dataclass
class Setup:
    graph: WeightedGraph
    exact: np.ndarray
    solver: ApspSolver
    result: Any
    service: OracleService
    handle: str
    setup_s: float


def set_up(workload: Workload, graph_spec: GraphSpec, seed: int) -> Setup:
    """One set-up: graph, exact reference, warm-up solve and oracle warm."""
    start = time.perf_counter()
    graph = make_graph(graph_spec, seed)
    DEFAULT_ORACLE.clear()  # every set-up pays for its own reference
    exact = cached_exact_apsp(graph)
    config = SolverConfig(variant=workload.variant, seed=solver_seed(workload, seed))
    solver = ApspSolver(config)
    result, _ = timed_solve(solver, graph)
    service = OracleService(ServiceConfig(max_workers=1))
    handle = service.warm(graph, workload.variant, config.seed, result=result)
    return Setup(graph, exact, solver, result, service, handle,
                 time.perf_counter() - start)


def timed_solve(solver: ApspSolver, graph: WeightedGraph,
                tracer: Optional[Tracer] = None, index: int = 0) -> Tuple[Any, float]:
    """One ``solve`` and its wall seconds, under a ``solve`` root when traced."""
    with _root(tracer, "solve", index=index):
        start = time.perf_counter()
        result = solver.solve(graph)
        elapsed = time.perf_counter() - start
    return result, elapsed


def _root(tracer: Optional[Tracer], name: str, **attrs: Any) -> Any:
    return tracer.root(name, **attrs) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------- #
# Serving
# ---------------------------------------------------------------------- #


@dataclass
class Ops:
    kinds: np.ndarray
    a: np.ndarray
    b: np.ndarray


def make_ops(workload: Workload, seed: int, phase: str, n: int, count: int) -> Ops:
    rng = np.random.default_rng(digest_seed("queries", workload.name, seed, phase))
    kinds = rng.choice(len(ENDPOINTS), size=count, p=MIX)
    return Ops(kinds, rng.integers(0, n, count), rng.integers(0, n, count))


def serve_window(service: OracleService, handle: str, ops: Ops, rate: float,
          tracer: Optional[Tracer], root: str) -> PhaseResult:
    """One open-loop window against ``service`` (its own event loop)."""
    kinds = ops.kinds.tolist()
    a = ops.a.tolist()
    b = ops.b.tolist()

    def issue(i: int) -> Any:
        if kinds[i] == 0:
            return service.distance(handle, a[i], b[i])
        if kinds[i] == 1:
            return service.route(handle, a[i], b[i])
        return service.k_nearest(handle, a[i], K_NEAREST)

    on_done: Optional[Callable[[int, float, float], None]] = None
    if tracer is not None:
        def on_done(i: int, due: float, done: float) -> None:
            tracer.record("request." + ENDPOINTS[kinds[i]], due, done, request=i)

    with _root(tracer, root, rate=rate):
        return asyncio.run(open_loop(issue, len(kinds), rate, on_done))


def _window_plan(seconds: float) -> List[Tuple[int, int]]:
    """``(rate, requests)`` of each fixed-rate window, the two rates alternating."""
    counts = {}
    for rate, share in zip(FIXED_RATES, FIXED_SHARES):
        requests = rate * seconds * share
        counts[rate] = (max(1, round(requests / WINDOW_REQUESTS)),
                        int(min(WINDOW_REQUESTS, max(8, requests))))
    plan: List[Tuple[int, int]] = []
    slots = max(n for n, _ in counts.values())
    for slot in range(slots):
        for rate, (n, requests) in counts.items():
            # Spread each rate's windows evenly over the slots.
            if n * (slot + 1) // slots > n * slot // slots:
                plan.append((rate, requests))
    return plan


class Ladder:
    """The maximum-rate search over offered rates.

    A probe holds when its p99 stays within :data:`P99_LIMIT_S`.  Latency
    runs from each request's due time, so completions that fall behind the
    offered rate (a growing backlog, or a generator that cannot keep up)
    push p99 past the limit too.  The search climbs by
    :data:`LADDER` until a rate misses, then bisects (geometrically)
    :data:`BISECTIONS` times between the highest rate that held and the
    lowest that missed.  A rate counts as missed only after
    :data:`PROBE_ATTEMPTS` probes of it missed, so a host stall during
    one probe does not end the search.
    """

    def __init__(self) -> None:
        self.held = float(FIXED_RATES[-1])
        self.missed = math.inf
        self.rate = self.held * LADDER
        self.probes: List[Tuple[float, float, bool]] = []  # (rate, p99 s, held)
        self.attempts = 0
        self.bisections = 0
        self.done = False

    def record(self, p99: float) -> None:
        held = p99 <= P99_LIMIT_S
        self.probes.append((self.rate, p99, held))
        self.attempts += 1
        if held:
            self.held = self.rate
        elif self.attempts < PROBE_ATTEMPTS:
            return  # probe the same rate again
        else:
            self.missed = self.rate
        self.attempts = 0
        if math.isinf(self.missed):
            self.rate = self.held * LADDER
        elif self.bisections < BISECTIONS:
            self.bisections += 1
            self.rate = math.sqrt(self.held * self.missed)
        else:
            self.done = True
        self.done = self.done or len(self.probes) >= MAX_PROBES

    @property
    def max_rate(self) -> float:
        """The highest offered rate that held (the last fixed rate if none did)."""
        return self.held


def _batcher_counters(service: OracleService) -> Dict[str, Dict[str, float]]:
    """Cumulative batcher counters per endpoint, from ``service.snapshot()``.

    A counter the batcher no longer keeps reads 0.
    """
    out: Dict[str, Dict[str, float]] = {}
    for key, stats in service.snapshot().get("batchers", {}).items():
        endpoint = key.split("/")[1]
        out[endpoint] = {k: float(stats.get(k) or 0) for k in
                         ("flushes", "size_flushes", "deadline_flushes", "completed")}
    return out


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #


@dataclass
class SolveRecord:
    """What a run keeps of one warm solve (the estimate itself is dropped)."""

    seconds: float
    traced: bool
    graph: int  # index into the run's graphs
    rounds: int
    stretch: float
    rounds_by_phase: Dict[str, int]
    seconds_by_phase: Dict[str, float]
    unattributed_s: float


@dataclass
class RunOutcome:
    workload: Workload
    setups: List[float]
    solves: List[SolveRecord]
    windows: Dict[int, List[PhaseResult]]  # fixed rate -> its windows, in run order
    ladder: Ladder
    batchers_r500: Dict[str, Dict[str, float]]  # endpoint -> counters over the r500 windows
    store: Dict[str, Any]
    max_batch: Optional[int]  # None once the service has no batch-size setting
    attempted: int
    failed: int
    problems: List[str]
    service_config: Dict[str, Any]
    auto_kernel: str

    def median_quantile(self, rate: int, q: float) -> float:
        """Median over the rate's windows of each window's ``q`` latency quantile."""
        return statistics.median(w.quantile(q) for w in self.windows[rate])


class _Run:
    """The state of one run while its set-ups, solves and serving proceed."""

    def __init__(self, workload: Workload, seed: int, tracer: Optional[Tracer]) -> None:
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.setups: List[Setup] = []
        self.graphs: List[Tuple[WeightedGraph, np.ndarray]] = []  # with exact references
        self.solves: List[SolveRecord] = []
        self.windows: Dict[int, List[PhaseResult]] = {rate: [] for rate in FIXED_RATES}
        self.ladder = Ladder()
        self.batchers: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.check_rng = np.random.default_rng(digest_seed("check", workload.name, seed))

    def check(self, result: Any, exact: np.ndarray) -> float:
        """Check one solve; returns its max stretch."""
        self.attempted += 1
        bound = get_variant(self.workload.variant).bound(
            result.n, **self.setups[-1].solver.config.params())
        found, stretch = check_solve(exact, result.estimate, bound)
        if found:
            self.failed += 1
            self.problems.extend(found)
        return stretch

    def solve(self) -> bool:
        """One solve-loop sample, on the next graph of :attr:`graphs`.

        Returns False, having counted the failure, if the solve raised.
        """
        index = len(self.solves)
        # In a traced run each graph is solved twice in a row, untraced and
        # then traced, so the tracing overhead is measured within the run
        # on the same graphs.
        tracer = self.tracer if index % 2 == 1 else None
        if self.tracer is not None:
            index //= 2
        graph_index = index % len(self.graphs)
        graph, exact = self.graphs[graph_index]
        try:
            result, elapsed = timed_solve(self.setups[-1].solver, graph, tracer,
                                          len(self.solves))
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"solve raised {exc!r}")
            return False
        stretch = self.check(result, exact)
        summary = result.summary()
        self.solves.append(SolveRecord(
            elapsed, tracer is not None, graph_index, int(result.total_rounds), stretch,
            summary["rounds_by_phase"] or {}, summary["seconds_by_phase"] or {},
            result.wall_time_s - result.ledger.timed_seconds))
        return True

    def serve(self, rate: float, requests: int, root: str, sample: int) -> PhaseResult:
        """One open-loop window at ``rate``, its answers cross-checked."""
        setup = self.setups[-1]
        gc.collect()
        ops = make_ops(self.workload, self.seed, f"{root}:{self.attempted}",
                       setup.graph.n, requests)
        window = serve_window(setup.service, setup.handle, ops, rate, self.tracer, root)
        self.attempted += window.requests
        oracle = setup.service.oracle(setup.handle)
        mismatches = cross_check(oracle, ops, window.answers, self.check_rng, sample)
        self.failed += window.errors + mismatches
        if window.errors or mismatches:
            self.problems.append(
                f"{root}: {window.errors} requests failed, {mismatches} answers differ")
        return window

    def window(self, rate: int, requests: int) -> None:
        service = self.setups[-1].service
        before = _batcher_counters(service)
        window = self.serve(rate, requests, f"serve.r{rate}", 64)
        self.windows[rate].append(window)
        if rate == FIXED_RATES[0]:
            for endpoint, counts in _batcher_counters(service).items():
                total = self.batchers.setdefault(endpoint, {})
                for key, value in counts.items():
                    total[key] = (total.get(key, 0) + value
                                  - before.get(endpoint, {}).get(key, 0))

    def probe(self, seconds: float) -> None:
        rate = self.ladder.rate
        probe = self.serve(rate, max(8, int(rate * seconds)), "serve.max-rate", 64)
        self.ladder.record(probe.quantile(0.99))


def run(workload: Workload, seed: int, seconds: float, tracer: Optional[Tracer],
        tiny: bool = False) -> RunOutcome:
    """Set up, then solve and serve for ``seconds``; returns the checked record.

    Set-up solves are checked but are not ``solve_s`` samples: the solve
    loop's are, over :data:`SOLVE_GRAPHS` graphs of the family.  Serving
    follows the solve loop rather than interleaving with it: requests
    served within seconds of a solve measured slower on a 2-vCPU VM.
    """
    graph_spec = GraphSpec(TINY_N, 8.0, workload.graph.weights) if tiny else workload.graph
    state = _Run(workload, seed, tracer)
    for _ in range(SETUPS):
        if state.setups:
            state.setups[-1].service.close()
        setup = set_up(workload, graph_spec, seed)
        state.setups.append(setup)
        state.check(setup.result, setup.exact)
        setup.result = None
    state.graphs = [(setup.graph, setup.exact)] + [
        (graph, cached_exact_apsp(graph))
        for graph in (make_graph(graph_spec, seed, i) for i in range(1, SOLVE_GRAPHS))
    ]
    gc.collect()
    gc.freeze()

    budget = seconds * SOLVE_SHARE
    start = time.perf_counter()
    # At least two samples, so a traced run has an untraced one.
    while len(state.solves) < 2 or (
        time.perf_counter() - start + state.solves[-1].seconds <= budget
    ):
        if not state.solve():
            break
    serve_s = max(seconds - (time.perf_counter() - start), seconds * (1 - SOLVE_SHARE) / 2)
    gc.collect()
    gc.freeze()
    for rate, requests in _window_plan(serve_s):
        state.window(rate, requests)
    while not state.ladder.done:
        state.probe(serve_s * PROBE_SHARE)

    snapshot = setup.service.snapshot()
    setup.service.close()
    gc.unfreeze()
    return RunOutcome(
        workload=workload,
        setups=[s.setup_s for s in state.setups],
        solves=state.solves,
        windows=state.windows,
        ladder=state.ladder,
        batchers_r500=state.batchers,
        store=snapshot.get("tenants", {}).get("default", {}),
        max_batch=snapshot.get("config", {}).get("max_batch"),
        attempted=state.attempted,
        failed=state.failed,
        problems=state.problems,
        service_config=setup.service.config.to_dict(),
        auto_kernel=auto_kernel(setup.graph),
    )


def auto_kernel(graph: WeightedGraph) -> str:
    """The min-plus kernel auto-selection picks for the graph's weight matrix."""
    try:
        kernels = importlib.import_module("repro.semiring.kernels")
    except ImportError:
        return "unknown"
    resolve = getattr(kernels, "resolve_kernel", None)
    matrix = graph.matrix()
    return resolve(matrix, matrix) if resolve is not None else "unknown"


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #

#: End-to-end metrics of the result line, each with a regression bound in
#: BENCHMARK.json: name -> unit.
#: The p99 latencies and the maximum rate are printed too but not bounded:
#: on a 2-vCPU VM their spread across runs was too wide for any usable
#: bound (see CHANGES.md); traced runs report them as per-layer metrics
#: of ``repro.serve``.
END_TO_END = {
    "solve_s": "s",
    "rounds": "rounds",
    "max_stretch": "ratio",
    "lat_p50_ms.r500": "ms",
    "lat_p50_ms.r2000": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome: RunOutcome, peak_rss_mb: float) -> Dict[str, Tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for every end-to-end metric,
    the unbounded p99 latencies and maximum rate included.

    In a traced run only the untraced solves count toward ``solve_s``.
    """
    untraced = [s.seconds for s in outcome.solves if not s.traced]
    out: Dict[str, Tuple[float, str, int]] = {
        "solve_s": (statistics.median(untraced), "s", len(untraced)),
        "rounds": (float(statistics.median(s.rounds for s in outcome.solves)), "rounds",
                   len(outcome.solves)),
        "max_stretch": (max(s.stretch for s in outcome.solves), "ratio", len(outcome.solves)),
    }
    for rate, windows in outcome.windows.items():
        requests = sum(w.requests for w in windows)
        for q in (50, 99):
            out[f"lat_p{q}_ms.r{rate}"] = (
                outcome.median_quantile(rate, q / 100) * 1e3, "ms", requests)
    out["max_rate_rps"] = (outcome.ladder.max_rate, "1/s", len(outcome.ladder.probes))
    out["setup_s"] = (statistics.median(outcome.setups), "s", len(outcome.setups))
    out["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    return out


def generator_late(outcome: RunOutcome) -> Tuple[float, float]:
    """p99 and max generator lateness (s) over the fixed-rate phases."""
    late = sorted(x for windows in outcome.windows.values() for w in windows
                  for x in w.late)
    return quantile(late, 0.99), late[-1]
