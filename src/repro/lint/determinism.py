"""Determinism rules: every random draw seeded, no ambient wall clocks.

The bit-identity guarantees this repo advertises — same seed, same
spanner, same fault trace, same estimate across executors — hold only
if *every* source of nondeterminism is threaded explicitly:

* ``det-unseeded-rng`` — ``np.random.default_rng()`` (or a bare
  ``default_rng()``) with no seed mints a fresh OS-entropy generator;
  results become unreproducible.  Pass a seed or an existing generator.
* ``det-global-random-state`` — the legacy ``np.random.*`` module-level
  state (``np.random.seed``/``rand``/``randint``/``shuffle``/...) is
  process-global: any consumer can reseed it under you, and worker
  processes fork divergent copies.  Use ``default_rng(seed)`` streams.
* ``det-stdlib-random`` — same hazard for the stdlib ``random`` module
  functions and for unseeded ``random.Random()`` instances.
* ``det-wallclock`` — wall-clock reads (``time.time``,
  ``time.perf_counter``, ``datetime.now`` ...) inside *algorithm*
  modules make behaviour time-dependent.  Measurement belongs to the
  ledger/serving layers; the few legitimate algorithm-layer sites (the
  ``RoundLedger`` phase profiler) carry ``# lint: allow[det-wallclock]``
  pragmas.
* ``det-builtin-hash`` — the builtin ``hash()`` of a ``str``/``bytes`` is
  salted per process (``PYTHONHASHSEED``), so a seed or key derived from
  it changes from run to run.  Use a stable digest (``zlib.crc32``,
  ``hashlib``).  Calls inside a ``__hash__`` method, whose value never
  leaves the process, are fine.
"""

from __future__ import annotations

import ast
from typing import List

from .framework import (
    Finding,
    LintContext,
    call_name,
    enclosing_function,
    register_rule,
)

#: np.random attributes that are deterministic constructors, not global
#: state: explicitly seeded generators and the seeding primitives.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "Philox",
    "BitGenerator",
}

#: stdlib ``random`` module-level functions that draw from (or mutate)
#: the process-global Mersenne Twister.
_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "seed", "getrandbits", "randbytes",
}

#: Wall-clock entry points; behaviour depending on any of these inside
#: an algorithm module breaks replay determinism.
_WALLCLOCK_FNS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.today",
    "datetime.datetime.today",
}

#: Algorithm modules — where wall clocks are forbidden.  The serving
#: tier, the facade, and the CLI measure latency legitimately.
_ALGO_INCLUDE = (
    "src/repro/core", "src/repro/graphs", "src/repro/semiring",
    "src/repro/spanners", "src/repro/mst", "src/repro/protocols",
    "src/repro/cclique", "src/repro/chaos",
)

_EVERYWHERE = ("src/repro", "benchmarks", "tests", "examples")


@register_rule(
    "det-unseeded-rng",
    family="determinism",
    summary="np.random.default_rng() must be seeded (or handed a generator)",
    include=_EVERYWHERE,
)
def check_unseeded_rng(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None or not (
            name == "default_rng" or name.endswith(".default_rng")
        ):
            continue
        if node.args or node.keywords:
            continue
        finding = ctx.finding(
            node,
            "det-unseeded-rng",
            "default_rng() without a seed mints an OS-entropy generator; "
            "pass a seed (or thread an existing rng) to keep runs "
            "reproducible",
        )
        if finding:
            findings.append(finding)
    return findings


@register_rule(
    "det-global-random-state",
    family="determinism",
    summary="legacy np.random.* global-state functions are banned",
    include=_EVERYWHERE,
)
def check_global_random_state(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        for root in ("np.random.", "numpy.random."):
            if name.startswith(root):
                attr = name[len(root):].split(".", 1)[0]
                if attr not in _NP_RANDOM_OK:
                    finding = ctx.finding(
                        node,
                        "det-global-random-state",
                        f"{name}() uses process-global RNG state; draw from "
                        "an explicitly seeded np.random.default_rng(seed) "
                        "stream instead",
                    )
                    if finding:
                        findings.append(finding)
                break
    return findings


@register_rule(
    "det-stdlib-random",
    family="determinism",
    summary="stdlib random.* module functions / unseeded random.Random()",
    include=_EVERYWHERE,
)
def check_stdlib_random(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        message = None
        if name == "random.Random" and not (node.args or node.keywords):
            message = (
                "random.Random() without a seed is nondeterministic; "
                "pass a seed"
            )
        elif (
            name.startswith("random.")
            and name[len("random."):] in _STDLIB_RANDOM_FNS
        ):
            message = (
                f"{name}() draws from the process-global stdlib RNG; use a "
                "seeded random.Random(seed) or np.random.default_rng(seed)"
            )
        if message:
            finding = ctx.finding(node, "det-stdlib-random", message)
            if finding:
                findings.append(finding)
    return findings


@register_rule(
    "det-wallclock",
    family="determinism",
    summary="wall-clock reads are banned in algorithm modules",
    include=_ALGO_INCLUDE,
)
def check_wallclock(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name in _WALLCLOCK_FNS:
            finding = ctx.finding(
                node,
                "det-wallclock",
                f"{name}() makes algorithm behaviour time-dependent; "
                "measurement belongs to the ledger/serving layers "
                "(# lint: allow[det-wallclock] for reviewed profiling sites)",
            )
            if finding:
                findings.append(finding)
    return findings


@register_rule(
    "det-builtin-hash",
    family="determinism",
    summary="builtin hash() is salted per process; use a stable digest",
    include=_EVERYWHERE,
)
def check_builtin_hash(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if call_name(node) not in ("hash", "builtins.hash"):
            continue
        function = enclosing_function(ctx, node)
        if isinstance(function, ast.FunctionDef) and function.name == "__hash__":
            continue
        finding = ctx.finding(
            node,
            "det-builtin-hash",
            "hash() of a str/bytes is salted per process, so anything "
            "derived from it differs between runs; use zlib.crc32 or "
            "hashlib for seeds and persisted keys",
        )
        if finding:
            findings.append(finding)
    return findings
