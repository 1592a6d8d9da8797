"""Registry-contract rules: catalogue metadata and benchmark artifacts.

The registries are the repo's API surface — the CLI, the experiment
runner, and the benchmark fixtures all enumerate them — so incomplete
metadata is a user-visible hole, not a style nit:

* ``reg-variant-metadata`` — every ``@register_variant`` must carry a
  literal name plus non-empty ``display_name``/``summary``/
  ``factor_formula``/``rounds_note``; every ``@register_scenario``
  non-empty ``summary``/``faults``/``recovery``.  (Empty strings render
  as blank cells in ``repro run --help`` tables and the frontier
  output.)
* ``reg-bench-tag`` — a benchmark module that writes a ``BENCH_*.json``
  artifact (a literal name, or ``bench_json_path("<plane>")``) must
  stamp an ``experiment`` tag, and the (artifact, tag) pair must be
  validated by ``benchmarks/run_smoke.py``'s ``SUITES`` table — otherwise
  CI silently stops checking that plane.  The SUITES table is parsed
  from the runner's AST at lint time, so the two can never drift apart;
  its ``BENCH_<plane>.smoke.json`` entries stand for the plane's
  ``BENCH_<plane>.json``.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, List, Optional, Set, Tuple

from .framework import Finding, LintContext, call_name, register_rule

#: register_variant keywords that must be present, non-empty literals.
_VARIANT_REQUIRED = ("display_name", "summary", "factor_formula", "rounds_note")

#: register_scenario keywords that must be present, non-empty literals.
_SCENARIO_REQUIRED = ("summary", "faults", "recovery")

_BENCH_ARTIFACT = re.compile(r"^BENCH_\w+\.json$")
_EXPERIMENT_TAG = re.compile(r"^E\d+-[\w-]+$")


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _check_decorator_call(
    ctx: LintContext,
    node: ast.Call,
    registrar: str,
    required: Tuple[str, ...],
) -> List[Finding]:
    findings: List[Finding] = []
    name = _literal_str(node.args[0]) if node.args else None
    if name is None:
        finding = ctx.finding(
            node,
            "reg-variant-metadata",
            f"{registrar}(...) must name its entry with a string literal "
            "(consumers enumerate the catalogue by name)",
        )
        if finding:
            findings.append(finding)
        name = "<dynamic>"
    present: Dict[str, Optional[str]] = {}
    for kw in node.keywords:
        if kw.arg is not None:
            present[kw.arg] = _literal_str(kw.value)
    for key in required:
        if key not in present:
            message = (
                f"{registrar}({name!r}) is missing metadata {key!r}; "
                "every catalogue entry must be fully described"
            )
        elif present[key] == "":
            message = (
                f"{registrar}({name!r}) declares empty {key!r}; it renders "
                "as a blank cell in every enumerating consumer"
            )
        else:
            continue
        finding = ctx.finding(node, "reg-variant-metadata", message)
        if finding:
            findings.append(finding)
    return findings


@register_rule(
    "reg-variant-metadata",
    family="registry",
    summary="register_variant/register_scenario metadata completeness",
    include=("src/repro",),
)
def check_registry_metadata(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        callee = call_name(node)
        if callee is None:
            continue
        base = callee.rsplit(".", 1)[-1]
        if base == "register_variant":
            findings.extend(
                _check_decorator_call(
                    ctx, node, "register_variant", _VARIANT_REQUIRED
                )
            )
        elif base == "register_scenario":
            findings.extend(
                _check_decorator_call(
                    ctx, node, "register_scenario", _SCENARIO_REQUIRED
                )
            )
    return findings


def _known_suites(root: str) -> Optional[Set[Tuple[str, str]]]:
    """(artifact, tag) pairs parsed from benchmarks/run_smoke.py's SUITES.

    ``None`` when the runner is absent/unparseable — the rule then only
    checks tag *presence*, not registration (fixture corpora have no
    runner to cross-reference).
    """
    path = os.path.join(root, "benchmarks", "run_smoke.py")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError):
        return None
    pairs: Set[Tuple[str, str]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if not any(
            isinstance(t, ast.Name) and t.id == "SUITES" for t in targets
        ):
            continue
        value = node.value
        if not isinstance(value, ast.List):
            continue
        for element in value.elts:
            if isinstance(element, ast.Tuple) and len(element.elts) >= 3:
                artifact = _literal_str(element.elts[1])
                tag = _literal_str(element.elts[2])
                if artifact and tag:
                    pairs.add((artifact.replace(".smoke.json", ".json"), tag))
    return pairs or None


@register_rule(
    "reg-bench-tag",
    family="registry",
    summary="BENCH_*.json emitters declare a run_smoke-validated tag",
    include=("benchmarks/",),
    exclude=("benchmarks/run_smoke.py", "benchmarks/conftest.py"),
)
def check_bench_tag(ctx: LintContext) -> List[Finding]:
    artifacts: List[Tuple[str, ast.expr]] = []
    tags: List[str] = []
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and (call_name(node) or "").rsplit(".", 1)[-1] == "bench_json_path"
            and node.args
        ):
            plane = _literal_str(node.args[0])
            if plane:
                artifacts.append((f"BENCH_{plane}.json", node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _BENCH_ARTIFACT.match(node.value):
                artifacts.append((node.value, node))
            elif _EXPERIMENT_TAG.match(node.value):
                tags.append(node.value)
    if not artifacts:
        return []
    findings: List[Finding] = []
    if not tags:
        first = artifacts[0][1]
        finding = ctx.finding(
            first,
            "reg-bench-tag",
            f"this module writes {artifacts[0][0]} but declares no "
            "experiment tag ('E<n>-<name>'); untagged artifacts cannot be "
            "validated by benchmarks/run_smoke.py",
        )
        if finding:
            findings.append(finding)
        return findings
    known = _known_suites(ctx.root)
    if known is None:
        return findings
    registered_artifacts = {artifact for artifact, _ in known}
    for artifact, node in artifacts:
        if artifact not in registered_artifacts:
            finding = ctx.finding(
                node,
                "reg-bench-tag",
                f"{artifact} is not validated by run_smoke.py's SUITES "
                "table; register it (artifact, tag, gate) so CI checks it",
            )
            if finding:
                findings.append(finding)
            continue
        if not any((artifact, tag) in known for tag in tags):
            finding = ctx.finding(
                node,
                "reg-bench-tag",
                f"{artifact}'s experiment tag does not match run_smoke.py's "
                f"SUITES entry (declared here: {', '.join(sorted(set(tags)))})",
            )
            if finding:
                findings.append(finding)
    return findings
