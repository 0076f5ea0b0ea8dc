"""AST-based project linter: repo invariants ruff cannot express.

Exposed as ``visapult lint``. The rules encode how this codebase keeps
its simulation honest:

``VIS101`` (wall-clock in sim code)
    Sim-only packages must tell time with ``env.now``; any ``time``
    module usage there (``time.time``, ``time.sleep``, ...) would leak
    wall-clock into simulated results.
``VIS102`` (threading in sim code)
    Concurrency in sim-only packages is sim processes; real
    ``threading`` belongs to :mod:`repro.live` (and the NetLogger
    collector it logs through).
``VIS103`` (process without yield)
    Every function handed to ``env.process(...)`` must be a generator
    (contain ``yield``) -- a plain function silently becomes a
    zero-duration process.
``VIS104`` (undeclared event name)
    NetLogger event names must come from the declared vocabulary in
    :mod:`repro.netlogger.events` (the ``BE_*``/``V_*``/``DPSS_*``/
    ``SAN_*``/... tags); and every tag declared on a ``Tags`` class
    must carry one of the known prefixes.
``VIS105`` (bare except)
    ``except:`` swallows ``KeyboardInterrupt`` and kernel-level
    simulation errors alike; name the exception.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.staticbase import (
    CheckFinding,
    FunctionNode,
    ParsedModule,
    default_target,
    run_rules,
)
from repro.netlogger.events import TAG_PREFIXES, declared_tags

__all__ = [
    "SIM_ONLY_PACKAGES",
    "default_target",
    "lint_source",
    "rules",
    "run_lint",
]

#: packages (path components under ``repro/``) that run in simulated
#: time only and must not touch wall clocks or real threads
SIM_ONLY_PACKAGES = (
    "simcore", "netsim", "dpss", "backend", "viewer", "faults", "service"
)

#: ``time``-module attributes that read or burn wall-clock
WALL_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "sleep",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
    }
)


def _is_sim_only(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and parts[i + 1] in SIM_ONLY_PACKAGES:
            return True
    return False


def _has_own_yield(module: ParsedModule, fn: ast.AST) -> bool:
    """True if the function body yields, ignoring nested functions."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in module.own_nodes(fn)
    )


# -- VIS101/VIS102: wall clocks and threads in sim-only code ------------
def _sim_only_findings(
    module: ParsedModule, node: ast.AST
) -> Iterator[CheckFinding]:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            clock, threads = "wall-clock module imported", "threading imported"
        else:
            names = [node.module or ""]
            clock, threads = "wall-clock import", "threading import"
        for name in names:
            root = name.split(".")[0]
            if root == "time":
                yield module.finding(
                    node,
                    "VIS101",
                    f"{clock} in sim-only code; use env.now / env.timeout",
                )
            elif root == "threading":
                yield module.finding(
                    node,
                    "VIS102",
                    f"{threads} in sim-only code; use sim processes "
                    "(repro.simcore)",
                )
    elif (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "time"
        and node.attr in WALL_CLOCK_ATTRS
    ):
        yield module.finding(
            node,
            "VIS101",
            f"time.{node.attr} in sim-only code; use env.now / "
            "env.timeout",
        )


# -- VIS104: the declared event vocabulary ------------------------------
def _tag_findings(
    module: ParsedModule, node: ast.AST, tags: FrozenSet[str]
) -> Iterator[CheckFinding]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "log"
        and node.args
    ):
        first = node.args[0]
        if (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value not in tags
        ):
            yield module.finding(
                first,
                "VIS104",
                f"event name {first.value!r} is not declared in "
                "repro.netlogger.events.Tags",
            )
    elif isinstance(node, ast.ClassDef) and node.name == "Tags":
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and not value.value.startswith(TAG_PREFIXES)
            ):
                yield module.finding(
                    stmt,
                    "VIS104",
                    f"declared tag {value.value!r} does not match the "
                    f"prefixes {'/'.join(TAG_PREFIXES)}",
                )


# -- VIS103: what ``env.process(f(...))`` actually launches -------------
def _process_target(
    node: ast.AST,
    cls: Optional[str],
    functions: Dict[str, FunctionNode],
    methods: Dict[Tuple[str, str], FunctionNode],
) -> Optional[FunctionNode]:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
        and node.args
        and isinstance(node.args[0], ast.Call)
    ):
        return None
    target = node.args[0].func
    if isinstance(target, ast.Name):
        return functions.get(target.id)
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        and cls is not None
    ):
        return methods.get((cls, target.attr))
    return None


def rules(module: ParsedModule) -> List[CheckFinding]:
    """Every VIS1xx finding of one module."""
    sim_only = _is_sim_only(module.path)
    tags = declared_tags()
    # A bare name resolves among the defs outside every class, a
    # ``self.m`` among the defs of the innermost class around the call;
    # the last definition wins.
    functions: Dict[str, FunctionNode] = {}
    methods: Dict[Tuple[str, str], FunctionNode] = {}
    scopes: List[Tuple[ast.AST, Optional[str]]] = [(module.tree, None)]
    for record in module.functions:
        cls = record.classes[-1].name if record.classes else None
        if cls is None:
            functions[record.node.name] = record.node
        else:
            methods[(cls, record.node.name)] = record.node
        scopes.append((record.node, cls))
    findings: List[CheckFinding] = []
    for scope, cls in scopes:
        for node in module.own_nodes(scope):
            if sim_only:
                findings.extend(_sim_only_findings(module, node))
            findings.extend(_tag_findings(module, node, tags))
            fn = _process_target(node, cls, functions, methods)
            if fn is not None and not _has_own_yield(module, fn):
                findings.append(
                    module.finding(
                        node,
                        "VIS103",
                        f"{fn.name}() is launched as a sim process but "
                        "contains no yield; it would run as a "
                        "zero-duration process",
                    )
                )
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                findings.append(
                    module.finding(
                        node,
                        "VIS105",
                        "bare except catches KeyboardInterrupt and "
                        "kernel errors; name the exception",
                    )
                )
    return findings


def run_lint(paths: Optional[Sequence[str]] = None) -> List[CheckFinding]:
    """Lint ``paths`` (files or directories); defaults to the package."""
    return run_rules(paths, [rules], syntax_code="VIS100")[0]


def lint_source(source: str, path: str) -> List[CheckFinding]:
    """Lint one module's source text."""
    return run_rules([path], [rules], syntax_code="VIS100", source=source)[0]

