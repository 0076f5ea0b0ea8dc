"""AST-based project linter: repo invariants ruff cannot express.

Exposed as ``visapult lint``. The rules encode how this codebase keeps
its simulation honest:

``VIS101`` (wall-clock in sim code)
    Sim-only packages must tell time with ``env.now``; any ``time``
    module usage there (``time.time``, ``time.sleep``, ...) would leak
    wall-clock into simulated results.
``VIS102`` (threading in sim code)
    Concurrency in sim-only packages is sim processes; real
    ``threading`` belongs to :mod:`repro.live` only.
``VIS103`` (process without yield)
    Every function handed to ``env.process(...)`` must be a generator
    (contain ``yield``) -- a plain function silently becomes a
    zero-duration process.
``VIS104`` (undeclared event name)
    NetLogger event names must come from the declared vocabulary in
    :mod:`repro.netlogger.events` (the ``BE_*``/``V_*``/``DPSS_*``/
    ``PIPE_*``/``SAN_*`` tags); and every tag declared on a ``Tags``
    class must carry one of the known prefixes.
``VIS105`` (bare except)
    ``except:`` swallows ``KeyboardInterrupt`` and kernel-level
    simulation errors alike; name the exception.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.staticbase import (
    CheckFinding,
    default_target,
    iter_python_files,
)
from repro.netlogger.events import TAG_PREFIXES, declared_tags

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


def _has_own_yield(fn: ast.AST) -> bool:
    """True if the function body yields, ignoring nested functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        todo.extend(ast.iter_child_nodes(node))
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, tags: frozenset):
        self.path = path
        self.sim_only = _is_sim_only(path)
        self.tags = tags
        self.findings: List[CheckFinding] = []
        #: module-level functions and (class, method) definitions, for
        #: resolving what ``env.process(f(...))`` actually launches
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.methods: Dict[Tuple[str, str], ast.FunctionDef] = {}
        self._class_stack: List[str] = []
        self._deferred_calls: List[Tuple[ast.Call, Optional[str]]] = []

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            CheckFinding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # -- VIS101/VIS102: imports ---------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        if self.sim_only:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "time":
                    self._add(
                        node,
                        "VIS101",
                        "wall-clock module imported in sim-only code; "
                        "use env.now / env.timeout",
                    )
                elif root == "threading":
                    self._add(
                        node,
                        "VIS102",
                        "threading imported in sim-only code; use sim "
                        "processes (repro.simcore)",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.sim_only and node.module is not None:
            root = node.module.split(".")[0]
            if root == "time":
                self._add(
                    node,
                    "VIS101",
                    "wall-clock import in sim-only code; use env.now / "
                    "env.timeout",
                )
            elif root == "threading":
                self._add(
                    node,
                    "VIS102",
                    "threading import in sim-only code; use sim "
                    "processes (repro.simcore)",
                )
        self.generic_visit(node)

    # -- VIS101: attribute use ----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.sim_only
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in WALL_CLOCK_ATTRS
        ):
            self._add(
                node,
                "VIS101",
                f"time.{node.attr} in sim-only code; use env.now / "
                "env.timeout",
            )
        self.generic_visit(node)

    # -- function/class bookkeeping -----------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name == "Tags":
            self._check_tags_class(node)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._class_stack:
            self.methods[(self._class_stack[-1], node.name)] = node
        else:
            self.functions[node.name] = node
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- VIS103/VIS104: calls -----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "process" and node.args:
                cls = self._class_stack[-1] if self._class_stack else None
                self._deferred_calls.append((node, cls))
            elif func.attr == "log" and node.args:
                self._check_log_call(node)
        self.generic_visit(node)

    def _check_log_call(self, node: ast.Call) -> None:
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if first.value not in self.tags:
                self._add(
                    first,
                    "VIS104",
                    f"event name {first.value!r} is not declared in "
                    "repro.netlogger.events.Tags",
                )

    def _check_tags_class(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                continue
            if not value.value.startswith(TAG_PREFIXES):
                self._add(
                    stmt,
                    "VIS104",
                    f"declared tag {value.value!r} does not match the "
                    f"prefixes {'/'.join(TAG_PREFIXES)}",
                )

    def _resolve_process_target(
        self, call: ast.Call, cls: Optional[str]
    ) -> Optional[ast.FunctionDef]:
        arg = call.args[0]
        if not isinstance(arg, ast.Call):
            return None
        target = arg.func
        if isinstance(target, ast.Name):
            return self.functions.get(target.id)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and cls is not None
        ):
            return self.methods.get((cls, target.attr))
        return None

    def check_deferred(self) -> None:
        """Run the after-the-whole-module-is-indexed checks (VIS103)."""
        for call, cls in self._deferred_calls:
            fn = self._resolve_process_target(call, cls)
            if fn is not None and not _has_own_yield(fn):
                self._add(
                    call,
                    "VIS103",
                    f"{fn.name}() is launched as a sim process but "
                    "contains no yield; it would run as a zero-duration "
                    "process",
                )

    # -- VIS105: bare except ------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                node,
                "VIS105",
                "bare except catches KeyboardInterrupt and kernel "
                "errors; name the exception",
            )
        self.generic_visit(node)


def lint_source(source: str, path: str) -> List[CheckFinding]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            CheckFinding(
                path=path,
                line=exc.lineno or 0,
                col=(exc.offset or 0),
                code="VIS100",
                message=f"syntax error: {exc.msg}",
            )
        ]
    visitor = _Visitor(path, declared_tags())
    visitor.visit(tree)
    visitor.check_deferred()
    return visitor.findings


def lint_file(path: str) -> List[CheckFinding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def run_lint(paths: Optional[Sequence[str]] = None) -> List[CheckFinding]:
    """Lint ``paths`` (files or directories); defaults to the package."""
    if not paths:
        paths = [default_target()]
    findings: List[CheckFinding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: print findings, exit 1 if any."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="visapult lint",
        description="project-invariant linter (VIS1xx rules)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    opts = parser.parse_args(argv)
    findings = run_lint(opts.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0
