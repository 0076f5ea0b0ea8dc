"""The static-analysis core shared by ``visapult lint`` and ``check``.

The VIS1xx linter (:mod:`~repro.analysis.lint`) and the VIS2xx dataflow
(:mod:`~repro.analysis.dataflow`) and typestate
(:mod:`~repro.analysis.typestate`) rule groups are functions of one
:class:`ParsedModule`; none of them opens a file, parses, resolves an
import or walks for ``def``s.  This module holds everything that is
not a rule:

- :class:`CheckFinding` -- one rule violation at a source location.
- :class:`ParsedModule` -- one source file parsed once, with the
  structural facts every rule reads: the import ``aliases`` and
  :meth:`~ParsedModule.dotted`, ``functions`` (one
  :class:`FunctionRecord` per ``def`` at any depth, in source order)
  and :meth:`~ParsedModule.finding`.
- :meth:`ParsedModule.own_nodes` -- a ``def``'s own nodes: nested
  ``def``s are included (they are statements of the outer body) but
  not entered
  (their bodies run in another frame, at another time).  Classes and
  lambdas *are* entered: a class body runs inline, and no rule here
  distinguishes a lambda's frame.
- :func:`run_rules` -- the one driver: file walk, parse, rules, the
  ``# vis: allow[VIS...]`` pragma filter, sort.  A pragma on a
  finding's line (or on a comment line immediately above it) marks the
  sink as *proven safe*; the reviewed reason travels with the code.
  It is the only suppression there is, and it applies to every VIS
  code under either command.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: packages under ``repro/`` whose results must be bitwise reproducible
#: run to run; the determinism rules report their sinks here.  ``live``
#: is exempt (real threads and wall clocks by design), as is the
#: analysis package itself (identity-keyed *runtime* bookkeeping).
DETERMINISM_EXEMPT_PACKAGES = ("live",)

_PRAGMA_RE = re.compile(r"#\s*vis:\s*allow\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class CheckFinding:
    """One VIS1xx/VIS2xx rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """The JSON-report form of this finding."""
        return {
            "path": normalize_path(self.path),
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def normalize_path(path: str) -> str:
    """Make ``path`` checkout-relative and POSIX-flavored.

    Findings must compare equal between CI (``src/repro/...``) and a
    local run against an installed tree, so anything up to and
    including the last ``repro`` package root is stripped.
    """
    norm = os.path.normpath(path).replace(os.sep, "/")
    parts = norm.split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return norm


def package_of(path: str) -> Optional[str]:
    """The sub-package under ``repro/`` a file lives in, if any."""
    parts = normalize_path(path).split("/")
    if len(parts) >= 3 and parts[0] == "repro":
        return parts[1]
    return None


def scan_allow_pragmas(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule codes allowlisted on that line.

    A pragma on a *comment-only* line also covers every following
    comment line and the first code line after them, so statements can
    carry a multi-line justification above them::

        # vis: allow[VIS202] identity dedup within one solve pass;
        # the seen-set is never iterated or logged.
        seen.add(id(sub))
    """
    lines = source.splitlines()
    allowed: Dict[int, set] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = {
            code.strip().upper()
            for code in match.group(1).split(",")
            if code.strip()
        }
        allowed.setdefault(lineno, set()).update(codes)
        if _COMMENT_ONLY_RE.match(text):
            cover = lineno + 1
            while cover <= len(lines) and _COMMENT_ONLY_RE.match(
                lines[cover - 1]
            ):
                allowed.setdefault(cover, set()).update(codes)
                cover += 1
            allowed.setdefault(cover, set()).update(codes)
    return {line: frozenset(codes) for line, codes in allowed.items()}


def _statements(node: ast.AST) -> Iterator[ast.stmt]:
    """The statements directly under ``node``, in source order.

    ``except`` handlers and ``match`` cases are not statements
    themselves; their bodies are opened in place.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            body = getattr(child, "body", None)
            if isinstance(body, list):
                yield from body


@dataclass(frozen=True, eq=False)
class FunctionRecord:
    """One ``def`` at any depth, and where it sits.

    The three views of "which class" the rule groups take are all read
    off this record: ``owner`` is the class whose body holds the
    ``def`` directly (``None`` for a ``def`` nested in a method),
    ``classes[-1]`` the innermost enclosing class at any depth and
    ``classes[0]`` the outermost.  A class restarts ``qualname``
    (``C.m``, never ``f.<locals>.C.m``).
    """

    node: FunctionNode
    qualname: str
    owner: Optional[ast.ClassDef]
    classes: Tuple[ast.ClassDef, ...]
    parent: Optional["FunctionRecord"]


@dataclass
class ParsedModule:
    """One source file, parsed once and indexed for every rule."""

    path: str
    source: str
    tree: ast.Module
    allow: Dict[int, FrozenSet[str]]
    #: local name -> canonical dotted module/name it was imported as
    aliases: Dict[str, str] = field(default_factory=dict)
    #: every ``def``, outer before inner, in source order
    functions: List[FunctionRecord] = field(default_factory=list)
    _own: Dict[ast.AST, Tuple[ast.AST, ...]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self._index(self.tree, None, (), None, "")

    def _index(
        self,
        node: ast.AST,
        owner: Optional[ast.ClassDef],
        classes: Tuple[ast.ClassDef, ...],
        parent: Optional[FunctionRecord],
        prefix: str,
    ) -> None:
        for stmt in _statements(node):
            if isinstance(stmt, _DEFS):
                record = FunctionRecord(
                    stmt, prefix + stmt.name, owner, classes, parent
                )
                self.functions.append(record)
                self._index(
                    stmt, None, classes, record,
                    f"{record.qualname}.<locals>.",
                )
            elif isinstance(stmt, ast.ClassDef):
                self._index(
                    stmt, stmt, classes + (stmt,), parent, f"{stmt.name}."
                )
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    # ``import a.b`` binds ``a`` to itself: no entry
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    self.aliases[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )
            else:
                self._index(stmt, owner, classes, parent, prefix)

    @property
    def package(self) -> Optional[str]:
        """The ``repro`` sub-package this module belongs to."""
        return package_of(self.path)

    @property
    def determinism_scoped(self) -> bool:
        """True when the determinism rules apply to this module."""
        return self.package not in DETERMINISM_EXEMPT_PACKAGES

    def is_allowed(self, code: str, line: int) -> bool:
        """True when ``code`` carries an allow pragma covering ``line``."""
        return code in self.allow.get(line, frozenset())

    def own_nodes(self, fn: ast.AST) -> Tuple[ast.AST, ...]:
        """``fn``'s own nodes in source order, ``fn`` itself excluded.

        A nested ``def`` is included but not entered: its body belongs
        to the nested function's own :class:`FunctionRecord`.  ``fn``
        may be the module, which gives the code outside every ``def``.
        Walked once per ``fn``, whichever rules ask.
        """
        own = self._own.get(fn)
        if own is None:
            found: List[ast.AST] = []
            todo = list(ast.iter_child_nodes(fn))[::-1]
            while todo:
                node = todo.pop()
                found.append(node)
                if not isinstance(node, _DEFS):
                    todo.extend(list(ast.iter_child_nodes(node))[::-1])
            own = self._own[fn] = tuple(found)
        return own

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a canonical dotted name."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(self.aliases.get(node.id, node.id))
            return ".".join(reversed(parts))
        return None

    def finding(self, node: ast.AST, code: str, message: str) -> CheckFinding:
        """A finding of rule ``code`` located at ``node``."""
        return CheckFinding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


def parse_module(path: str, source: Optional[str] = None) -> ParsedModule:
    """Read (if needed), parse and index one module.

    Raises :class:`SyntaxError` on unparsable source; the driver turns
    that into its ``syntax_code`` finding.
    """
    if source is None:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    tree = ast.parse(source, filename=path)
    return ParsedModule(
        path=path,
        source=source,
        tree=tree,
        allow=scan_allow_pragmas(source),
    )


def default_target() -> str:
    """The package source tree: what is examined when no path is given."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        else:
            files.append(path)
    return files


#: a rule group over one module / over the whole checked tree
Rule = Callable[[ParsedModule], List[CheckFinding]]
TreeRule = Callable[[Sequence[ParsedModule]], List[CheckFinding]]


def run_rules(
    paths: Optional[Sequence[str]],
    rules: Sequence[Rule],
    tree_rules: Sequence[TreeRule] = (),
    *,
    syntax_code: str,
    source: Optional[str] = None,
) -> Tuple[List[CheckFinding], int, int]:
    """Walk ``paths``, parse each file once, run the rules, filter, sort.

    ``paths`` defaults to the installed ``repro`` package; ``source``
    is the text of the one path given, for a caller that already holds
    it.  Returns (findings, pragma-allowlisted count, files examined).
    A file that does not parse becomes a ``syntax_code`` finding
    rather than a crash -- a tree that does not parse must fail the
    gate, not the tool.
    """
    files = iter_python_files(paths or [default_target()])
    findings: List[CheckFinding] = []
    raw: List[CheckFinding] = []
    modules: Dict[str, ParsedModule] = {}
    for path in files:
        try:
            module = parse_module(path, source)
        except SyntaxError as exc:
            findings.append(
                CheckFinding(
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    code=syntax_code,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        modules[path] = module
        for rule in rules:
            raw.extend(rule(module))
    for tree_rule in tree_rules:
        raw.extend(tree_rule(list(modules.values())))
    allowed = 0
    for finding in raw:
        if modules[finding.path].is_allowed(finding.code, finding.line):
            allowed += 1
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return findings, allowed, len(files)
