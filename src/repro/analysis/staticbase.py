"""Shared plumbing for the static analyzers (``visapult lint`` / ``check``).

The VIS1xx linter (:mod:`~repro.analysis.lint`) and the VIS2xx dataflow
(:mod:`~repro.analysis.dataflow`) and typestate
(:mod:`~repro.analysis.typestate`) passes all reduce to
:class:`CheckFinding` records over source files.  This module holds
the pieces they share:

- :class:`CheckFinding` -- one rule violation at a source location,
  with a location-tolerant :attr:`~CheckFinding.fingerprint` used for
  baseline matching.
- :func:`iter_python_files` / :func:`default_target` -- the one file
  walker and the one default thing to examine.
- :class:`ParsedModule` -- a parsed source file plus its allowlist
  pragmas, handed to every pass so each file is read and parsed once.
- the ``# vis: allow[VIS2xx]`` pragma scanner.  A pragma on a finding's
  line (or on a comment line immediately above it) marks the sink as
  *proven safe* and suppresses the finding at the source; the reviewed
  reason travels with the code.  This is distinct from the baseline
  file, which merely *grandfathers* findings nobody has proven safe
  yet (see :mod:`~repro.analysis.check`).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

#: packages under ``repro/`` whose results must be bitwise reproducible
#: run to run; the determinism rules report their sinks here.  ``live``
#: is exempt (real threads and wall clocks by design), as is the
#: analysis package itself (identity-keyed *runtime* bookkeeping).
DETERMINISM_EXEMPT_PACKAGES = ("live",)

_PRAGMA_RE = re.compile(r"#\s*vis:\s*allow\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")


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

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-insensitive identity used for baseline matching.

        Keyed on (normalized path, code, message) so unrelated edits
        that shift line numbers do not churn the baseline.
        """
        return (normalize_path(self.path), self.code, self.message)

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


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every pass."""

    path: str
    source: str
    tree: ast.Module
    allow: Dict[int, FrozenSet[str]]

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


def parse_module(path: str, source: Optional[str] = None) -> ParsedModule:
    """Read (if needed) and parse one module.

    Raises :class:`SyntaxError` on unparsable source; the driver turns
    that into a ``VIS200`` finding.
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


def filter_findings(
    module: ParsedModule, findings: Sequence[CheckFinding]
) -> Tuple[List[CheckFinding], int]:
    """Drop pragma-allowlisted findings; returns (kept, allowed count)."""
    kept: List[CheckFinding] = []
    allowed = 0
    for finding in findings:
        if module.is_allowed(finding.code, finding.line):
            allowed += 1
        else:
            kept.append(finding)
    return kept, allowed
