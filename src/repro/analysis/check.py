"""The ``visapult check`` driver: VIS2xx analysis, baseline, reports.

Runs the determinism dataflow pass (:mod:`~repro.analysis.dataflow`)
and the protocol typestate pass (:mod:`~repro.analysis.typestate`)
over a source tree, subtracts the allowlist pragmas and the committed
findings baseline, and reports what is *new*.  The CI gate fails only
on new findings, so the analyzer can be adopted with a non-empty tree
and ratcheted down.

Suppression has two distinct levels, with different semantics:

- an ``# vis: allow[VIS2xx] reason`` pragma marks a sink *proven
  safe* by review; the justification lives next to the code and the
  finding is never reported.
- ``analysis/baseline.json`` *grandfathers* findings nobody has
  proven safe yet.  They still show up in the JSON/SARIF reports
  (flagged ``baselined``), the gate just does not fail on them.  The
  baseline is matched on a line-insensitive fingerprint (path, code,
  message) so unrelated edits do not churn it; ``--update-baseline``
  rewrites it from the current tree.

Machine-readable output: ``--json`` (the findings report the CI step
uploads) and ``--sarif`` (SARIF 2.1.0, so findings annotate PRs via
the code-scanning upload).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.analysis import dataflow, typestate
from repro.analysis.staticbase import (
    CheckFinding,
    default_target,
    ParsedModule,
    filter_findings,
    iter_python_files,
    parse_module,
)

#: default location of the committed findings baseline, relative to
#: the repository root (where CI invokes ``visapult check``)
DEFAULT_BASELINE = os.path.join("analysis", "baseline.json")

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "VIS200": "source file does not parse",
    "VIS201": "nondeterministic iteration order reaches a loop or emit",
    "VIS202": "id()/hash() identity flows into a name, seed, log field "
              "or container key",
    "VIS203": "unseeded RNG (random.Random(), module-global random/"
              "numpy.random functions)",
    "VIS204": "wall-clock value flows into a seed or name",
    "VIS210": "BoundedBuffer reserve() without commit()/cancel() in "
              "scope (or vice versa)",
    "VIS211": "render-cache begin() without publish()+abandon() legs "
              "in scope",
    "VIS212": "connection opened but never closed, stored or handed "
              "off",
    "VIS213": "MsgType member without a decoder branch in the protocol "
              "registry",
}


@dataclass
class CheckResult:
    """The outcome of one ``visapult check`` run.

    ``findings`` is everything the rules reported after pragma
    suppression; ``new_findings`` is the subset not matched by the
    baseline -- the set the CI gate fails on.  ``allowed`` counts
    pragma-suppressed findings, ``baselined`` the grandfathered ones,
    and ``stale_baseline`` lists baseline entries that no longer match
    anything (fixed findings whose suppression should be deleted).
    """

    findings: List[CheckFinding] = field(default_factory=list)
    new_findings: List[CheckFinding] = field(default_factory=list)
    allowed: int = 0
    baselined: int = 0
    stale_baseline: List[Dict[str, object]] = field(default_factory=list)
    files_checked: int = 0
    baseline_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        """True when no *new* findings were reported (the gate)."""
        return not self.new_findings

    def summary(self) -> str:
        """A human-readable block mirroring the sanitizer reports."""
        lines = [
            f"check: {len(self.findings)} finding(s) over "
            f"{self.files_checked} file(s) "
            f"({self.allowed} allowlisted, {self.baselined} baselined, "
            f"{len(self.new_findings)} new)"
        ]
        lines.extend(f"  NEW {finding}" for finding in self.new_findings)
        baselined = [
            f for f in self.findings if f not in self.new_findings
        ]
        lines.extend(f"  baselined {finding}" for finding in baselined)
        for entry in self.stale_baseline:
            lines.append(
                f"  stale baseline entry: {entry.get('path')} "
                f"{entry.get('code')} (fixed? run --update-baseline)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable (``--json``) report."""
        new = set(self.new_findings)
        return {
            "version": 1,
            "tool": {"name": "visapult check", "version": __version__},
            "files_checked": self.files_checked,
            "allowed": self.allowed,
            "baselined": self.baselined,
            "baseline_path": self.baseline_path,
            "counts": dict(
                sorted(Counter(f.code for f in self.findings).items())
            ),
            "findings": [
                dict(f.to_dict(), baselined=f not in new)
                for f in self.findings
            ],
            "stale_baseline": list(self.stale_baseline),
        }


def analyze_paths(
    paths: Optional[Sequence[str]] = None,
) -> Tuple[List[CheckFinding], int, int]:
    """Run every VIS2xx pass over ``paths``.

    Returns (findings after pragma suppression, pragma-suppressed
    count, files checked).  Parse failures become ``VIS200`` findings
    rather than crashes -- a tree that does not parse must fail the
    gate, not the tool.
    """
    if not paths:
        paths = [default_target()]
    findings: List[CheckFinding] = []
    allowed = 0
    modules: List[ParsedModule] = []
    files = iter_python_files(paths)
    for path in files:
        try:
            module = parse_module(path)
        except SyntaxError as exc:
            findings.append(
                CheckFinding(
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    code="VIS200",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        modules.append(module)
        raw = dataflow.analyze_module(module) + typestate.analyze_module(
            module
        )
        kept, n_allowed = filter_findings(module, raw)
        findings.extend(kept)
        allowed += n_allowed
    by_path = {m.path: m for m in modules}
    registry_raw = typestate.check_protocol_registry(modules)
    for finding in registry_raw:
        module = by_path[finding.path]
        if module.is_allowed(finding.code, finding.line):
            allowed += 1
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return findings, allowed, len(files)


# -- baseline ----------------------------------------------------------


def load_baseline(path: str) -> List[Dict[str, object]]:
    """Read a baseline file; returns its finding entries."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if (
        not isinstance(data, dict)
        or data.get("version") != 1
        or not isinstance(data.get("findings"), list)
    ):
        raise ValueError(
            f"{path} is not a visapult-check baseline (want "
            '{"version": 1, "findings": [...]})'
        )
    return list(data["findings"])


def baseline_dict(findings: Sequence[CheckFinding]) -> Dict[str, object]:
    """The serialized baseline for the given findings."""
    return {
        "version": 1,
        "tool": "visapult check",
        "findings": [f.to_dict() for f in findings],
    }


def write_baseline(findings: Sequence[CheckFinding], path: str) -> None:
    """Write (or rewrite) the baseline file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_dict(findings), fh, indent=2)
        fh.write("\n")


def match_baseline(
    findings: Sequence[CheckFinding],
    entries: Sequence[Dict[str, object]],
) -> Tuple[List[CheckFinding], List[Dict[str, object]]]:
    """Split findings into (new, stale-baseline-entries).

    Matching is by line-insensitive fingerprint with multiplicity:
    each baseline entry absorbs at most one finding, so a *second*
    occurrence of a grandfathered defect is still new.
    """
    def _key(entry: Dict[str, object]) -> Tuple[str, str, str]:
        return (
            str(entry.get("path")),
            str(entry.get("code")),
            str(entry.get("message")),
        )

    budget: Counter = Counter(_key(entry) for entry in entries)
    new: List[CheckFinding] = []
    for finding in findings:
        key = finding.fingerprint
        if budget.get(key, 0) > 0:
            budget[key] -= 1
        else:
            new.append(finding)
    stale: List[Dict[str, object]] = []
    for entry in entries:
        key = _key(entry)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            stale.append(entry)
    return new, stale


def run_check(
    paths: Optional[Sequence[str]] = None,
    *,
    baseline: Optional[str] = None,
    use_baseline: bool = True,
) -> CheckResult:
    """Run the VIS2xx analyzers and compare against the baseline.

    ``paths`` defaults to the installed ``repro`` package.
    ``baseline`` names the baseline file; when None the committed
    default (``analysis/baseline.json`` under the current directory)
    is used if it exists.  ``use_baseline=False`` treats every finding
    as new.
    """
    findings, allowed, files = analyze_paths(paths)
    result = CheckResult(
        findings=findings, allowed=allowed, files_checked=files
    )
    entries: List[Dict[str, object]] = []
    if use_baseline:
        baseline_path = baseline or (
            DEFAULT_BASELINE if os.path.exists(DEFAULT_BASELINE) else None
        )
        if baseline_path is not None:
            entries = load_baseline(baseline_path)
            result.baseline_path = baseline_path
    new, stale = match_baseline(findings, entries)
    result.new_findings = new
    result.baselined = len(findings) - len(new)
    result.stale_baseline = stale
    return result


# -- SARIF -------------------------------------------------------------


def to_sarif(result: CheckResult) -> Dict[str, object]:
    """The SARIF 2.1.0 report for one run (PR annotations in CI)."""
    codes = sorted({f.code for f in result.findings} | set())
    rules = [
        {
            "id": code,
            "shortDescription": {
                "text": _RULE_DESCRIPTIONS.get(code, code)
            },
        }
        for code in codes
    ]
    rule_index = {code: i for i, code in enumerate(codes)}
    new = set(result.new_findings)
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error" if finding in new else "note",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.to_dict()["path"],
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "visapult-check",
                        "version": __version__,
                        "informationUri": (
                            "https://example.invalid/visapult-check"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


# -- CLI ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``visapult check``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="visapult check",
        description=(
            "determinism & protocol-typestate analyzer (VIS2xx rules)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write the machine-readable findings report "
             "(default stdout)",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="write a SARIF 2.1.0 report for PR annotation",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline findings file (default: {DEFAULT_BASELINE} "
             "when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline; every finding is new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    opts = parser.parse_args(argv)
    result = run_check(
        opts.paths,
        baseline=opts.baseline,
        # rewriting the baseline must not require one to exist already
        use_baseline=not (opts.no_baseline or opts.update_baseline),
    )
    if opts.update_baseline:
        path = opts.baseline or DEFAULT_BASELINE
        write_baseline(result.findings, path)
        print(
            f"baseline: {len(result.findings)} finding(s) -> {path}"
        )
        return 0
    if opts.json is not None:
        payload = json.dumps(result.to_dict(), indent=2)
        if opts.json == "-":
            print(payload)
        else:
            with open(opts.json, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
            print(f"findings report -> {opts.json}")
    if opts.sarif is not None:
        with open(opts.sarif, "w", encoding="utf-8") as fh:
            json.dump(to_sarif(result), fh, indent=2)
            fh.write("\n")
        print(f"SARIF report -> {opts.sarif}")
    if opts.json != "-":
        print(result.summary())
    if not result.clean:
        print(
            f"{len(result.new_findings)} new finding(s) not in the "
            "baseline",
            file=sys.stderr,
        )
        return 1
    return 0
