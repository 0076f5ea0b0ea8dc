"""The ``visapult check`` rule set, its result and its reports.

Runs the determinism dataflow rules (:mod:`~repro.analysis.dataflow`)
and the protocol typestate rules (:mod:`~repro.analysis.typestate`)
through the one driver (:func:`~repro.analysis.staticbase.run_rules`)
and reports every finding that no ``# vis: allow[VIS2xx] reason``
pragma marks *proven safe*.  The gate fails on any finding: a sink is
either fixed or carries its reviewed reason next to the code.

Machine-readable output: :meth:`CheckResult.to_dict` (``--json``, the
findings report the CI step uploads) and :func:`to_sarif` (``--sarif``,
SARIF 2.1.0, so findings annotate PRs via the code-scanning upload).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro._version import __version__
from repro.analysis import dataflow, typestate
from repro.analysis.staticbase import CheckFinding, run_rules

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "VIS200": "source file does not parse",
    "VIS201": "nondeterministic iteration order reaches a loop or emit",
    "VIS202": "id()/hash() identity flows into a name, seed, log field "
              "or container key",
    "VIS203": "unseeded RNG (random.Random(), module-global random/"
              "numpy.random functions)",
    "VIS204": "wall-clock value flows into a seed or name",
    "VIS210": "BoundedBuffer reserve() without commit() in scope (or "
              "vice versa)",
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
    suppression -- the set the CI gate fails on; ``allowed`` counts
    the pragma-suppressed ones.
    """

    findings: List[CheckFinding] = field(default_factory=list)
    allowed: int = 0
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when no findings were reported (the gate)."""
        return not self.findings

    def summary(self) -> str:
        """A human-readable block mirroring the sanitizer reports."""
        lines = [
            f"check: {len(self.findings)} finding(s) over "
            f"{self.files_checked} file(s) ({self.allowed} allowlisted)"
        ]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable (``--json``) report."""
        return {
            "version": 2,
            "tool": {"name": "visapult check", "version": __version__},
            "files_checked": self.files_checked,
            "allowed": self.allowed,
            "counts": dict(
                sorted(Counter(f.code for f in self.findings).items())
            ),
            "findings": [f.to_dict() for f in self.findings],
        }


def run_check(paths: Optional[Sequence[str]] = None) -> CheckResult:
    """Run the VIS2xx analyzers over ``paths`` (files or directories).

    ``paths`` defaults to the installed ``repro`` package.
    """
    return CheckResult(
        *run_rules(
            paths,
            [dataflow.analyze_module, typestate.analyze_module],
            [typestate.check_protocol_registry],
            syntax_code="VIS200",
        )
    )


# -- SARIF -------------------------------------------------------------


def to_sarif(result: CheckResult) -> Dict[str, object]:
    """The SARIF 2.1.0 report for one run (PR annotations in CI)."""
    codes = sorted({f.code for f in result.findings})
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
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error",
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
