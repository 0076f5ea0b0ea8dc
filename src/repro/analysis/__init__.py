"""Static analysis and a runtime sanitizer for the concurrency layer.

Two halves, one goal: machine-check the handshake disciplines the
paper's pipeline depends on (Appendix B's semaphore pair over a double
buffer, the staged-pipeline credits).

- :mod:`~repro.analysis.sanitizer` -- a tsan-for-the-DES. Opt-in
  hooks in the sim primitives build a wait-for graph and catch
  deadlocks, hangs, lost wakeups, leaked reserve credits and
  buffer-protocol violations, reported as NetLogger ``SAN_*`` events.
- :mod:`~repro.analysis.staticbase` -- the one static-analysis core:
  each file is parsed and indexed once (imports, one record per
  ``def``, a def's own nodes) and one driver walks, runs rules,
  applies the ``# vis: allow[...]`` pragmas and sorts.
- :mod:`~repro.analysis.lint` -- the ``visapult lint`` rules (VIS1xx)
  enforcing repo invariants (no wall-clock or threading in sim-only
  code, processes must yield, declared event vocabulary, no bare
  except).
- :mod:`~repro.analysis.dataflow` / :mod:`~repro.analysis.typestate`
  / :mod:`~repro.analysis.check` -- the ``visapult check`` rules
  (VIS2xx): an interprocedural determinism dataflow pass and a
  protocol typestate pass; CI fails on any finding.
- :mod:`~repro.analysis.findings` -- the shared finding/report types.
"""

from repro.analysis.findings import CATEGORY_TAGS, Finding, SanitizerReport
from repro.analysis.lint import lint_source, run_lint
from repro.analysis.staticbase import CheckFinding
from repro.analysis.check import CheckResult, run_check
from repro.analysis.sanitizer import SimSanitizer, attach_sanitizer

__all__ = [
    "CATEGORY_TAGS",
    "Finding",
    "SanitizerReport",
    "SimSanitizer",
    "attach_sanitizer",
    "lint_source",
    "run_lint",
    "CheckFinding",
    "CheckResult",
    "run_check",
]
