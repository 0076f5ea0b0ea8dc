"""Finding records shared by the sanitizer and the project linter.

Every detector reduces to a :class:`Finding`: a category (one per
Appendix-B failure mode), the subject it implicates (a buffer,
semaphore, stage or source location) and a human-readable
message. A :class:`SanitizerReport` bundles the findings of one run
and knows how to emit them as NetLogger ``SAN_*`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.netlogger.events import Tags

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.logger import NetLogger

#: finding category -> the NetLogger tag reporting it
CATEGORY_TAGS: Dict[str, str] = {
    "deadlock": Tags.SAN_DEADLOCK,
    "hang": Tags.SAN_HANG,
    "credit-leak": Tags.SAN_CREDIT_LEAK,
    "protocol": Tags.SAN_PROTOCOL,
    "lost-wakeup": Tags.SAN_LOST_WAKEUP,
    "barrier-stuck": Tags.SAN_BARRIER_STUCK,
}


@dataclass(frozen=True)
class Finding:
    """One defect a sanitizer or the linter believes it has found."""

    category: str
    subject: str
    message: str

    def __post_init__(self) -> None:
        if self.category not in CATEGORY_TAGS:
            raise ValueError(
                f"unknown finding category {self.category!r}; expected "
                f"one of {sorted(CATEGORY_TAGS)}"
            )

    @property
    def tag(self) -> str:
        """The NetLogger tag for this finding's category."""
        return CATEGORY_TAGS[self.category]

    def __str__(self) -> str:
        return f"[{self.category}] {self.subject}: {self.message}"


@dataclass
class SanitizerReport:
    """The structured end-of-run report of one sanitized run."""

    findings: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the run produced no findings."""
        return not self.findings

    def emit(self, logger: Optional["NetLogger"]) -> None:
        """Log one ``SAN_*`` event per finding plus a ``SAN_REPORT``.

        ULM values may not contain whitespace, so only the category
        and subject travel on the event; the full message lives in the
        in-memory report.
        """
        if logger is None:
            return
        for finding in self.findings:
            logger.log(
                finding.tag,
                level="Error",
                category=finding.category,
                subject=finding.subject.replace(" ", "_"),
            )
        logger.log(Tags.SAN_REPORT, level="Usage", findings=len(self.findings))

    def summary(self) -> str:
        """A human-readable block, one line per finding."""
        if not self.findings:
            return "sanitizer: clean (0 findings)"
        lines = [f"sanitizer: {len(self.findings)} finding(s)"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)
