"""Service-level metrics: per-session records and their aggregation.

The serving layer measures what a capacity planner would ask of a
multi-user Visapult deployment (the ROADMAP's production-scale
service): admission latency, time-to-first-frame, sustained frame
rate per session, cache effectiveness, and tail percentiles across
sessions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.util.compat import DATACLASS_SLOTS
from repro.util.stats import percentile
from repro.util.units import fmt_seconds

#: version stamp every JSON result payload carries; bump on any
#: backwards-incompatible change to the emitted structure
RESULT_SCHEMA_VERSION = 1


def result_payload(kind: str, metrics: Any, **sections: Any) -> Dict[str, Any]:
    """The one versioned JSON envelope every runner emits.

    ``campaign --json`` and ``serve-sim --json`` (full-world and shard)
    all route through here, so downstream tooling can dispatch on
    ``schema_version`` + ``kind`` instead of sniffing key shapes.
    Extra keyword sections land at the top level; objects exposing
    ``to_dict`` are serialised through it, ``None`` sections are
    dropped.
    """
    payload: Dict[str, Any] = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": kind,
        "metrics": (
            metrics.to_dict() if hasattr(metrics, "to_dict") else dict(metrics)
        ),
    }
    for key, value in sections.items():
        if value is None:
            continue
        payload[key] = value.to_dict() if hasattr(value, "to_dict") else value
    return payload


@dataclass(**DATACLASS_SLOTS)
class SessionRecord:
    """One viewer session's lifecycle timestamps and outcome."""

    session: int
    profile: str
    arrival: float
    admitted: Optional[float] = None
    started: Optional[float] = None
    ended: Optional[float] = None
    #: sim time the first fully-assembled frame landed in the scene
    first_frame: Optional[float] = None
    #: frames fully delivered to this session's viewer
    frames: int = 0
    rejected: bool = False
    reject_reason: str = ""
    #: multi-site shard fields; empty for single-site campaigns
    home: str = ""
    served: str = ""
    verdict: str = ""

    @property
    def admission_latency(self) -> Optional[float]:
        """Arrival to admission; ``None`` for rejected sessions."""
        if self.admitted is None:
            return None
        return self.admitted - self.arrival

    @property
    def ttff(self) -> Optional[float]:
        """Arrival to first complete frame (time-to-first-frame)."""
        if self.first_frame is None:
            return None
        return self.first_frame - self.arrival

    @property
    def frame_rate(self) -> float:
        """Sustained frames/s over the session's active span."""
        if self.started is None or self.ended is None:
            return 0.0
        active = self.ended - self.started
        return self.frames / active if active > 0 else 0.0


@dataclass
class ServiceMetrics:
    """Aggregates over every offered session of a service campaign."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    queued: int = 0
    total_time: float = 0.0
    frames_delivered: int = 0
    #: frames_delivered over the campaign makespan
    aggregate_frame_rate: float = 0.0
    #: completed sessions over the campaign makespan
    sessions_per_second: float = 0.0
    cache_hit_ratio: float = 0.0
    #: tile mode: full tiles / delta references shipped across every
    #: session (both zero for whole-slab campaigns)
    tiles_full: int = 0
    tiles_ref: int = 0
    #: tile mode: texture bytes delta references kept off the wire
    tile_bytes_saved: float = 0.0
    mean_session_frame_rate: float = 0.0
    admission_p50: float = 0.0
    admission_p95: float = 0.0
    admission_p99: float = 0.0
    ttff_p50: float = 0.0
    ttff_p95: float = 0.0
    ttff_p99: float = 0.0

    @classmethod
    def from_records(
        cls,
        records: Sequence[SessionRecord],
        *,
        total_time: float,
        cache_hit_ratio: float = 0.0,
        tiles_full: int = 0,
        tiles_ref: int = 0,
        tile_bytes_saved: float = 0.0,
    ) -> "ServiceMetrics":
        """Reduce session records into service-level aggregates."""
        admitted = [r for r in records if r.admitted is not None]
        completed = [r for r in admitted if r.ended is not None]
        lat = [
            r.admission_latency for r in admitted
            if r.admission_latency is not None
        ]
        ttff = [r.ttff for r in records if r.ttff is not None]
        frames = sum(r.frames for r in records)
        rates = [r.frame_rate for r in completed]
        return cls(
            offered=len(records),
            admitted=len(admitted),
            rejected=sum(1 for r in records if r.rejected),
            completed=len(completed),
            queued=sum(
                1 for r in admitted
                if (r.admission_latency or 0.0) > 0.0
            ),
            total_time=total_time,
            frames_delivered=frames,
            aggregate_frame_rate=(
                frames / total_time if total_time > 0 else 0.0
            ),
            sessions_per_second=(
                len(completed) / total_time if total_time > 0 else 0.0
            ),
            cache_hit_ratio=cache_hit_ratio,
            tiles_full=tiles_full,
            tiles_ref=tiles_ref,
            tile_bytes_saved=tile_bytes_saved,
            mean_session_frame_rate=(
                float(np.mean(rates)) if rates else 0.0
            ),
            admission_p50=percentile(lat, 50),
            admission_p95=percentile(lat, 95),
            admission_p99=percentile(lat, 99),
            ttff_p50=percentile(ttff, 50),
            ttff_p95=percentile(ttff, 95),
            ttff_p99=percentile(ttff, 99),
        )

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-ready form (the CI benchmark artifact): every
        field."""
        return asdict(self)

    def summary(self) -> str:
        """A human-readable service block."""
        return "\n".join([
            f"  sessions          : {self.completed} completed / "
            f"{self.admitted} admitted / {self.rejected} rejected "
            f"of {self.offered} offered",
            f"  admission latency : p50 {fmt_seconds(self.admission_p50)}"
            f"  p95 {fmt_seconds(self.admission_p95)}"
            f"  p99 {fmt_seconds(self.admission_p99)}",
            f"  time-to-frame     : p50 {fmt_seconds(self.ttff_p50)}"
            f"  p95 {fmt_seconds(self.ttff_p95)}"
            f"  p99 {fmt_seconds(self.ttff_p99)}",
            f"  frame delivery    : {self.frames_delivered} frames, "
            f"{self.aggregate_frame_rate:.3f} frames/s aggregate, "
            f"{self.mean_session_frame_rate:.3f} frames/s/session",
            f"  cache hit ratio   : {self.cache_hit_ratio:.0%}",
        ])


@dataclass
class SiteMetrics:
    """One shard site's admission and serving tallies."""

    name: str
    #: sessions whose home is this site
    offered: int = 0
    #: sessions this site's back ends actually served
    served: int = 0
    #: homed here, but served at a remote site
    spilled_out: int = 0
    #: homed elsewhere, served here
    spilled_in: int = 0
    queued: int = 0
    rejected: int = 0
    completed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of this site's lookups served from the edge cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form: every field plus the hit ratio."""
        return {**asdict(self), "cache_hit_ratio": self.cache_hit_ratio}


@dataclass
class ShardMetrics:
    """Service aggregates plus the multi-site breakdown."""

    service: ServiceMetrics
    #: campaign-wide verdict counts, keyed by
    #: :class:`~repro.service.admission.AdmissionVerdict` values
    verdicts: Dict[str, int] = field(default_factory=dict)
    sites: Dict[str, SiteMetrics] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls,
        records: Sequence[SessionRecord],
        site_names: Sequence[str],
        *,
        total_time: float,
        site_cache_stats: Optional[Dict[str, Any]] = None,
    ) -> "ShardMetrics":
        """Reduce shard session records to service + per-site tallies.

        ``site_cache_stats`` maps site name to that edge cache's
        :class:`~repro.service.cache.CacheStats`.
        """
        sites = {name: SiteMetrics(name=name) for name in site_names}
        verdicts: Dict[str, int] = {}
        hits = misses = 0
        for record in records:
            if record.verdict:
                verdicts[record.verdict] = verdicts.get(record.verdict, 0) + 1
            home = sites.get(record.home)
            if home is not None:
                home.offered += 1
                if record.rejected:
                    home.rejected += 1
                if record.verdict == "queued":
                    home.queued += 1
            served = sites.get(record.served)
            if served is not None:
                served.served += 1
                if record.ended is not None:
                    served.completed += 1
            if record.served and record.home and record.served != record.home:
                if home is not None:
                    home.spilled_out += 1
                if served is not None:
                    served.spilled_in += 1
        if site_cache_stats:
            for name, stats in site_cache_stats.items():
                site = sites.get(name)
                if site is not None:
                    site.cache_hits = stats.hits
                    site.cache_misses = stats.misses
                hits += stats.hits
                misses += stats.misses
        service = ServiceMetrics.from_records(
            records,
            total_time=total_time,
            cache_hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
        )
        return cls(service=service, verdicts=verdicts, sites=sites)

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-ready form (service + verdicts + sites)."""
        return {
            "service": self.service.to_dict(),
            "verdicts": dict(self.verdicts),
            "sites": {
                name: site.to_dict() for name, site in self.sites.items()
            },
        }

    def summary(self) -> str:
        """Human-readable shard block: service lines + a site table."""
        lines = [self.service.summary()]
        verdicts = ", ".join(
            f"{k} {v}" for k, v in sorted(self.verdicts.items())
        )
        if verdicts:
            lines.append(f"  verdicts          : {verdicts}")
        for name in sorted(self.sites):
            site = self.sites[name]
            lines.append(
                f"  site {name:<12} : {site.served} served "
                f"({site.spilled_in} in / {site.spilled_out} out), "
                f"{site.rejected} rejected, "
                f"cache {site.cache_hit_ratio:.0%}"
            )
        return "\n".join(lines)


#: re-exported for the package facade
__all__ = [
    "RESULT_SCHEMA_VERSION",
    "SessionRecord",
    "ServiceMetrics",
    "ShardMetrics",
    "SiteMetrics",
    "percentile",
    "result_payload",
]
