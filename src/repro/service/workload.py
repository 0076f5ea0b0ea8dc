"""Seeded viewer workloads: who shows up, when, over which WAN.

Arrivals are open loop, a Poisson process: the first viewer arrives
at t=0 (so a single-viewer workload reproduces the plain
single-session campaign exactly) and subsequent inter-arrival gaps
are exponential with mean ``1 / arrival_rate``. Arrivals do not wait
for earlier sessions; pressure on admission control is external.

Viewer heterogeneity comes from ``profiles``: each arrival cycles
through the tuple, picking up that profile's WAN path (a
:class:`~repro.core.platforms.WanSpec`, or ``None`` for a local
gigabit LAN hop exactly like the single-session campaign's local
viewer) and optional frame-count override.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.platforms import WanSpec
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ViewerProfile:
    """One class of viewer: WAN path, frames, frustum, home site."""

    name: str = "local"
    #: WAN between the back-end pool and this viewer; ``None`` puts
    #: the viewer on a local gigabit LAN (the co-located case)
    wan: Optional[WanSpec] = None
    #: timesteps this viewer watches; ``None`` = the campaign default
    frames: Optional[int] = None
    #: fractional viewport rect (x0, y0, x1, y1) this viewer looks at
    #: in tile mode; ``None`` = the whole frame. Overlapping frusta
    #: from different viewers share tile renders through the cache.
    frustum: Optional[Tuple[float, float, float, float]] = None
    #: home site of this viewer in a multi-site topology
    #: (:class:`repro.config.TopologyConfig`); ``None`` assigns sites
    #: round-robin in arrival order. Ignored by single-site campaigns.
    region: Optional[str] = None

    def __post_init__(self):
        if self.frames is not None and self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.frustum is not None:
            x0, y0, x1, y1 = self.frustum
            if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
                raise ValueError(
                    f"frustum must satisfy 0 <= lo < hi <= 1, got "
                    f"{self.frustum}"
                )


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded population of viewers arriving open loop."""

    n_viewers: int = 1
    #: mean arrivals per second
    arrival_rate: float = 1.0
    profiles: Tuple[ViewerProfile, ...] = (ViewerProfile(),)

    def __post_init__(self):
        check_non_negative("n_viewers", self.n_viewers)
        check_positive("arrival_rate", self.arrival_rate)
        if not self.profiles:
            raise ValueError("profiles must not be empty")

    def with_changes(self, **changes: Any) -> "WorkloadSpec":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def total_sessions(self) -> int:
        """Sessions this workload offers over its lifetime."""
        return self.n_viewers

    def profile_of(self, index: int) -> ViewerProfile:
        """The profile the ``index``-th viewer (or session) uses."""
        return self.profiles[index % len(self.profiles)]

    def arrivals(
        self, rng: np.random.Generator
    ) -> List[Tuple[float, ViewerProfile]]:
        """The arrival schedule: (time, profile) pairs, sorted.

        The first arrival is pinned to t=0; the remaining gaps are
        exponential draws from ``rng``, so the whole schedule is a
        pure function of (spec, seed).
        """
        out: List[Tuple[float, ViewerProfile]] = []
        t = 0.0
        for i in range(self.n_viewers):
            if i > 0:
                t += float(rng.exponential(1.0 / self.arrival_rate))
            out.append((t, self.profile_of(i)))
        return out
