"""Session planning: pick the compute site that minimises frame period.

The predictor is the section 4.3 pipeline model fed with first-order
resource estimates:

- L: one timestep's bytes over the bottleneck of the WAN path's usable
  capacity and the platform's aggregate NIC ingest;
- R: the slab voxel count over the platform's per-CPU render rate;
- overlapped period per frame ~ max(L, R), serial ~ L + R.

The planner searches every registered compute resource and PE count
(powers of two up to ``max_pes``) and materialises the winner as a
:class:`~repro.core.campaign.CampaignConfig` so the user never touches
topology details -- the paper's "transparently take advantage of
remote and distributed resources".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.platforms import WanSpec, Wans
from repro.core.report import CampaignResult
from repro.corridor.registry import ComputeResource, CorridorMap
from repro.datagen.timeseries import TimeSeriesMeta
from repro.volren.decomposition import slab_decompose


@dataclass(frozen=True)
class SessionRequest:
    """What the scientist asks for: a dataset and a viewing location."""

    dataset: str
    meta: TimeSeriesMeta
    viewer_site: str
    n_timesteps: int = 10
    overlapped: bool = True

    def __post_init__(self):
        if self.n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")


@dataclass(frozen=True)
class CandidateEstimate:
    """Predicted performance of one (resource, PE count) option."""

    resource: ComputeResource
    n_pes: int
    wan: Optional[WanSpec]
    load_seconds: float
    render_seconds: float

    @property
    def period(self) -> float:
        """Predicted steady-state seconds per timestep."""
        return max(self.load_seconds, self.render_seconds)


@dataclass
class PlannedSession:
    """The planner's choice plus the alternatives it rejected."""

    request: SessionRequest
    choice: CandidateEstimate
    candidates: List[CandidateEstimate] = field(default_factory=list)

    def to_campaign(self) -> CampaignConfig:
        """Materialise the plan as a runnable campaign."""
        wan = self.choice.wan if self.choice.wan is not None else Wans.LAN_GIGE
        viewer_remote = (
            self.request.viewer_site != self.choice.resource.site
        )
        return CampaignConfig(
            name=f"corridor-{self.request.dataset}-"
            f"{self.choice.resource.name}{self.choice.n_pes}",
            platform=self.choice.resource.platform,
            wan=wan,
            n_pes=self.choice.n_pes,
            overlapped=self.request.overlapped,
            n_timesteps=self.request.n_timesteps,
            shape=self.request.meta.shape,
            dataset_timesteps=self.request.meta.n_timesteps,
            viewer_remote=viewer_remote,
        )

    def summary(self) -> str:
        """Rationale, best first."""
        lines = [
            f"session plan for {self.request.dataset!r} "
            f"(viewer at {self.request.viewer_site}):"
        ]
        ranked = sorted(self.candidates, key=lambda c: c.period)
        for i, c in enumerate(ranked):
            marker = "->" if c is self.choice else "  "
            wan_name = c.wan.name if c.wan else "local-lan"
            lines.append(
                f" {marker} {c.resource.name}x{c.n_pes} via {wan_name}: "
                f"L~{c.load_seconds:.1f}s R~{c.render_seconds:.1f}s "
                f"period~{c.period:.1f}s"
            )
            if i >= 5:
                lines.append(f"    ... {len(ranked) - 6} more")
                break
        return "\n".join(lines)


def _pe_options(max_pes: int) -> List[int]:
    options = []
    n = 1
    while n <= max_pes:
        options.append(n)
        n *= 2
    return options


def estimate_candidate(
    resource: ComputeResource,
    n_pes: int,
    wan: Optional[WanSpec],
    meta: TimeSeriesMeta,
) -> CandidateEstimate:
    """First-order L and R for one placement option."""
    plat = resource.platform
    nic_aggregate = (
        plat.nic_rate * n_pes if plat.cluster else plat.nic_rate
    )
    wan_cap = wan.usable_capacity if wan is not None else 118e6  # gigE LAN
    ingest = min(nic_aggregate, wan_cap)
    load = meta.bytes_per_timestep / ingest

    slab_voxels = max(
        sub.n_voxels for sub in slab_decompose(meta.shape, n_pes)
    )
    concurrent = min(n_pes, plat.n_cpus) if not plat.cluster else n_pes
    # On an SMP with fewer CPUs than PEs the renders time-share.
    crowding = n_pes / concurrent
    render = (
        slab_voxels / plat.render_voxels_per_sec * crowding
    )
    return CandidateEstimate(
        resource=resource,
        n_pes=n_pes,
        wan=wan,
        load_seconds=load,
        render_seconds=render,
    )


def plan_session(cmap: CorridorMap, request: SessionRequest) -> PlannedSession:
    """Choose the placement minimising the predicted pipeline period.

    Ties break toward fewer PEs (cheaper allocation). Raises if no
    cache holds the dataset or no compute resource is reachable.
    """
    caches = cmap.caches_holding(request.dataset)
    if not caches:
        raise LookupError(
            f"no DPSS cache holds dataset {request.dataset!r}; stage it "
            "first (see repro.hpss.migrate_to_dpss)"
        )
    candidates: List[CandidateEstimate] = []
    for cache in caches:
        for resource in cmap.compute_resources:
            wan = cmap.path_between(cache.site, resource.site)
            wan_spec = wan.wan if wan is not None else None
            for n_pes in _pe_options(resource.max_pes):
                candidates.append(
                    estimate_candidate(
                        resource, n_pes, wan_spec, request.meta
                    )
                )
    if not candidates:
        raise LookupError("no compute resources registered")
    choice = min(candidates, key=lambda c: (c.period, c.n_pes))
    return PlannedSession(
        request=request, choice=choice, candidates=candidates
    )


def run_session(
    cmap: CorridorMap, request: SessionRequest
) -> Tuple[PlannedSession, CampaignResult]:
    """Plan, then actually run the chosen campaign on the simulator."""
    plan = plan_session(cmap, request)
    result = run_campaign(plan.to_campaign())
    return plan, result
