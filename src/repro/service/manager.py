"""The multi-viewer serving layer: session manager, result, runner.

One :class:`ServiceCampaign` multiplexes many viewer sessions over a
*shared* pool of back-end PEs and one DPSS site. Construction of that
world belongs to :mod:`repro.core.campaign`: the manager calls
:func:`~repro.core.campaign.build_world` once and
:func:`~repro.core.campaign.attach_session` per admitted session, so
each session gets its own :class:`~repro.viewer.sim.SimViewer` (on its
own host, behind its profile's WAN) and its own
:class:`~repro.backend.sim.SimBackEnd` bound to the shared PE hosts,
and cross-session contention for PE NICs, CPUs, the WAN, and the DPSS
disk pools resolves in the fluid model exactly where the paper's
single-session contention did. What this module owns is admission,
the session lifecycle, and the shared
:class:`~repro.service.cache.RenderCache`, which serves one session's
finished slab textures to the next, skipping the DPSS read *and* the
render leg.

A single-viewer workload with the cache disabled reproduces the
single-session :func:`~repro.core.campaign.run_campaign` event stream
byte-for-byte (modulo the ``s0/`` session prefix and ``viewer0`` host
name) -- the serving layer is pure bookkeeping until there is actual
multiplexing to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.backend.sim import SimBackEnd
from repro.core.campaign import (
    CampaignConfig,
    attach_session,
    build_world,
    run_observed,
)
from repro.core.platforms import Wans
from repro.core.report import CampaignResult
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.service.admission import AdmissionPolicy, QueueFull, SlotQueue
from repro.service.cache import CacheConfig, CacheStats, RenderCache
from repro.service.metrics import ServiceMetrics, SessionRecord, result_payload
from repro.service.workload import ViewerProfile, WorkloadSpec
from repro.simcore.process import Process
from repro.util.rng import spawn_rngs
from repro.util.units import MB
from repro.viewer.sim import SimViewer

#: seed stride between sessions: distinct, collision-free streams while
#: session 0 keeps the base seed (the byte-reproduction anchor)
_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class ServiceCampaign:
    """A multi-viewer serving campaign over one shared back-end pool.

    ``base`` supplies everything a single session needs (platform, PE
    count, WAN, dataset shape, frames, faults, policy); the service
    fields describe the population of viewers and the shared layers.
    """

    name: str
    base: CampaignConfig
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: overrides ``base.seed`` for the whole service run when set
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.base.tiles.enabled:
            for profile in self.workload.profiles:
                if profile.frustum is not None:
                    raise ValueError(
                        f"profile {profile.name!r} sets frustum; "
                        f"frustum applies only with tiles"
                    )

    @property
    def effective_seed(self) -> int:
        """The seed the whole service run derives from."""
        return self.seed if self.seed is not None else self.base.seed

    def with_changes(self, **changes: Any) -> "ServiceCampaign":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def sc99_multiviewer(
        cls, *, n_viewers: int = 6, n_timesteps: int = 4, **kw: Any
    ) -> "ServiceCampaign":
        """The SC99 floor, multiplexed: one LBL-booth back-end pool
        serving show-floor, SciNet, and ESnet viewers at once."""
        base = CampaignConfig.sc99_showfloor(n_timesteps=n_timesteps)
        profiles = (
            ViewerProfile(name="showfloor", wan=None),
            ViewerProfile(name="scinet", wan=Wans.SCINET99),
            ViewerProfile(name="esnet", wan=Wans.ESNET),
        )
        return cls(
            name="sc99-multiviewer",
            base=base,
            workload=WorkloadSpec(
                n_viewers=n_viewers,
                arrival_rate=0.05,
                profiles=profiles,
            ),
            admission=AdmissionPolicy(max_sessions=4, queue_depth=8),
            cache=CacheConfig(capacity_bytes=256 * MB),
            **kw,
        )


class SessionManager:
    """Admits, queues, rejects, and runs viewer sessions.

    Construction builds the shared world (DPSS site, WAN, PE pool,
    dataset, fault injector); :meth:`run` returns the process that
    completes when every offered session has been resolved.
    """

    def __init__(self, config: ServiceCampaign):
        self.config = config
        self.world = build_world(config.base)
        self.net = self.world.net
        self.daemon = self.world.daemon
        self.wan = self.world.wan
        self.meta = config.base.meta
        self.records: List[SessionRecord] = []
        self.backends: List[SimBackEnd] = []
        self.viewers: List[SimViewer] = []
        self._next_sid = 0
        policy = config.admission
        self._slots = SlotQueue(
            self.net.env,
            max_slots=policy.max_sessions,
            queue_depth=policy.queue_depth,
        )
        self.cache: Optional[RenderCache] = (
            RenderCache(
                self.net.env,
                config.cache,
                daemon=self.daemon,
            )
            if config.cache.capacity_bytes > 0
            else None
        )
        self.logger = NetLogger(
            "service",
            "session-manager",
            clock=lambda: self.net.env.now,
            daemon=self.daemon,
        )
        # Stream 0 drives the arrival schedule.
        self._rngs = spawn_rngs(config.effective_seed + 7, 1)

    # -- per-session wiring ------------------------------------------
    def _session_seed(self, sid: int) -> int:
        return self.config.effective_seed + _SEED_STRIDE * sid

    def _session_frames(self, profile: ViewerProfile) -> int:
        return (
            profile.frames
            if profile.frames is not None
            else self.config.base.n_timesteps
        )

    def _build_session(
        self, sid: int, profile: ViewerProfile
    ) -> Tuple[SimViewer, SimBackEnd]:
        """Attach one viewer host + WAN and bind a back end to the pool."""
        tiles = self.config.base.tiles
        if profile.frustum is not None:
            tiles = tiles.with_changes(frustum=profile.frustum)
        viewer, backend = attach_session(
            self.world,
            viewer_name=f"viewer{sid}",
            viewer_wan=profile.wan,
            n_timesteps=self._session_frames(profile),
            seed=self._session_seed(sid),
            tiles=tiles,
            render_cache=self.cache,
            session=f"s{sid}",
        )
        self.viewers.append(viewer)
        self.backends.append(backend)
        return viewer, backend

    # -- admission + lifecycle ---------------------------------------
    def _session(
        self, sid: int, profile: ViewerProfile
    ) -> Generator[Any, Any, None]:
        env = self.net.env
        record = SessionRecord(
            session=sid, profile=profile.name, arrival=env.now
        )
        self.records.append(record)
        self.logger.log(
            Tags.SVC_ARRIVAL, session=sid, profile=profile.name
        )
        try:
            slot = self._slots.acquire()
        except QueueFull:
            record.rejected = True
            record.reject_reason = "capacity"
            self.logger.log(Tags.SVC_REJECT, session=sid, reason="capacity")
            return
        if slot is not None:
            self.logger.log(
                Tags.SVC_QUEUE, session=sid, depth=self._slots.depth
            )
            yield slot
        record.admitted = env.now
        self.logger.log(
            Tags.SVC_ADMIT, session=sid, wait=env.now - record.arrival
        )
        viewer, backend = self._build_session(sid, profile)
        record.started = env.now
        self.logger.log(Tags.SVC_START, session=sid)
        yield backend.run()
        record.ended = env.now
        record.frames = viewer.complete_frames(backend.n_render_pes)
        if viewer.frame_complete_times:
            record.first_frame = min(
                viewer.frame_complete_times.values()
            )
        self.logger.log(
            Tags.SVC_END, session=sid, frames=record.frames
        )
        # A queued arrival inherits the slot directly (O(1) FIFO
        # handoff), so the active count is untouched while anyone is
        # waiting.
        self._slots.release()

    def _run(self) -> Generator[Any, Any, None]:
        env = self.net.env
        procs: List[Process] = []
        for t, profile in self.config.workload.arrivals(self._rngs[0]):
            delay = t - env.now
            if delay > 0:
                yield env.timeout(delay)
            sid = self._next_sid
            self._next_sid += 1
            procs.append(env.process(self._session(sid, profile)))
        if procs:
            yield env.all_of(procs)

    def run(self) -> Process:
        """The manager process: completes when the workload is drained."""
        return self.net.env.process(self._run())

    @property
    def cache_stats(self) -> CacheStats:
        """Render-cache counters (all-zero when the cache is off)."""
        return self.cache.stats if self.cache is not None else CacheStats()


@dataclass
class ServiceResult(CampaignResult):
    """A :class:`~repro.core.report.CampaignResult` plus service-level
    aggregates: the base fields reduce the merged event stream across
    every session, the extras carry the serving layer's own metrics."""

    service: Optional[ServiceMetrics] = None
    sessions: List[SessionRecord] = field(default_factory=list)
    cache_stats: Optional[CacheStats] = None
    campaign: Optional[ServiceCampaign] = None

    def to_payload(self) -> Dict[str, Any]:
        """The versioned JSON envelope (schema_version + kind=service)."""
        return result_payload("service", self.service)

    def summary(self) -> str:
        """Human-readable service block over the campaign aggregates."""
        svc = self.campaign
        base = svc.base if svc is not None else self.config
        lines = [
            f"service campaign {svc.name if svc else self.config.name}: "
            f"{base.n_pes} shared PEs on {base.platform.name}, "
            f"{base.wan.name} WAN",
        ]
        if self.service is not None:
            lines.append(self.service.summary())
        if self.cache_stats is not None:
            stats = self.cache_stats
            lines.append(
                f"  render cache      : {stats.hits} hits / "
                f"{stats.lookups} lookups, {stats.evictions} evictions, "
                f"{stats.bytes_cached / 1e6:.1f} MB resident"
            )
        load_render, tile_delta = self._shared_lines()
        return "\n".join(lines + tile_delta + load_render)


def _reduce(
    config: ServiceCampaign,
    manager: SessionManager,
    total_time: float,
) -> ServiceResult:
    """Aggregate one finished service run into a :class:`ServiceResult`."""
    frames = sum(r.frames for r in manager.records)
    result = ServiceResult.reduce(
        config.base,
        manager.net,
        manager.daemon,
        manager.backends,
        total_time=total_time,
        n_frames=frames,
        viewer_frames_complete=frames,
        sessions=list(manager.records),
        cache_stats=manager.cache_stats,
        campaign=config,
    )
    result.service = ServiceMetrics.from_records(
        manager.records,
        total_time=total_time,
        cache_hit_ratio=manager.cache_stats.hit_ratio,
        tiles_full=result.tiles_full,
        tiles_ref=result.tiles_ref,
        tile_bytes_saved=result.tile_bytes_saved,
    )
    return result


def run_service_campaign(
    config: ServiceCampaign,
    *,
    sanitize: bool = False,
    ulm_path: Optional[str] = None,
    alloc_stats: bool = False,
) -> ServiceResult:
    """Build and run a multi-viewer service campaign to completion.

    The observers are :func:`repro.core.campaign.run_campaign`'s:
    ``sanitize`` attaches the concurrency sanitizer, ``alloc_stats``
    adds sampled ``ALLOC_*`` allocator counters, and ``ulm_path``
    writes the merged, time-sorted ULM event stream.
    """
    manager = SessionManager(config)
    return run_observed(
        manager.net,
        manager.daemon,
        manager.run,
        lambda: _reduce(config, manager, manager.net.env.now),
        sanitize=sanitize,
        ulm_path=ulm_path,
        alloc_stats=alloc_stats,
    )
