"""Sharded serving: per-site admission over a multi-region fabric.

Where :class:`~repro.service.manager.SessionManager` runs the *full*
Visapult world (DPSS block servers, per-PE pipelines, TCP models) for
a handful of viewers, the shard layer answers the capacity question at
the other end of the scale -- *can this deployment admit ten thousand
sessions, and where do they land?* Each session is modelled as one
fluid transfer over the site fabric (DPSS read + edge delivery +
inter-site WAN leg when spilled), so the whole campaign is bookkeeping
plus the fluid allocator:

- **placement**: every arrival is homed at a site (its profile's
  ``region``, or round-robin) and receives an Icarus-style
  :class:`~repro.service.admission.AdmissionVerdict` -- served at home
  (``local``), at the reachable remote site with the fewest active
  sessions (``spill``), parked in the home FIFO (``queued``), or
  ``rejected``.
- **flow classes**: same-profile sessions on the same (serving,
  home, warmth) path collapse into one aggregate flow
  (:class:`~repro.simcore.flowclass.FlowClassPool`), so allocator
  cost scales with the number of *classes*, not sessions; the
  per-session pool in ``tests/oracles/per_session_pool.py`` is the
  bitwise-pinned reference.
- **edge caches**: a warm :class:`~repro.service.cache.EdgeCacheModel`
  hit at the serving site drops the DPSS leg from the session's flow.

Sessions are callback-driven -- one driver process walks the arrival
schedule and completions ride the fluid pool's events -- so a 10k
session campaign runs without 10k simulation processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.config import TopologyConfig, named_topology
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.sites import SiteFabric
from repro.service.admission import AdmissionVerdict, SlotQueue
from repro.service.cache import CacheStats, EdgeCacheModel
from repro.service.metrics import SessionRecord, ShardMetrics, result_payload
from repro.service.workload import ViewerProfile, WorkloadSpec
from repro.simcore.env import Environment
from repro.simcore.events import Event
from repro.simcore.flowclass import FlowClass, FlowClassPool
from repro.simcore.process import Process
from repro.util.rng import spawn_rngs
from repro.util.units import MB

__all__ = [
    "ShardCampaign",
    "ShardResult",
    "ShardedSessionManager",
    "run_shard_campaign",
]

#: bytes one delivered frame moves over a session's path
_FRAME_WORK = 8 * MB


@dataclass(frozen=True)
class ShardCampaign:
    """A multi-site serving campaign at fluid-flow granularity."""

    name: str
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: frames per session unless the viewer profile overrides
    frames: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        known = set(self.topology.site_names)
        for profile in self.workload.profiles:
            if profile.region is not None and profile.region not in known:
                raise ValueError(
                    f"profile {profile.name!r} is homed at unknown site "
                    f"{profile.region!r}; topology has "
                    f"{sorted(known)}"
                )

    @property
    def effective_seed(self) -> int:
        """The seed the whole shard run derives from."""
        return self.seed

    def with_changes(self, **changes: Any) -> "ShardCampaign":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def sc99_serve10k(
        cls,
        *,
        n_sessions: int = 10000,
        **kw: Any,
    ) -> "ShardCampaign":
        """The scale story: 10k sessions arriving at 100/s over four
        serve10k regions.

        Four pinned analyst populations plus a roaming population that
        lands round-robin; the roaming viewers are what exercises
        spill (their home region saturates first).
        """
        topology = named_topology("serve10k")
        profiles = tuple(
            ViewerProfile(name=f"analyst{i}", region=f"region{i}")
            for i in range(4)
        ) + (
            ViewerProfile(name="roaming", frames=2),
        )
        return cls(
            name="sc99-serve10k",
            topology=topology,
            workload=WorkloadSpec(
                n_viewers=n_sessions,
                arrival_rate=100.0,
                profiles=profiles,
            ),
            **kw,
        )


class ShardedSessionManager:
    """Places, queues, serves, and completes sessions over the fabric.

    Deterministic by construction: sites are scanned in topology
    declaration order, ties break first-wins, the arrival schedule is
    a pure function of (workload, seed), and completions ride the
    fluid pool's events -- no set iteration, no ids, no wall clocks.
    """

    def __init__(self, config: ShardCampaign):
        self.config = config
        self.env = Environment()
        self.fabric = SiteFabric(config.topology, env=self.env)
        self.daemon = NetLogDaemon()
        self.logger = NetLogger(
            "shard",
            "session-manager",
            clock=lambda: self.env.now,
            daemon=self.daemon,
        )
        self.pool = FlowClassPool(self.env, self.fabric.sched)
        self.records: List[SessionRecord] = []
        self.slots: Dict[str, SlotQueue] = {}
        self.caches: Dict[str, Optional[EdgeCacheModel]] = {}
        for site in config.topology.sites:
            self.slots[site.name] = SlotQueue(
                self.env,
                max_slots=site.max_sessions,
                queue_depth=site.queue_depth,
            )
            self.caches[site.name] = (
                EdgeCacheModel(site.cache_bytes)
                if site.cache_bytes > 0
                else None
            )
        self._classes: Dict[Tuple[str, str, str, bool], FlowClass] = {}
        self._site_names = config.topology.site_names
        self._next_sid = 0
        self._rr = 0
        self._outstanding = 0
        self._arrivals_done = False
        self._all_done = Event(self.env)
        self._rngs = spawn_rngs(config.effective_seed + 7, 1)

    # -- flow classes -------------------------------------------------
    def _session_frames(self, profile: ViewerProfile) -> int:
        return (
            profile.frames
            if profile.frames is not None
            else self.config.frames
        )

    def _session_bytes(self, profile: ViewerProfile) -> float:
        return _FRAME_WORK * self._session_frames(profile)

    def _flow_class(
        self, profile: ViewerProfile, serving: str, home: str, warm: bool
    ) -> FlowClass:
        """The (cached) class for one (profile, path, warmth) combo.

        Class identity must be stable across sessions so the pool can
        aggregate them; the key is exactly what determines the flow's
        resource footprint.
        """
        key = (profile.name, serving, home, warm)
        spec = self._classes.get(key)
        if spec is None:
            suffix = ":warm" if warm else ""
            spec = FlowClass(
                f"{profile.name}@{serving}->{home}{suffix}",
                self.fabric.path(serving, home, warm=warm),
            )
            self._classes[key] = spec
        return spec

    # -- placement ----------------------------------------------------
    def _home_of(self, profile: ViewerProfile) -> str:
        if profile.region is not None:
            return profile.region
        names = self._site_names
        home = names[self._rr % len(names)]
        self._rr += 1
        return home

    def _place(self, home: str) -> Tuple[str, str]:
        """(serving site, verdict) for an arrival homed at ``home``.

        Serve at home if a slot is free there; otherwise spill to the
        remote site with a free slot and the fewest active sessions
        (declaration order breaks ties) whose path to home has
        capacity; otherwise queue at home; otherwise reject.
        """
        if self.slots[home].has_slot:
            return home, AdmissionVerdict.LOCAL
        best: Optional[str] = None
        for name in self._site_names:
            slot = self.slots[name]
            if (
                name == home
                or not slot.has_slot
                # A zero-rate core would stall the flow forever.
                or self.fabric.link_between(name, home).capacity <= 0
            ):
                continue
            if best is None or slot.active < self.slots[best].active:
                best = name
        if best is not None:
            return best, AdmissionVerdict.SPILL
        if self.slots[home].can_queue:
            return home, AdmissionVerdict.QUEUED
        return home, AdmissionVerdict.REJECTED

    # -- session lifecycle --------------------------------------------
    def _admit(self, sid: int, profile: ViewerProfile) -> None:
        env = self.env
        home = self._home_of(profile)
        record = SessionRecord(
            session=sid, profile=profile.name, arrival=env.now, home=home
        )
        self.records.append(record)
        self.logger.log(
            Tags.SVC_ARRIVAL, session=sid, profile=profile.name, home=home
        )
        serving, verdict = self._place(home)
        record.verdict = verdict
        self.logger.log(
            Tags.SVC_PLACE,
            session=sid,
            home=home,
            site=serving,
            verdict=verdict,
        )
        if verdict == AdmissionVerdict.REJECTED:
            record.rejected = True
            record.reject_reason = "capacity"
            self.logger.log(
                Tags.SVC_REJECT, session=sid, reason="capacity"
            )
            self._resolve()
            return
        record.served = serving
        slot = self.slots[serving].acquire()
        if slot is not None:
            # QUEUED: the home FIFO hands this arrival a slot later;
            # the slot is already held when the event fires.
            self.logger.log(
                Tags.SVC_QUEUE,
                session=sid,
                depth=self.slots[serving].depth,
            )
            slot.callbacks.append(
                lambda _ev, r=record, p=profile, s=serving: self._start(
                    r, p, s
                )
            )
            return
        if verdict == AdmissionVerdict.SPILL:
            self.logger.log(
                Tags.SVC_SPILL, session=sid, home=home, site=serving
            )
        self._start(record, profile, serving)

    def _start(
        self, record: SessionRecord, profile: ViewerProfile, serving: str
    ) -> None:
        env = self.env
        record.admitted = env.now
        record.started = env.now
        self.logger.log(
            Tags.SVC_ADMIT,
            session=record.session,
            wait=env.now - record.arrival,
        )
        self.logger.log(
            Tags.SVC_START, session=record.session, site=serving
        )
        work = self._session_bytes(profile)
        cache = self.caches[serving]
        warm = (
            cache.lookup((profile.name,), work)
            if cache is not None
            else False
        )
        spec = self._flow_class(profile, serving, record.home, warm)
        done = self.pool.submit(spec, work, name=f"s{record.session}")
        frames = self._session_frames(profile)
        done.callbacks.append(
            lambda _ev, r=record, s=serving, n=frames: self._finish(r, s, n)
        )

    def _finish(
        self, record: SessionRecord, serving: str, frames: int
    ) -> None:
        record.ended = self.env.now
        started = record.started if record.started is not None else 0.0
        # The flow delivers frames uniformly: the first lands one
        # frame-span into the session's active window.
        record.first_frame = started + (record.ended - started) / frames
        record.frames = frames
        self.logger.log(
            Tags.SVC_END, session=record.session, frames=frames
        )
        self.slots[serving].release()
        self._resolve()

    def _resolve(self) -> None:
        self._outstanding -= 1
        if (
            self._arrivals_done
            and self._outstanding == 0
            and not self._all_done.triggered
        ):
            self._all_done.succeed(None)

    # -- driver -------------------------------------------------------
    def _run(self) -> Generator[Any, Any, None]:
        env = self.env
        arrivals = self.config.workload.arrivals(self._rngs[0])
        for t, profile in arrivals:
            delay = t - env.now
            if delay > 0:
                yield env.timeout(delay)
            sid = self._next_sid
            self._next_sid += 1
            self._outstanding += 1
            self._admit(sid, profile)
        self._arrivals_done = True
        if self._outstanding > 0:
            yield self._all_done

    def run(self) -> Process:
        """The driver process: completes when every session resolved."""
        return self.env.process(self._run())

    # -- introspection ------------------------------------------------
    def cache_stats(self) -> Dict[str, CacheStats]:
        """Per-site edge-cache counters (sites with a cache only)."""
        return {
            name: cache.stats
            for name, cache in self.caches.items()
            if cache is not None
        }


@dataclass
class ShardResult:
    """One finished shard campaign: metrics plus allocator accounting."""

    campaign: ShardCampaign
    metrics: ShardMetrics
    records: List[SessionRecord] = field(default_factory=list)
    total_time: float = 0.0
    #: fluid allocator counters (``FluidScheduler.stats``)
    alloc: Dict[str, int] = field(default_factory=dict)
    #: flow-class pool counters (``FlowClassPool.stats``)
    flows: Dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        """The versioned JSON envelope (schema_version + kind=shard)."""
        config = self.campaign
        return result_payload(
            "shard",
            self.metrics,
            campaign={
                "name": config.name,
                "sites": list(config.topology.site_names),
                # constants since their options left TopologyConfig /
                # the per-session pool left src/; dropping the keys is
                # a schema_version 2 change
                "placement": "nearest",
                "spill": True,
                "flow_classes": True,
                "sessions": config.workload.total_sessions,
                "seed": config.effective_seed,
            },
            total_time=self.total_time,
            alloc=self.alloc,
            flows=self.flows,
        )

    def summary(self) -> str:
        """Human-readable shard block."""
        config = self.campaign
        lines = [
            f"shard campaign {config.name}: "
            f"{len(config.topology.sites)} sites, "
            "nearest placement, flow-class aggregation",
            self.metrics.summary(),
            f"  makespan          : {self.total_time:.1f} s simulated",
            f"  allocator         : "
            f"{self.alloc.get('flows_touched', 0)} flows touched over "
            f"{self.alloc.get('components_solved', 0)} component solves",
        ]
        return "\n".join(lines)


def run_shard_campaign(
    config: ShardCampaign,
    *,
    ulm_path: Optional[str] = None,
) -> ShardResult:
    """Build and run a sharded serving campaign to completion."""
    manager = ShardedSessionManager(config)
    done = manager.run()
    manager.env.run(until=done)
    total_time = manager.env.now
    if ulm_path is not None:
        manager.daemon.write_ulm(ulm_path)
    metrics = ShardMetrics.from_records(
        manager.records,
        config.topology.site_names,
        total_time=total_time,
        site_cache_stats=manager.cache_stats(),
    )
    return ShardResult(
        campaign=config,
        metrics=metrics,
        records=list(manager.records),
        total_time=total_time,
        alloc=manager.fabric.sched.stats.to_dict(),
        flows=manager.pool.stats.to_dict(),
    )
