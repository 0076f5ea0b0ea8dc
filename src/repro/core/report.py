"""Reducing a campaign run into the paper's reported quantities."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple, Type, TypeVar

import numpy as np

from repro.netlogger.analysis import EventLog
from repro.util.stats import percentile
from repro.util.units import bytes_per_sec_to_mbps, fmt_seconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.backend.sim import SimBackEnd
    from repro.core.campaign import CampaignConfig
    from repro.netlogger.daemon import NetLogDaemon
    from repro.netsim.topology import Network
    from repro.viewer.sim import SimViewer


_R = TypeVar("_R", bound="CampaignResult")

#: per-feature counters :class:`~repro.backend.sim.BackEndTiming` and
#: :class:`CampaignResult` carry under the same name; a result's value
#: is the sum over the run's back ends
FEATURE_COUNTERS = (
    "retries",
    "hedges",
    "hedges_abandoned",
    "reconstructions",
    "parity_bytes",
    "stripe_cancels",
    "tiles_full",
    "tiles_ref",
    "tile_bytes_saved",
)


@dataclass
class CampaignResult:
    """Derived measurements of one campaign run.

    ``mean_load``/``mean_render`` are the per-frame makespans across
    PEs (the L and R the paper reads off its NLV plots);
    ``load_throughput_mbps`` is the aggregate DPSS->back end goodput
    while loads were in flight.
    """

    config: "CampaignConfig"
    total_time: float
    n_frames: int
    mean_load: float
    std_load: float
    mean_render: float
    std_render: float
    load_throughput_mbps: float
    wan_capacity_mbps: float
    backend_to_viewer_bytes: float
    dpss_to_backend_bytes: float
    viewer_frames_complete: int
    event_log: EventLog = field(repr=False)
    per_frame_load: Dict[int, float] = field(default_factory=dict, repr=False)
    per_frame_render: Dict[int, float] = field(default_factory=dict, repr=False)
    #: sampled (time, fraction-of-usable-capacity) on the WAN link --
    #: the bandwidth-over-time view NLV plots alongside the lifelines
    wan_utilization_series: list = field(default_factory=list, repr=False)
    #: concurrency-sanitizer findings when the campaign ran with
    #: ``sanitize=True`` (empty for clean or unsanitized runs)
    sanitizer_findings: list = field(default_factory=list, repr=False)
    #: frames at least one PE completed with stale/absent data because
    #: a DPSS read came up short under injected faults
    degraded_frames: int = 0
    #: DPSS read attempts beyond the first, summed across PEs
    retries: int = 0
    #: hedged duplicate reads issued to replicas
    hedges: int = 0
    #: span from the first injected fault to the last FAULT_*/RETRY_*
    #: event -- how long the run spent reacting to the fault schedule
    recovery_seconds: float = 0.0
    #: tile mode: full tiles / delta references shipped to the viewer
    #: (both zero for whole-slab runs)
    tiles_full: int = 0
    tiles_ref: int = 0
    #: tile mode: texture bytes delta references kept off the WAN
    tile_bytes_saved: float = 0.0
    #: striped mode: hedged duplicates torn down before completing
    #: (these never count as retries)
    hedges_abandoned: int = 0
    #: striped mode: blocks rebuilt from parity instead of re-read
    reconstructions: int = 0
    #: striped mode: redundancy bytes (parity + fillers) on the wire
    parity_bytes: float = 0.0
    #: striped mode: redundant shares cancelled once coverage was met
    stripe_cancels: int = 0
    #: p99 of per-read DPSS latency across all PEs and frames
    read_p99: float = 0.0

    @classmethod
    def from_run(
        cls,
        config: "CampaignConfig",
        network: "Network",
        backend: "SimBackEnd",
        viewer: "SimViewer",
        daemon: "NetLogDaemon",
    ) -> "CampaignResult":
        """Reduce a finished one-viewer run."""
        return cls.reduce(
            config,
            network,
            daemon,
            [backend],
            total_time=backend.timing.total_time,
            n_frames=config.n_timesteps,
            viewer_frames_complete=viewer.complete_frames(backend.n_pes),
        )

    @classmethod
    def reduce(
        cls: Type[_R],
        config: "CampaignConfig",
        network: "Network",
        daemon: "NetLogDaemon",
        backends: Sequence["SimBackEnd"],
        *,
        total_time: float,
        n_frames: int,
        viewer_frames_complete: int,
        **extra: Any,
    ) -> _R:
        """Reduce the merged event stream and the back ends' timings of
        a finished run -- one back end for a campaign, one per admitted
        session for a service. ``extra`` carries a subclass's fields."""
        log = EventLog(daemon.events)
        load_spans = log.load_spans()
        render_spans = log.render_spans()
        per_frame_load = log.per_frame_makespan(load_spans)
        per_frame_render = log.per_frame_makespan(render_spans)
        # L and R are per-PE span durations, as read off the NLV plots
        # (per-frame makespans desynchronise in overlapped mode).
        loads = np.array([s.duration for s in load_spans] or [0.0])
        renders = np.array([s.duration for s in render_spans] or [0.0])

        # Aggregate goodput while data was moving: bytes loaded over
        # the union span of load activity per frame, averaged.
        bytes_per_frame = config.meta.bytes_per_timestep
        load_rates = [
            bytes_per_frame / t for t in per_frame_load.values() if t > 0
        ]
        load_mbps = (
            float(np.mean([bytes_per_sec_to_mbps(r) for r in load_rates]))
            if load_rates
            else 0.0
        )

        inject_ts = [
            e.ts for e in log.events if e.event == "FAULT_INJECT"
        ]
        fault_ts = [
            e.ts for e in log.events
            if e.event.startswith(("FAULT_", "RETRY_"))
        ]
        recovery = max(fault_ts) - min(inject_ts) if inject_ts else 0.0

        # Back-end timings add up by name: the two byte totals are
        # renamed on the result, the feature counters keep their names.
        totals: Dict[str, Any] = dict.fromkeys(
            ("bytes_sent_to_viewer", "bytes_loaded") + FEATURE_COUNTERS, 0
        )
        reads: List[float] = []
        # a frame is degraded per session: (session, frame) pairs
        degraded = set()
        for backend in backends:
            timing = backend.timing
            for name in totals:
                totals[name] += getattr(timing, name)
            reads += timing.read_seconds
            for frame in timing.degraded_frames:
                degraded.add((backend.session, frame))
        return cls(
            config=config,
            total_time=total_time,
            n_frames=n_frames,
            mean_load=float(loads.mean()),
            std_load=float(loads.std()),
            mean_render=float(renders.mean()),
            std_render=float(renders.std()),
            load_throughput_mbps=load_mbps,
            wan_capacity_mbps=bytes_per_sec_to_mbps(
                config.wan.usable_capacity
            ),
            backend_to_viewer_bytes=totals.pop("bytes_sent_to_viewer"),
            dpss_to_backend_bytes=totals.pop("bytes_loaded"),
            viewer_frames_complete=viewer_frames_complete,
            event_log=log,
            per_frame_load=per_frame_load,
            per_frame_render=per_frame_render,
            wan_utilization_series=(
                network.links[config.wan.name]
                .resource.utilization_timeseries()
            ),
            degraded_frames=len(degraded),
            recovery_seconds=recovery,
            read_p99=percentile(reads, 99),
            **totals,
            **extra,
        )

    # -- derived -----------------------------------------------------------
    @property
    def wan_utilization(self) -> float:
        """Load throughput as a fraction of the WAN line rate."""
        line_mbps = bytes_per_sec_to_mbps(self.config.wan.rate)
        return self.load_throughput_mbps / line_mbps if line_mbps else 0.0

    @property
    def traffic_asymmetry(self) -> float:
        """DPSS->back end bytes over back end->viewer bytes.

        "the majority of communication was between the DPSS and the
        Visapult back end, with the link between the Visapult back end
        and viewer requiring much less bandwidth" (section 4.1).
        """
        if self.backend_to_viewer_bytes == 0:
            return float("inf")
        return self.dpss_to_backend_bytes / self.backend_to_viewer_bytes

    @property
    def seconds_per_timestep(self) -> float:
        """Average pipeline period (the section 5 "new timestep every
        N seconds" quantity)."""
        return self.total_time / self.n_frames if self.n_frames else 0.0

    def metrics_dict(self) -> Dict[str, float]:
        """Flat JSON-ready numbers for the versioned result payload:
        every scalar field plus the derived properties."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.type in ("int", "float")
        }
        out.update(
            seconds_per_timestep=self.seconds_per_timestep,
            wan_utilization=self.wan_utilization,
            traffic_asymmetry=self.traffic_asymmetry,
        )
        return out

    def to_payload(self) -> Dict[str, Any]:
        """The versioned JSON envelope (schema_version + kind=campaign)."""
        # Lazy: repro.service imports this module for CampaignResult.
        from repro.service.metrics import result_payload

        return result_payload("campaign", self.metrics_dict())

    def _shared_lines(self) -> Tuple[List[str], List[str]]:
        """The summary lines a campaign block and a service block have
        in common: ``(load and render, tile delta)``, the second empty
        for a whole-slab run."""
        load_render = [
            f"  load (L)          : {self.mean_load:.2f} s/frame"
            f" +- {self.std_load:.2f}",
            f"  render (R)        : {self.mean_render:.2f} s/frame"
            f" +- {self.std_render:.2f}",
        ]
        total = self.tiles_full + self.tiles_ref
        if not total:
            return load_render, []
        return load_render, [
            f"  tile delta        : {self.tiles_full} full /"
            f" {self.tiles_ref} ref tiles"
            f" ({self.tiles_ref / total:.0%} referenced,"
            f" {self.tile_bytes_saved / 1e6:.1f} MB saved)"
        ]

    def summary(self) -> str:
        """A human-readable result block."""
        cfg = self.config
        load_render, tile_delta = self._shared_lines()
        lines = [
            f"campaign {cfg.name}: {cfg.n_pes} PEs on {cfg.platform.name}, "
            f"{'overlapped' if cfg.overlapped else 'serial'}, "
            f"{self.n_frames} timesteps",
            f"  total time        : {fmt_seconds(self.total_time)}"
            f" ({fmt_seconds(self.seconds_per_timestep)}/timestep)",
            *load_render,
            f"  DPSS->BE goodput  : {self.load_throughput_mbps:.0f} Mbps"
            f" ({self.wan_utilization:.0%} of {cfg.wan.name} line rate)",
            f"  BE->viewer bytes  : "
            f"{self.backend_to_viewer_bytes / 1e6:.1f} MB"
            f" (asymmetry {self.traffic_asymmetry:.0f}x)",
            f"  viewer frames     : {self.viewer_frames_complete}"
            f"/{self.n_frames} complete",
        ]
        if getattr(cfg, "faults", None) is not None:
            lines.append(
                f"  faults            : {self.degraded_frames} degraded"
                f" frame(s), {self.retries} retries, {self.hedges} hedges,"
                f" recovery {fmt_seconds(self.recovery_seconds)}"
            )
        if cfg.stripe.enabled:
            lines.append(
                f"  stripe {cfg.stripe.spec():<11}: "
                f"{self.reconstructions} reconstruction(s),"
                f" {self.parity_bytes / 1e6:.1f} MB redundancy,"
                f" {self.stripe_cancels} cancel(s),"
                f" p99 read {self.read_p99:.2f} s"
            )
        return "\n".join(lines + tile_delta)
