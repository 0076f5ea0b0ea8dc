"""The five benchmark workloads.

Each workload is three functions over the program's public entry points
(``repro.api``, ``repro.service``, ``repro.netlogger``, ``repro.volren``,
``repro.ibravr``, ``repro.scenegraph``, ``repro.protocol``,
``repro.datagen``):

- ``build(seed, quick, workdir)`` makes the inputs (configs, readers).
  It is the second half of set-up; importing this module is the first.
  A workload that reads a dataset also has ``prepare``, which writes
  it under ``workdir`` once per run, before any round and outside
  set-up: generating 128 MB of bricks took 2.2-8.5 s for the same code
  on the 2-core sandbox (page faults and write-back), which would bury
  the import and construction cost ``setup_s`` is there to watch.
- ``run(inputs)`` is exactly one pass: the timed (or traced) region.
- ``report(inputs, raw)`` runs the output checks and reduces the pass
  to simulated metrics, exact counts and digests -- all outside the
  timed region.

Two clocks are kept apart: everything returned by ``report`` is a
*simulated* quantity or an exact count and must repeat bit for bit for
a given seed; host time is measured by the caller.

Why these five, and not the registry as a whole, is recorded in each
workload's ``why`` (also the text in ``BENCHMARK.json``): each one
stresses a different layer, and for every optimisation the ROADMAP
names there is a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import api
from repro.datagen import (
    CombustionConfig,
    TimeSeriesMeta,
    TimeSeriesReader,
    TimeSeriesWriter,
    combustion_field,
)
from repro.ibravr import IbravrModel, best_view_axis
from repro.ibravr.artifacts import ground_truth_frame
from repro.netlogger import EventLog, format_ulm
from repro.protocol import HeavyPayload, decode_message, encode_message
from repro.scenegraph import Camera
from repro.service import (
    ServiceMetrics,
    SessionManager,
    ShardedSessionManager,
    ShardMetrics,
)
from repro.volren import TransferFunction, VolumeRenderer, slab_decompose
from repro.volren.renderer import SlabRendering

_BITS_PER_MBIT = 1.0e6 / 8.0


@dataclass
class Report:
    """What one pass produced, reduced outside the timed region."""

    #: simulated end-to-end metrics that apply to this workload
    metrics: Dict[str, float] = field(default_factory=dict)
    #: exact per-layer counts read off the program's stats objects
    counts: Dict[str, float] = field(default_factory=dict)
    #: frames the pass set out to deliver
    attempted: int = 0
    #: frames the modelled system did not deliver complete (degraded
    #: under an injected fault, or belonging to a rejected session)
    undelivered: int = 0
    #: frames covered by an output check that failed
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: sha256 of each campaign's ULM stream / the composite checksum
    digests: Dict[str, str] = field(default_factory=dict)
    #: sample counts behind percentile metrics
    notes: Dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, frames: int, message: str) -> None:
        """Record an output check; a failure costs ``frames`` frames."""
        if not ok:
            self.failed += frames
            self.failures.append(message)

    def add_counts(self, counts: Dict[str, float]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool, str], Any]
    run: Callable[[Any], Any]
    report: Callable[[Any, Any], Report]
    prepare: Optional[Callable[[int, bool, str], None]] = None


def _ulm_sha256(events) -> str:
    digest = hashlib.sha256()
    for event in events:
        digest.update(format_ulm(event).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _fluid_counts(stats: Dict[str, int]) -> Dict[str, float]:
    return {
        "simcore.fluid.changes": stats["events"],
        "simcore.fluid.solves": stats["components_solved"],
        "simcore.fluid.flows_touched": stats["flows_touched"],
        "simcore.fluid.wakes_scheduled": stats["wakes_scheduled"],
        "simcore.fluid.stale_wakes": stats["stale_wakes"],
    }


# -- single-session campaigns (paper_figs, flaky_striped) ----------------

@dataclass
class _CampaignRun:
    result: Any  # api.CampaignResult
    alloc: Dict[str, int]
    read_seconds: List[float]


def _run_campaign(config) -> _CampaignRun:
    """``api.run_campaign`` spelled out, so the allocator's stats object
    (which the result does not carry) can be read before the world is
    dropped."""
    net, backend, viewer, daemon = api.build_session(config)
    net.run(until=backend.run())
    result = api.CampaignResult.from_run(config, net, backend, viewer, daemon)
    return _CampaignRun(
        result=result,
        alloc=net.sched.stats.to_dict(),
        read_seconds=list(backend.timing.read_seconds),
    )


def _campaign_report(runs: List[_CampaignRun]) -> Report:
    """Metrics, counts and digests shared by the campaign workloads."""
    report = Report()
    frames = sum(run.result.viewer_frames_complete for run in runs)
    report.attempted = sum(run.result.n_frames for run in runs)
    report.undelivered = sum(
        run.result.degraded_frames
        + run.result.n_frames - run.result.viewer_frames_complete
        for run in runs
    )
    report.metrics["sim_s_per_frame"] = (
        sum(run.result.total_time for run in runs) / frames
    )
    report.metrics["sim_load_mbps"] = (
        sum(run.result.load_throughput_mbps * run.result.n_frames
            for run in runs) / report.attempted
    )
    report.metrics["sim_viewer_bytes"] = sum(
        run.result.backend_to_viewer_bytes for run in runs
    )
    reads: List[float] = []
    for index, run in enumerate(runs):
        result = run.result
        reads.extend(run.read_seconds)
        report.digests[f"{index}:{result.config.name}"] = _ulm_sha256(
            result.event_log.events
        )
        report.add_counts(_fluid_counts(run.alloc))
        report.add_counts({
            "dpss.retries": result.retries,
            "dpss.hedges": result.hedges,
            "dpss.hedges_abandoned": result.hedges_abandoned,
            "dpss.reconstructions": result.reconstructions,
            "dpss.stripe_cancels": result.stripe_cancels,
            "dpss.parity_bytes": result.parity_bytes,
            "faults.injected": sum(
                1 for e in result.event_log.events
                if e.event == "FAULT_INJECT"
            ),
            "backend.frames": result.n_frames,
            "backend.degraded_frames": result.degraded_frames,
            "backend.tiles_full": result.tiles_full,
            "backend.tiles_ref": result.tiles_ref,
            "backend.tile_bytes_saved": result.tile_bytes_saved,
            "viewer.frames_complete": result.viewer_frames_complete,
            "netlogger.events": len(result.event_log),
        })
    report.counts["simcore.fluid.max_component_flows"] = max(
        run.alloc["max_component_flows"] for run in runs
    )
    report.counts["dpss.reads"] = len(reads)
    report.counts["dpss.read_p50_s"] = (
        float(np.percentile(reads, 50)) if reads else 0.0
    )
    return report


def _check_fault_free(report: Report, run: _CampaignRun) -> None:
    result = run.result
    name = result.config.name
    report.check(
        result.viewer_frames_complete == result.n_frames,
        result.n_frames,
        f"{name}: viewer completed {result.viewer_frames_complete} "
        f"of {result.n_frames} frames",
    )
    expected = result.n_frames * result.config.meta.bytes_per_timestep
    report.check(
        result.dpss_to_backend_bytes == expected,
        result.n_frames,
        f"{name}: DPSS delivered {result.dpss_to_backend_bytes} bytes, "
        f"expected {expected}",
    )


# -- paper_figs -----------------------------------------------------------

#: (registry name, overlapped): Figures 13, 10 and 17
_PAPER_RUNS = (
    ("lan_e4500", True), ("nton_cplant4", False), ("esnet_anl", True),
)


def _paper_references(lan, nton, esnet) -> List[Tuple[float, float]]:
    """(simulated, paper) for the nine EXPERIMENTS.md quantities the
    three instrumented runs reproduce."""
    return [
        (lan.total_time, 169.0),
        (lan.mean_load, 15.0),
        (lan.mean_render, 12.0),
        (nton.mean_load, 3.0),
        (nton.load_throughput_mbps, 433.0),
        (nton.mean_render, 8.5),
        (nton.wan_utilization, 0.70),
        (esnet.mean_load, 10.0),
        (esnet.seconds_per_timestep, 10.0),
    ]


def _paper_build(seed: int, quick: bool, workdir: str):
    configs = []
    for name, overlapped in _PAPER_RUNS:
        config = api.named_campaign(name, overlapped=overlapped)
        config = config.with_changes(seed=config.seed + seed)
        if quick:
            config = config.with_changes(
                n_timesteps=2, shape=(160, 64, 64)
            )
        configs.append(config)
    return configs


def _campaigns_run(configs) -> List[_CampaignRun]:
    return [_run_campaign(config) for config in configs]


def _paper_report(configs, runs: List[_CampaignRun]) -> Report:
    report = _campaign_report(runs)
    for run in runs:
        _check_fault_free(report, run)
    pairs = _paper_references(*(run.result for run in runs))
    report.metrics["paper_error"] = sum(
        abs(sim - paper) / paper for sim, paper in pairs
    ) / len(pairs)
    return report


# -- flaky_striped --------------------------------------------------------

def _flaky_build(seed: int, quick: bool, workdir: str):
    base = api.Campaign.sc99_flaky(n_timesteps=4 if quick else 10)
    base = base.with_changes(seed=base.seed + seed)
    if not quick:
        base = base.with_changes(shape=(240, 96, 96), dataset_timesteps=16)
    striped = base.with_changes(
        stripe=api.StripeConfig(enabled=True),
        tiles=api.TileConfig(enabled=True),
    )
    return [base, striped]


def _flaky_report(configs, runs: List[_CampaignRun]) -> Report:
    report = _campaign_report(runs)
    striped = runs[1].result
    report.check(
        striped.retries == 0,
        striped.n_frames,
        f"striped run retried {striped.retries} reads; parity should "
        f"reconstruct instead",
    )
    report.metrics["sim_read_p99_s"] = max(
        run.result.read_p99 for run in runs
    )
    return report


# -- multiviewer ----------------------------------------------------------

def _multiviewer_build(seed: int, quick: bool, workdir: str):
    # The registry's arrival schedule, whatever the seed: eight Poisson
    # arrivals are too few to redraw.  Over seeds 0-9 a redraw moved
    # sim_s_per_frame by 40 % and the TTFF p95 by 19 % (quartile
    # distance over median) -- any regression would drown in that --
    # and the service seed drives nothing else, because the sessions
    # run the serial pipeline, which has no load jitter to seed.
    if quick:
        config = api.ServiceCampaign.sc99_multiviewer(
            n_viewers=3, n_timesteps=2
        )
        return config.with_changes(
            base=config.base.with_changes(shape=(128, 64, 64))
        )
    return api.ServiceCampaign.sc99_multiviewer(n_viewers=8)


def _multiviewer_run(config):
    manager = SessionManager(config)
    manager.net.run(until=manager.run())
    total_time = manager.net.env.now
    metrics = ServiceMetrics.from_records(
        manager.records,
        total_time=total_time,
        cache_hit_ratio=manager.cache_stats.hit_ratio,
    )
    log = EventLog(manager.daemon.events)
    return manager, metrics, log


def _multiviewer_report(config, raw) -> Report:
    manager, metrics, log = raw
    report = Report()
    workload = config.workload
    report.attempted = sum(
        workload.profile_of(i).frames or config.base.n_timesteps
        for i in range(workload.total_sessions)
    )
    degraded = sum(len(b.timing.degraded_frames) for b in manager.backends)
    report.undelivered = (
        report.attempted - metrics.frames_delivered + degraded
    )
    report.check(
        metrics.offered == workload.total_sessions
        and metrics.frames_delivered == report.attempted,
        report.attempted,
        f"multiviewer delivered {metrics.frames_delivered} of "
        f"{report.attempted} frames to {metrics.offered} sessions",
    )
    stats = manager.cache_stats
    slab_bytes = manager.meta.bytes_per_timestep / config.base.n_pes
    loaded = sum(b.timing.bytes_loaded for b in manager.backends)
    report.check(
        loaded == stats.misses * slab_bytes,
        report.attempted,
        f"multiviewer loaded {loaded} DPSS bytes for {stats.misses} "
        f"cache misses of {slab_bytes} bytes",
    )
    load_times = [t for t in log.per_frame_load_times().values() if t > 0]
    report.metrics = {
        "sim_s_per_frame": metrics.total_time / metrics.frames_delivered,
        "sim_load_mbps": float(np.mean([
            manager.meta.bytes_per_timestep / t / _BITS_PER_MBIT
            for t in load_times
        ])),
        "sim_ttff_p95_s": metrics.ttff_p95,
        "sim_viewer_bytes": sum(
            b.timing.bytes_sent_to_viewer for b in manager.backends
        ),
    }
    report.notes["sim_ttff_p95_s"] = f"n={metrics.offered} sessions"
    reads = [s for b in manager.backends for s in b.timing.read_seconds]
    alloc = manager.net.sched.stats.to_dict()
    report.counts = {
        **_fluid_counts(alloc),
        "simcore.fluid.max_component_flows": alloc["max_component_flows"],
        "dpss.reads": len(reads),
        "dpss.read_p50_s": float(np.percentile(reads, 50)) if reads else 0.0,
        "dpss.retries": sum(b.timing.retries for b in manager.backends),
        "dpss.hedges": sum(b.timing.hedges for b in manager.backends),
        "backend.frames": sum(
            b.timing.n_timesteps for b in manager.backends
        ),
        "backend.degraded_frames": degraded,
        "viewer.frames_complete": metrics.frames_delivered,
        "service.offered": metrics.offered,
        "service.rejected": metrics.rejected,
        "service.queued": metrics.queued,
        "service.cache_lookups": stats.lookups,
        "service.cache_hits": stats.hits,
        "service.cache_hit_ratio": stats.hit_ratio,
        "service.admission_p95_s": metrics.admission_p95,
        "netlogger.events": len(log),
    }
    report.digests[config.name] = _ulm_sha256(log.events)
    return report


# -- serve10k -------------------------------------------------------------

def _serve10k_build(seed: int, quick: bool, workdir: str):
    config = (
        api.ShardCampaign.sc99_serve10k(n_sessions=1500)
        if quick
        else api.ShardCampaign.sc99_serve10k()
    )
    return config.with_changes(seed=config.seed + seed)


def _serve10k_run(config):
    manager = ShardedSessionManager(config)
    manager.env.run(until=manager.run())
    metrics = ShardMetrics.from_records(
        manager.records,
        config.topology.site_names,
        total_time=manager.env.now,
        site_cache_stats=manager.cache_stats(),
    )
    return manager, metrics


def _serve10k_report(config, raw) -> Report:
    manager, metrics = raw
    service = metrics.service
    report = Report()
    report.attempted = sum(
        config.workload.profile_of(i).frames or config.frames
        for i in range(config.workload.total_sessions)
    )
    report.undelivered = report.attempted - service.frames_delivered
    flows = manager.pool.stats.to_dict()
    report.check(
        service.completed + service.rejected == service.offered
        == sum(metrics.verdicts.values()) == config.workload.total_sessions,
        report.attempted,
        f"serve10k: {service.completed} completed + {service.rejected} "
        f"rejected of {service.offered} offered, verdicts "
        f"{metrics.verdicts}",
    )
    report.check(
        flows["members_submitted"] == flows["members_completed"],
        report.attempted,
        f"serve10k: {flows['members_submitted']} flow members submitted, "
        f"{flows['members_completed']} completed",
    )
    report.metrics = {
        "sim_s_per_frame": service.total_time / service.frames_delivered,
        "sim_ttff_p95_s": service.ttff_p95,
    }
    report.notes["sim_ttff_p95_s"] = f"n={service.offered} sessions"
    alloc = manager.fabric.sched.stats.to_dict()
    hits = sum(s.hits for s in manager.cache_stats().values())
    lookups = sum(s.lookups for s in manager.cache_stats().values())
    report.counts = {
        **_fluid_counts(alloc),
        "simcore.fluid.max_component_flows": alloc["max_component_flows"],
        "simcore.flowclass.classes": flows["classes"],
        "simcore.flowclass.disaggregations": flows["disaggregations"],
        "simcore.flowclass.wakes_scheduled": flows["wakes_scheduled"],
        "simcore.flowclass.stale_wakes": flows["stale_wakes"],
        "service.offered": service.offered,
        "service.rejected": service.rejected,
        "service.queued": metrics.verdicts.get("queued", 0),
        "service.spills": metrics.verdicts.get("spill", 0),
        "service.cache_lookups": lookups,
        "service.cache_hits": hits,
        "service.cache_hit_ratio": service.cache_hit_ratio,
        "service.admission_p95_s": service.admission_p95,
        "netlogger.events": len(manager.daemon),
    }
    report.digests[config.name] = _ulm_sha256(manager.daemon.sorted_events())
    return report


# -- live_render ----------------------------------------------------------

@dataclass
class _LiveInputs:
    reader: TimeSeriesReader
    meta: TimeSeriesMeta
    tf: TransferFunction
    n_slabs: int
    frame_size: int
    truth_size: int
    start_azimuth: float


@dataclass
class _LiveRaw:
    frames_crc: int = 0
    roundtrip_ok: bool = True
    render_calls: int = 0
    voxels: int = 0
    raster_frames: int = 0
    messages: int = 0
    wire_bytes: int = 0
    bytes_read: int = 0
    #: timestep 0's slab renderings as the viewer decoded them
    first_renderings: List[SlabRendering] = field(default_factory=list)


_ORBIT_DEG_PER_STEP = 12.0
_REDRAWS_PER_STEP = 4
_ELEVATION_DEG = 10.0


def _live_prepare(seed: int, quick: bool, workdir: str) -> None:
    """One combustion field, rolled 3 voxels a step into a time series.

    The volume is the same for every seed: over volume seeds 0-9 the
    image error moved by 18 % (quartile distance over median) with the
    kernels' positions, far past the 1 % a kernel change is held to.
    The seed moves the camera instead (``_live_build``).
    """
    side, steps = (48, 4) if quick else (128, 16)
    volume = combustion_field(
        0.0, CombustionConfig(shape=(side, side, side), n_kernels=2)
    )
    meta = TimeSeriesMeta("live-render", volume.shape, steps)
    writer = TimeSeriesWriter(os.path.join(workdir, "series"), meta)
    for step in range(steps):
        writer.write(step, np.roll(volume, 3 * step, axis=0))


def _live_build(seed: int, quick: bool, workdir: str) -> _LiveInputs:
    reader = TimeSeriesReader(os.path.join(workdir, "series"))
    return _LiveInputs(
        reader=reader,
        meta=reader.meta,
        tf=TransferFunction.fire(),
        n_slabs=8,
        frame_size=96 if quick else 256,
        truth_size=96,
        # an eighth of an orbit step per seed: every rasterised frame
        # differs; the orbit still spends 8 steps on x slabs and 8 on
        # y, and timestep 0 still renders the x slabs the on-axis
        # image-error reference is built from
        start_azimuth=(seed % 8) * _ORBIT_DEG_PER_STEP / 8.0,
    )


def _live_run(inputs: _LiveInputs) -> _LiveRaw:
    """``live/backend._render_and_send`` + ``live/viewer._integrate``
    per timestep, on one thread and without the sockets."""
    raw = _LiveRaw()
    meta = inputs.meta
    renderer = VolumeRenderer(inputs.tf)
    model = IbravrModel()
    for step in range(meta.n_timesteps):
        azimuth = inputs.start_azimuth + _ORBIT_DEG_PER_STEP * step
        choice = best_view_axis(Camera.orbit(azimuth, _ELEVATION_DEG).forward)
        subs = slab_decompose(meta.shape, inputs.n_slabs, axis=choice.axis)
        # The brick format slices along x only; for a y/z slab axis the
        # back end reads the timestep once and cuts its slabs from it.
        whole = None
        if choice.axis != 0:
            whole = inputs.reader.read_slab(step, 0, meta.shape[0])
            raw.bytes_read += whole.nbytes
        renderings = []
        for sub in subs:
            if whole is None:
                voxels = inputs.reader.read_slab(step, sub.lo[0], sub.hi[0])
                raw.bytes_read += voxels.nbytes
            else:
                voxels = sub.extract(whole)
            rendering = renderer.render(
                sub, voxels, meta.shape, axis=choice.axis, flip=choice.flip
            )
            raw.render_calls += 1
            raw.voxels += sub.n_voxels
            texture8 = np.clip(rendering.image * 255.0, 0, 255).astype(
                np.uint8
            )
            msg_type, body = encode_message(
                HeavyPayload(rank=sub.rank, frame=step, texture=texture8)
            )
            heavy = decode_message(msg_type, body)
            raw.messages += 2
            raw.wire_bytes += len(body)
            if not np.array_equal(heavy.texture, texture8):
                raw.roundtrip_ok = False
            renderings.append(SlabRendering(
                rank=heavy.rank,
                image=heavy.texture.astype(np.float32) / 255.0,
                depth=heavy.depth,
                axis=rendering.axis,
                flip=rendering.flip,
                slab_center=rendering.slab_center,
                slab_lo=rendering.slab_lo,
                slab_hi=rendering.slab_hi,
            ))
        model.update(renderings)
        if step == 0:
            raw.first_renderings = renderings
        for redraw in range(_REDRAWS_PER_STEP):
            camera = Camera.orbit(
                azimuth + redraw * _ORBIT_DEG_PER_STEP / _REDRAWS_PER_STEP,
                _ELEVATION_DEG,
            )
            frame = model.render_frame(
                camera, inputs.frame_size, inputs.frame_size
            )
            raw.raster_frames += 1
            raw.frames_crc = zlib.crc32(
                np.ascontiguousarray(frame), raw.frames_crc
            )
    return raw


def _live_report(inputs: _LiveInputs, raw: _LiveRaw) -> Report:
    report = Report()
    report.attempted = inputs.meta.n_timesteps * _REDRAWS_PER_STEP
    report.check(
        raw.roundtrip_ok,
        report.attempted,
        "live_render: decode(encode(texture)) changed the texture",
    )
    # E9's measure: the IBRAVR frame of timestep 0 against a ray cast
    # of the same volume through the same on-axis camera.
    camera = Camera.orbit(0.0, 0.0)
    size = inputs.truth_size
    model = IbravrModel()
    model.update(raw.first_renderings)
    diff = model.render_frame(camera, size, size) - ground_truth_frame(
        inputs.reader.read(0), inputs.tf, camera, size, size
    )
    report.metrics["image_rms_error"] = float(np.sqrt(np.mean(diff * diff)))
    report.counts = {
        "volren.render_calls": raw.render_calls,
        "volren.voxels": raw.voxels,
        "scenegraph.raster_frames": raw.raster_frames,
        "scenegraph.pixels": raw.raster_frames * inputs.frame_size ** 2,
        "protocol.messages": raw.messages,
        "protocol.bytes": raw.wire_bytes,
        "datagen.bytes_read": raw.bytes_read,
    }
    report.digests["composite"] = f"{raw.frames_crc:08x}"
    return report


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_figs",
            "the paper's own instrumented runs (Figs 13, 10, 17) on the "
            "fault-free full-fidelity path: allocator-bound via per-RTT "
            "set_cap, and the only workload with paper reference numbers",
            _paper_build, _campaigns_run, _paper_report,
        ),
        Workload(
            "multiviewer",
            "sc99-multiviewer, 8 open-loop viewers sharing PE pool, WAN "
            "and render cache: same allocator path over a shared WAN, "
            "plus service admission and cache hits that bypass DPSS",
            _multiviewer_build, _multiviewer_run, _multiviewer_report,
        ),
        Workload(
            "serve10k",
            "sc99-serve10k, 10000 sessions as 40 aggregate flows: zero "
            "set_cap and zero DPSS reads, flow-class and NetLogger bound; "
            "a set_cap optimisation must not move it",
            _serve10k_build, _serve10k_run, _serve10k_report,
        ),
        Workload(
            "flaky_striped",
            "sc99-flaky under one fault plan, read by retry then by "
            "k-of-n parity reconstruct with tiles: composes faults, "
            "stripe and tiles; owns read p99 and undelivered frames",
            _flaky_build, _campaigns_run, _flaky_report,
        ),
        Workload(
            "live_render",
            "the live back end and viewer call sequence on real voxels: "
            "the only workload that executes a raycast or raster kernel; "
            "the four simulated ones must not move with it",
            _live_build, _live_run, _live_report, _live_prepare,
        ),
    )
}
