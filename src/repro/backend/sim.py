"""Simulated Visapult back end: PEs, serial and overlapped modes.

Each PE is a simulation process that, per timestep, reads its slab
from the DPSS, volume renders it (CPU time from the calibrated
:class:`~repro.volren.renderer.RenderCostModel`), and ships a light
(metadata) plus heavy (texture) payload to the viewer.

What flows through those legs is one :class:`_FrameWork` record per
(PE, frame): ``_acquire`` claims the frame's units on the shared render
cache (one unit for a whole slab, one per owned visible tile in tile
mode) and loads the slab if it leads any of them, ``_finish`` renders
and publishes what was led, ``_send_results`` ships the light payload
and then the slab texture or the owner's tile batch. The record carries
the claim outcome, the led units and the fraction of the slab a faulty
read gave up on from leg to leg; the back end keeps no per-frame state
of its own. Tile geometry lives in :mod:`repro.backend.tiles`.

The **overlapped** mode reproduces Appendix B: a reader stage hands
frames to the render loop across a bounded buffer whose depth-2
instance *is* the paper's double buffer plus semaphore pair ("while
the data for frame N is being rendered, data for frame N+1 is being
loaded"). The handshake itself lives in the shared
:mod:`repro.simcore.pipeline` framework; the back end only wires the
reader -> render -> transmit stages and supplies their work functions.
``overlap_depth`` generalises the double buffer: at depth k the reader
may run up to k-1 frames ahead of the render loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.backend.tiles import TilePlan
from repro.config import BackendConfig
from repro.dpss.client import DpssClient
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.simcore.fluid import FluidResource, FluidTask
from repro.simcore.pipeline import Pipeline, PipelineSummary
from repro.simcore.sync import SimBarrier
from repro.util.rng import spawn_rngs
from repro.viewer.sim import LIGHT_BYTES
from repro.volren.decomposition import slab_decompose
from repro.volren.renderer import RenderCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.datagen.timeseries import TimeSeriesMeta
    from repro.dpss.health import HealthTracker
    from repro.dpss.master import DpssMaster
    from repro.netsim.host import Host
    from repro.netsim.topology import Network
    from repro.netlogger.daemon import NetLogDaemon
    from repro.service.cache import RenderCache
    from repro.viewer.sim import SimViewer

#: per-PE bytes/s of the fabric behind the MPI-only pair hand-off and
#: tile-mode fragment routing
INTERCONNECT_RATE = 100e6


class _Unit(NamedTuple):
    """One claimable unit of a frame's work on the shared render cache."""

    key: Tuple
    nbytes: float
    #: what the unit's ``CACHE_*`` events carry beyond frame and rank
    extra: Dict[str, Any]


@dataclass
class _FrameWork:
    """One frame's work on one PE, handed from leg to leg."""

    rank: int
    frame: int
    #: how the load leg ended: ``"miss"`` (no cache configured; plain
    #: load), ``"hit"`` (every unit served from cache; load *and*
    #: render are skipped), ``"lead"`` (this PE loaded and must render
    #: + publish ``leads``), ``"degraded"`` (the load came up short;
    #: the claims were abandoned and nothing may be cached) or
    #: ``"empty"`` (tile mode: the rank owns no visible tile)
    status: str = "miss"
    #: units this PE claimed and must publish or abandon
    leads: List[_Unit] = field(default_factory=list)
    #: fraction of the slab's bytes that never arrived (policy give-up
    #: under injected faults)
    missing: float = 0.0


@dataclass
class BackEndTiming:
    """Aggregate timings measured by a back end run."""

    n_timesteps: int = 0
    n_pes: int = 0
    total_time: float = 0.0
    bytes_loaded: float = 0.0
    bytes_sent_to_viewer: float = 0.0
    per_pe_load_seconds: Dict[int, float] = field(default_factory=dict)
    per_pe_render_seconds: Dict[int, float] = field(default_factory=dict)
    #: frames where at least one PE's load gave up on some bytes
    degraded_frames: Set[int] = field(default_factory=set)
    #: DPSS read attempts beyond the first, across all PEs
    retries: int = 0
    #: hedged duplicate reads issued, across all PEs
    hedges: int = 0
    #: hedges cancelled without delivering (primary won or the attempt
    #: deadline tore them down), across all PEs
    hedges_abandoned: int = 0
    #: striped mode: blocks rebuilt by XOR instead of read directly
    reconstructions: int = 0
    #: striped mode: redundancy bytes (parity + fillers + rounding)
    #: that crossed the wire on top of the data
    parity_bytes: float = 0.0
    #: striped mode: k-of-n straggler shares cancelled mid-flight
    stripe_cancels: int = 0
    #: wall seconds of every DPSS slab read, across all PEs (the
    #: distribution behind ``CampaignResult.read_p99``)
    read_seconds: List[float] = field(default_factory=list)
    #: (rank, frame) slabs served from the shared render cache --
    #: each one skipped its DPSS read and its render leg entirely
    cache_hits: int = 0
    #: tile mode: full tiles shipped to the viewer
    tiles_full: int = 0
    #: tile mode: tiles shipped as delta references (header + hash)
    tiles_ref: int = 0
    #: tile mode: texture bytes delta references kept off the WAN
    tile_bytes_saved: float = 0.0
    #: tile mode: fragment bytes routed owner-ward over the interconnect
    tile_route_bytes: float = 0.0


class SimBackEnd:
    """A parallel back end bound to one campaign's infrastructure.

    ``pe_hosts`` has one entry per PE; entries may repeat for SMP
    platforms (several PEs on one host share its NIC and CPU pool,
    which is exactly the paper's SMP-vs-cluster distinction).
    """

    def __init__(
        self,
        network: "Network",
        pe_hosts: List["Host"],
        master: "DpssMaster",
        dataset_name: str,
        viewer: "SimViewer",
        meta: "TimeSeriesMeta",
        *,
        daemon: "NetLogDaemon",
        render_cost: Optional[RenderCostModel] = None,
        #: all run-mode knobs live here; see
        #: :class:`~repro.config.BackendConfig` for field semantics
        config: Optional[BackendConfig] = None,
        #: shared render cache (repro.service); a hit skips both the
        #: DPSS read and the render leg for that (rank, frame) slab
        render_cache: Optional["RenderCache"] = None,
        #: session label for multi-session runs; prefixes the NetLogger
        #: prog ("s3/backend-0") so per-session lifelines stay distinct
        session: Optional[str] = None,
        #: shared per-server health tracker handed to every PE's DPSS
        #: client (striped mode); None = no read biasing
        health: Optional["HealthTracker"] = None,
    ):
        self.config = config if config is not None else BackendConfig()

        if not pe_hosts:
            raise ValueError("need at least one PE")
        if not 0 < self.config.overlap_render_share <= 1.0:
            raise ValueError("overlap_render_share must be in (0, 1]")
        if not 0 < self.config.overlap_ingest_factor <= 1.0:
            raise ValueError("overlap_ingest_factor must be in (0, 1]")
        self.network = network
        self.pe_hosts = list(pe_hosts)
        self.master = master
        self.dataset_name = dataset_name
        self.viewer = viewer
        self.meta = meta
        self.daemon = daemon
        self.render_cost = (
            render_cost if render_cost is not None else RenderCostModel()
        )
        self.n_timesteps = (
            self.config.n_timesteps
            if self.config.n_timesteps is not None
            else meta.n_timesteps
        )
        if not 1 <= self.n_timesteps <= meta.n_timesteps:
            raise ValueError(
                f"n_timesteps {self.n_timesteps} outside "
                f"[1, {meta.n_timesteps}]"
            )
        self.overlapped = self.config.overlapped
        overlap_depth = self.config.overlap_depth
        if int(overlap_depth) != overlap_depth or overlap_depth < 2:
            raise ValueError(
                f"overlap_depth must be an integer >= 2, got {overlap_depth}"
            )
        self.overlap_depth = int(overlap_depth)
        self.mpi_only_overlap = self.config.mpi_only_overlap
        if self.mpi_only_overlap:
            if self.overlapped:
                raise ValueError(
                    "mpi_only_overlap and overlapped are exclusive modes"
                )
            if len(pe_hosts) % 2 != 0:
                raise ValueError(
                    "mpi_only_overlap pairs ranks; need an even PE count"
                )
            if render_cache is not None:
                raise ValueError(
                    "the shared render cache is not supported with the "
                    "rejected MPI-only overlap mode"
                )
        self.render_cache = render_cache
        self.session = session
        self.health = health
        self.overlap_render_share = self.config.overlap_render_share
        self.overlap_ingest_factor = self.config.overlap_ingest_factor
        self.load_jitter_cv = self.config.load_jitter_cv
        #: bytes of AMR grid geometry rank 0 ships with every frame
        self.geometry_bytes = float(min(30e3, 0.02 * meta.bytes_per_timestep))
        self.tcp_params = self.config.network.tcp
        self.seed = self.config.seed

        self.n_pes = len(self.pe_hosts)
        # MPI-only overlap halves the render parallelism: odd ranks
        # only read, so the volume is cut into n/2 slabs.
        self.n_render_pes = (
            self.n_pes // 2 if self.mpi_only_overlap else self.n_pes
        )
        # Slabs cut axis 0, the slowest-varying one.
        self.subvolumes = slab_decompose(meta.shape, self.n_render_pes)
        self._interconnect: Optional[FluidResource] = None

        #: tile mode (the distributed framebuffer transport); ``None``
        #: is the whole-slab path
        self.tile_plan: Optional[TilePlan] = None
        self._tile_fabric: Optional[FluidResource] = None
        if self.config.tiles.enabled:
            if self.mpi_only_overlap:
                raise ValueError(
                    "tile mode is not supported with the rejected "
                    "MPI-only overlap mode"
                )
            self.tile_plan = TilePlan.build(
                meta.shape, self.config.tiles, self.n_render_pes,
                dataset_name,
            )
        self.timing = BackEndTiming(
            n_timesteps=self.n_timesteps, n_pes=self.n_pes
        )
        #: per-rank staged-pipeline accounting (overlapped modes only)
        self.pipeline_summaries: Dict[int, PipelineSummary] = {}
        self._itemsize = meta.bytes_per_timestep / meta.n_voxels
        # Streams [0, n_pes) drive load/render jitter exactly as they
        # always have; [n_pes, 2*n_pes) are reserved for the DPSS
        # clients' backoff jitter. SeedSequence spawning guarantees the
        # first n_pes children are unchanged by the wider spawn.
        self._rngs = spawn_rngs(self.seed, 2 * self.n_pes)
        self._barrier = SimBarrier(network.env, self.n_render_pes)
        prog_prefix = f"{session}/" if session else ""
        self._loggers = [
            NetLogger(
                host.name,
                f"{prog_prefix}backend-{rank}",
                clock=lambda: network.env.now,
                daemon=daemon,
            )
            for rank, host in enumerate(self.pe_hosts)
        ]
        for rank in range(self.n_render_pes):
            viewer.register_pe(rank, self.pe_hosts[rank].name)

    # -- geometry helpers ------------------------------------------------
    def slab_bytes(self, rank: int) -> float:
        """Bytes of raw data a PE loads per timestep."""
        return self.subvolumes[rank].n_voxels * self._itemsize

    def slab_offset(self, rank: int, frame: int) -> float:
        """Dataset byte offset of a PE's slab within a timestep.

        Slabs cut the slowest-varying axis, so each slab is one
        contiguous range -- the DPSS block-level access pattern.
        """
        sub = self.subvolumes[rank]
        row_bytes = (
            self.meta.shape[1] * self.meta.shape[2] * self._itemsize
        )
        return frame * self.meta.bytes_per_timestep + sub.lo[0] * row_bytes

    def texture_bytes(self, rank: int) -> float:
        """Wire size of a PE's slab texture (RGBA8 over the two
        non-slab axes): the O(n^2) heavy payload."""
        shape = self.subvolumes[rank].shape
        return float(shape[1] * shape[2] * 4)

    def render_cpu_seconds(self, rank: int) -> float:
        """Reference-CPU seconds to render one slab."""
        return self.render_cost.cpu_seconds(self.subvolumes[rank].n_voxels)

    def cache_key(self, rank: int, frame: int) -> Tuple:
        """Shared-render-cache key: (dataset, timestep, slab).

        The slab component is its (offset, extent) along axis 0, so
        back ends with different PE counts never alias each other's
        textures.
        """
        sub = self.subvolumes[rank]
        return (self.dataset_name, frame, sub.lo[0], sub.shape[0])

    def _fabric_name(self, kind: str) -> str:
        """Deterministic fluid-resource name for this back end's fabric.

        Derived from the session label (unique per session in
        multi-viewer runs) rather than ``id(self)``, so resource
        names, sanitizer reports and ULM lifelines are stable run to
        run.  A network can host at most one session-less back end
        per fabric kind; the scheduler's duplicate-name check enforces
        that loudly.
        """
        return f"{kind}:{self.session}" if self.session else kind

    # -- execution ---------------------------------------------------------
    def run(self):
        """Event that fires when every PE has processed every frame."""
        env = self.network.env
        start = env.now
        if self.overlapped and self.overlap_ingest_factor < 1.0:
            # Cluster nodes: the reader thread shares the single CPU
            # with the render process; NIC servicing degrades for the
            # whole run (Figure 15 discussion).  Dedup via dict keys,
            # not a set: Host hashes by identity, so set order would
            # vary run to run (VIS201).
            unique_hosts = {h.name: h for h in self.pe_hosts}
            for host in unique_hosts.values():
                self.network.sched.set_capacity(
                    host.nic, host.nic_rate * self.overlap_ingest_factor
                )
        if self.tile_plan is not None and self.n_render_pes > 1:
            # The owner-routing fabric: per-tile fragments hop PE-to-PE
            # over the platform interconnect before the owners talk to
            # the viewer. Same fluid stand-in as the MPI fabric.
            self._tile_fabric = FluidResource(
                self._fabric_name("tile-fabric"),
                INTERCONNECT_RATE * self.n_render_pes,
            )
            self.network.sched.add_resource(self._tile_fabric)
        if self.mpi_only_overlap:
            # One fluid resource stands in for the message-passing
            # fabric; pair transfers share it max-min.
            self._interconnect = FluidResource(
                self._fabric_name("interconnect"),
                INTERCONNECT_RATE * self.n_render_pes,
            )
            self.network.sched.add_resource(self._interconnect)
            procs = [
                env.process(self._pe_mpi_pair(rank))
                for rank in range(self.n_render_pes)
            ]
        else:
            pe = self._pe_overlapped if self.overlapped else self._pe_serial
            procs = [env.process(pe(rank)) for rank in range(self.n_pes)]
        done = env.all_of(procs)

        def finish():
            yield done
            self.timing.total_time = env.now - start
            return self.timing

        return env.process(finish())

    # -- the legs of one frame -----------------------------------------------
    def _open_client(self, rank: int):
        client = DpssClient(
            self.network,
            self.pe_hosts[rank].name,
            self.master,
            config=self.config.network,
            logger=self._loggers[rank],
            rng=self._rngs[self.n_pes + rank],
            health=self.health,
        )
        open_ev = client.open(self.dataset_name)
        return client, open_ev

    def _log_fields(self, work: _FrameWork) -> Dict[str, Any]:
        """The fields every ``CACHE_*`` event of this frame carries."""
        fields: Dict[str, Any] = dict(frame=work.frame, rank=work.rank)
        if self.session is not None:
            fields["session"] = self.session
        return fields

    def _units(self, rank: int, frame: int) -> List[_Unit]:
        """What a PE claims on the shared cache for one frame: its slab
        texture, or in tile mode each visible tile it owns (ascending
        tile ID)."""
        plan = self.tile_plan
        if plan is None:
            key = self.cache_key(rank, frame)
            return [_Unit(key, self.texture_bytes(rank), {})]
        return [
            _Unit(plan.cache_key(t, frame), plan.tile_bytes(t), {"tile": t})
            for t in plan.owned[rank]
        ]

    def _load(self, work: _FrameWork, client, handle, log: NetLogger):
        """Read one slab (generator; yields until loaded)."""
        env = self.network.env
        rank, frame = work.rank, work.frame
        rng = self._rngs[rank]
        log.log(Tags.BE_LOAD_START, frame=frame, rank=rank)
        if self.load_jitter_cv > 0:
            # Staggered outbound-send completions delay servicing of
            # the inbound stream (the load-time variability visible in
            # Figure 15).
            yield env.timeout(float(rng.exponential(self.load_jitter_cv)))
        stats = yield client.read(
            handle,
            self.slab_bytes(rank),
            offset=self.slab_offset(rank, frame),
            label=f"load[{rank}]",
        )
        log.log(Tags.BE_LOAD_END, frame=frame, rank=rank)
        self.timing.bytes_loaded += stats.nbytes - stats.missing_bytes
        self.timing.per_pe_load_seconds[rank] = (
            self.timing.per_pe_load_seconds.get(rank, 0.0) + stats.duration
        )
        self.timing.retries += stats.retries
        self.timing.hedges += stats.hedges
        self.timing.hedges_abandoned += stats.hedges_abandoned
        self.timing.reconstructions += stats.reconstructions
        self.timing.parity_bytes += stats.parity_wire_bytes
        self.timing.stripe_cancels += stats.shares_cancelled
        self.timing.read_seconds.append(stats.duration)
        if stats.missing_bytes > 0:
            # The policy gave up on part of this slab: the PE proceeds
            # with whatever it has (stale or absent texture downstream).
            self.timing.degraded_frames.add(frame)
            work.missing = stats.missing_bytes / stats.nbytes
            log.log(
                Tags.BE_LOAD_DEGRADED, frame=frame, rank=rank,
                missing=round(stats.missing_bytes),
            )
        return stats

    def _acquire(self, work: _FrameWork, client, handle, log: NetLogger):
        """The load leg, via the shared render cache when present.

        The PE claims each of the frame's units in order (all ranks and
        sessions share that ascending order, so cross-session waits can
        never cycle). Every unit cached means the textures already
        exist and the PE skips its DPSS read and render leg; any led
        unit forces the load, and a degraded load abandons every led
        claim so partial content never enters the cache. Fragment
        dependencies across ranks are not modelled: a rank whose owned
        tiles are all cached (or who owns none) skips its slab work
        entirely. Sets ``work.status`` and ``work.leads``.
        """
        units = self._units(work.rank, work.frame)
        if not units:
            work.status = "empty"
            return
        cache = self.render_cache
        if cache is None:
            yield from self._load(work, client, handle, log)
            return
        fields = self._log_fields(work)
        for unit in units:
            while True:
                claim = cache.begin(unit.key, **unit.extra, **fields)
                if claim.status == "wait" and not (yield claim.event):
                    continue  # the leader abandoned: claim again
                if claim.status == "lead":
                    work.leads.append(unit)
                break
        if not work.leads:
            self.timing.cache_hits += 1
            work.status = "hit"
            return
        yield from self._load(work, client, handle, log)
        if work.missing > 0.0:
            # Fault-plan interaction rule: a slab whose read gave up on
            # bytes never enters the cache.
            for unit in work.leads:
                cache.abandon(unit.key, **unit.extra, **fields)
            work.leads = []
        work.status = "lead" if work.leads else "degraded"

    def _render(self, rank: int, frame: int, log: NetLogger):
        env = self.network.env
        rng = self._rngs[rank]
        host = self.pe_hosts[rank]
        share = self.overlap_render_share if self.overlapped else 1.0
        cpu = self.render_cpu_seconds(rank)
        if self.load_jitter_cv > 0:
            # Render variability is milder than load variability.
            cpu *= 1.0 + (self.load_jitter_cv / 3.0) * abs(float(rng.normal()))
        log.log(Tags.BE_RENDER_START, frame=frame, rank=rank)
        t0 = env.now
        yield host.compute(cpu, label=f"render[{rank}]", share=share)
        log.log(Tags.BE_RENDER_END, frame=frame, rank=rank)
        self.timing.per_pe_render_seconds[rank] = (
            self.timing.per_pe_render_seconds.get(rank, 0.0) + (env.now - t0)
        )

    def _finish(self, work: _FrameWork, log: NetLogger):
        """The render leg for one acquired frame; publishes led units."""
        if work.status in ("hit", "empty"):
            return
        yield from self._render(work.rank, work.frame, log)
        if work.leads:
            assert self.render_cache is not None
            fields = self._log_fields(work)
            for unit in work.leads:
                self.render_cache.publish(
                    unit.key, unit.nbytes, **unit.extra, **fields
                )
            work.leads = []

    def _send_results(self, work: _FrameWork, log: NetLogger):
        """The transmit leg: light payload, then the heavy one.

        A fully lost slab has nothing to texture (and in tile mode no
        fragments to route and nothing fresh to batch): the heavy
        payload is skipped, the viewer records the hole and the
        compositor renders the remaining slabs.
        """
        rank, frame = work.rank, work.frame
        log.log(Tags.BE_LIGHT_SEND, frame=frame, rank=rank)
        yield self.viewer.deliver_light(rank, frame)
        log.log(Tags.BE_LIGHT_END, frame=frame, rank=rank)
        self.timing.bytes_sent_to_viewer += LIGHT_BYTES
        if work.missing >= 1.0:
            skip = Tags.BE_HEAVY_SKIP if self.tile_plan is None else Tags.TILE_SKIP
            log.log(skip, frame=frame, rank=rank)
            yield self.viewer.deliver_absent(rank, frame)
        elif self.tile_plan is None:
            yield from self._send_slab(rank, frame, log)
        else:
            yield from self._send_tiles(work, self.tile_plan, log)

    def _send_slab(self, rank: int, frame: int, log: NetLogger):
        log.log(Tags.BE_HEAVY_SEND, frame=frame, rank=rank)
        nbytes = self.texture_bytes(rank)
        if rank == 0:
            # Rank 0 carries the AMR grid geometry for the frame.
            nbytes += self.geometry_bytes
        yield self.viewer.deliver_heavy(rank, frame, nbytes)
        log.log(Tags.BE_HEAVY_END, frame=frame, rank=rank)
        self.timing.bytes_sent_to_viewer += nbytes

    def _send_tiles(self, work: _FrameWork, plan: TilePlan, log: NetLogger):
        """Tile-mode heavy leg: route fragments, batch owned tiles.

        A rank that rendered first routes the visible fragments it does
        not own to their owner PEs over the interconnect fabric
        (``TILE_ROUTE``); then, as an owner, it ships its visible tiles
        to the viewer in one delta-transmitted batch
        (:meth:`TilePlan.batch`). Degraded frames disable references.
        """
        rank, frame = work.rank, work.frame
        route_bytes = plan.route_bytes[rank]
        if (
            work.status in ("miss", "lead", "degraded")
            and route_bytes > 0
            and self._tile_fabric is not None
        ):
            # This rank rendered: its slab projects onto the whole
            # viewport, so it holds fragments for every visible tile
            # and routes the ones it does not own to their owners.
            log.log(
                Tags.TILE_ROUTE_START, frame=frame, rank=rank,
                nbytes=round(route_bytes),
            )
            task = FluidTask(
                f"tile-route[{rank}]",
                work=route_bytes,
                usage={self._tile_fabric: 1.0},
                cap=INTERCONNECT_RATE,
            )
            yield self.network.sched.submit(task)
            log.log(Tags.TILE_ROUTE_END, frame=frame, rank=rank)
            self.timing.tile_route_bytes += route_bytes
        ntiles, nfull, nref, nbytes, saved = plan.batch(
            rank, frame, all_full=work.missing > 0.0
        )
        if rank == 0:
            # Rank 0 carries the AMR grid geometry for the frame.
            nbytes += self.geometry_bytes
        log.log(
            Tags.TILE_SEND, frame=frame, rank=rank,
            ntiles=ntiles, nfull=nfull, nref=nref, nbytes=round(nbytes),
        )
        yield self.viewer.deliver_tiles(
            rank, frame, nbytes, ntiles=ntiles, nfull=nfull, nref=nref
        )
        log.log(Tags.TILE_SEND_END, frame=frame, rank=rank)
        self.timing.tiles_full += nfull
        self.timing.tiles_ref += nref
        self.timing.tile_bytes_saved += saved
        self.timing.bytes_sent_to_viewer += nbytes

    # -- per-PE processes ----------------------------------------------------
    def _pe_serial(self, rank: int):
        """Figure 18's serial loop: load, render, send, barrier."""
        env = self.network.env
        log = self._loggers[rank]
        client, open_ev = self._open_client(rank)
        handle = yield open_ev
        for frame in range(self.n_timesteps):
            work = _FrameWork(rank, frame)
            log.log(Tags.BE_FRAME_START, frame=frame, rank=rank)
            yield env.process(self._acquire(work, client, handle, log))
            yield env.process(self._finish(work, log))
            yield env.process(self._send_results(work, log))
            log.log(Tags.BE_FRAME_END, frame=frame, rank=rank)
            yield self._barrier.wait()
        return rank

    def _run_pipeline(
        self,
        rank: int,
        log: NetLogger,
        load: Callable[[_FrameWork], Generator],
    ):
        """Run one PE's reader -> render -> transmit pipeline to the end.

        The slab buffer at depth 2 with the ``on_get`` discipline is
        Appendix B's double buffer + semaphore pair; the depth-1
        ``on_done`` rendezvous between render and transmit expresses
        the strictly serial ``render; send`` body of the Appendix B
        loop, so the per-frame event sequence is unchanged.
        """
        pipe = Pipeline(self.network.env, name=f"pe{rank}")
        slabs = pipe.buffer(
            self.overlap_depth, name=f"slabs[{rank}]", release="on_get"
        )
        rendered = pipe.buffer(1, name=f"rendered[{rank}]", release="on_done")

        def load_work(work: _FrameWork):
            yield from load(work)
            return work

        def render_work(work: _FrameWork):
            log.log(Tags.BE_FRAME_START, frame=work.frame, rank=rank)
            yield from self._finish(work, log)
            return work

        def send_work(work: _FrameWork):
            yield from self._send_results(work, log)
            log.log(Tags.BE_FRAME_END, frame=work.frame, rank=rank)

        pipe.stage(
            f"reader[{rank}]",
            load_work,
            source=(_FrameWork(rank, f) for f in range(self.n_timesteps)),
            outbound=slabs,
        )
        pipe.stage(
            f"render[{rank}]", render_work, inbound=slabs, outbound=rendered
        )
        pipe.stage(f"transmit[{rank}]", send_work, inbound=rendered)
        self.pipeline_summaries[rank] = yield pipe.run()
        pipe.report(log)
        yield self._barrier.wait()
        return rank

    def _pe_overlapped(self, rank: int):
        """Appendix B as a staged pipeline: reader/render/transmit."""
        log = self._loggers[rank]
        client, open_ev = self._open_client(rank)
        handle = yield open_ev
        return (yield from self._run_pipeline(
            rank, log, lambda work: self._acquire(work, client, handle, log)
        ))

    def _pe_mpi_pair(self, rank: int):
        """Appendix B's MPI-only alternative for one render/reader pair.

        Render rank ``rank`` runs on ``pe_hosts[rank]``; its partner
        reader rank runs on ``pe_hosts[n_render_pes + rank]``. The
        reader stage loads a slab from the DPSS and then must
        *transmit* it to the render process over the message-passing
        fabric -- "the need to transmit large amounts of scientific
        data between reader and render processes", the cost the
        paper's threaded design deliberately avoids.
        """
        reader_rank = self.n_render_pes + rank
        reader_log = self._loggers[reader_rank]
        client, open_ev = self._open_client(reader_rank)
        handle = yield open_ev

        def load(work: _FrameWork):
            # BE_LOAD spans the DPSS read; the MPI hand-off that
            # follows additionally gates the render process (the
            # extra pipeline stage this design pays for).
            yield from self._load(work, client, handle, reader_log)
            task = FluidTask(
                f"mpi-xfer[{rank}]",
                work=self.slab_bytes(rank),
                usage={self._interconnect: 1.0},
                cap=INTERCONNECT_RATE,
            )
            yield self.network.sched.submit(task)

        # Render and reader live on separate nodes: no CPU contention,
        # full share -- the render/transmit stages use the render log.
        return (yield from self._run_pipeline(rank, self._loggers[rank], load))
