"""Campaign configurations and the end-to-end session runner.

A campaign is one of the paper's instrumented runs: a DPSS site, a WAN
path, a compute platform running the back end, and a viewer. The named
constructors below correspond to the experiments of sections 4.1-4.4;
:func:`run_campaign` wires everything onto a fresh simulator, runs the
frame loop, and returns a :class:`~repro.core.report.CampaignResult`.

This module owns construction of the full-fidelity world, for one
viewer or many: :func:`build_world` builds the shared half (DPSS site,
WAN, PE pool, dataset, fault injector), :func:`attach_session` adds
one viewer and its back end, and :func:`run_observed` wraps a run in
the sanitizer / allocator-stats / ULM observers. A one-viewer campaign
(:func:`build_session`) is one world plus one ``attach_session``; the
serving layer (:mod:`repro.service.manager`) calls the same two
functions once per admitted session.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.backend.sim import SimBackEnd
from repro.config import (
    BackendConfig,
    NetworkConfig,
    StripeConfig,
    TileConfig,
)
from repro.core.platforms import (
    DPSS_DISK_RATE,
    DPSS_DISKS_PER_SERVER,
    DPSS_N_SERVERS,
    DPSS_SERVER_NIC,
    PlatformSpec,
    Platforms,
    WanSpec,
    Wans,
)
from repro.core.report import CampaignResult
from repro.datagen.timeseries import TimeSeriesMeta
from repro.dpss.blocks import DpssDataset
from repro.dpss.health import HealthTracker
from repro.dpss.master import DpssMaster
from repro.dpss.server import DpssServer
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LossSpike,
    MasterStall,
    ServerCrash,
    ServerSlowdown,
)
from repro.faults.policy import RequestPolicy
from repro.netlogger.daemon import NetLogDaemon
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.tcp import TcpParams
from repro.netsim.topology import Network
from repro.util.units import KIB, mbps
from repro.viewer.sim import SimViewer

if TYPE_CHECKING:  # pragma: no cover - repro.service imports this module
    from repro.service.cache import RenderCache

#: the paper's combustion dataset: 640x256x256 floats, 265 steps
PAPER_SHAPE: Tuple[int, int, int] = (640, 256, 256)
PAPER_TIMESTEPS = 265


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one instrumented run."""

    name: str
    platform: PlatformSpec
    wan: WanSpec
    n_pes: int
    overlapped: bool = False
    #: slab-buffer depth of the overlapped pipeline; 2 is the paper's
    #: double buffer, larger values let the reader run further ahead
    overlap_depth: int = 2
    #: Appendix B's rejected MPI-only pipeline (half the ranks read)
    mpi_only_overlap: bool = False
    #: frames actually simulated (full 265 is cheap but unnecessary
    #: for the 10-timestep figures)
    n_timesteps: int = 10
    shape: Tuple[int, int, int] = PAPER_SHAPE
    dataset_timesteps: int = PAPER_TIMESTEPS
    #: viewer co-located with the back end (April campaign) or back
    #: across the WAN (section 4.4 runs)
    viewer_remote: bool = False
    #: WAN between back end and a remote viewer (defaults to ``wan``)
    viewer_wan: Optional[WanSpec] = None
    seed: int = 1
    #: fault schedule replayed against the session; a non-empty plan
    #: also enables dataset replication (replicas=2) and installs the
    #: default request policy unless ``policy`` overrides it
    faults: Optional[FaultPlan] = None
    #: client-side timeout/retry/hedging policy for DPSS reads
    policy: Optional[RequestPolicy] = None
    #: tile-based distributed framebuffer mode; the default disabled
    #: config is the whole-slab path
    tiles: TileConfig = field(default_factory=TileConfig)
    #: parity-striped DPSS with redundant k-of-n reads; the default
    #: disabled config keeps the round-robin placement and the
    #: retry-based fault path
    stripe: StripeConfig = field(default_factory=StripeConfig)

    def __post_init__(self):
        if self.n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        if self.n_timesteps < 1:
            raise ValueError("n_timesteps must be >= 1")
        if self.overlap_depth < 2:
            raise ValueError("overlap_depth must be >= 2")

    @property
    def meta(self) -> TimeSeriesMeta:
        """Dataset metadata for this campaign."""
        return TimeSeriesMeta(
            name=f"{self.name}-data",
            shape=self.shape,
            n_timesteps=self.dataset_timesteps,
        )

    # -- the paper's named runs ----------------------------------------
    @classmethod
    def lan_e4500(cls, *, overlapped: bool, n_timesteps: int = 10,
                  **kw) -> "CampaignConfig":
        """Figures 12-13: E4500 on the LBL gigabit LAN, 8 PEs,
        ten timesteps, serial vs overlapped."""
        return cls(
            name=f"lan-e4500-{'overlapped' if overlapped else 'serial'}",
            platform=Platforms.E4500,
            wan=Wans.LAN_GIGE,
            n_pes=8,
            overlapped=overlapped,
            n_timesteps=n_timesteps,
            **kw,
        )

    @classmethod
    def nton_cplant(cls, *, n_pes: int = 4, overlapped: bool = False,
                    viewer_remote: bool = False, n_timesteps: int = 10,
                    **kw) -> "CampaignConfig":
        """Figure 10 (4 PEs, serial, viewer local) and Figures 14-15
        (8 PEs, viewer back at LBL over ESnet)."""
        return cls(
            name=(
                f"nton-cplant{n_pes}-"
                f"{'overlapped' if overlapped else 'serial'}"
            ),
            platform=Platforms.CPLANT,
            wan=Wans.NTON_2000,
            n_pes=n_pes,
            overlapped=overlapped,
            n_timesteps=n_timesteps,
            viewer_remote=viewer_remote,
            viewer_wan=Wans.ESNET if viewer_remote else None,
            **kw,
        )

    @classmethod
    def esnet_anl_smp(cls, *, overlapped: bool, n_timesteps: int = 8,
                      **kw) -> "CampaignConfig":
        """Figures 16-17: back end on the ANL Onyx2 reading the LBL
        DPSS over ESnet, viewer back at LBL."""
        return cls(
            name=f"esnet-anl-{'overlapped' if overlapped else 'serial'}",
            platform=Platforms.ONYX2,
            wan=Wans.ESNET,
            n_pes=8,
            overlapped=overlapped,
            n_timesteps=n_timesteps,
            viewer_remote=True,
            viewer_wan=Wans.ESNET,
            **kw,
        )

    @classmethod
    def sc99_cosmology(cls, *, n_timesteps: int = 6, **kw) -> "CampaignConfig":
        """SC99: cosmology data, LBL DPSS -> CPlant over NTON (the
        250 Mbps configuration), viewer on the show floor."""
        return cls(
            name="sc99-cosmology",
            platform=Platforms.CPLANT,
            wan=Wans.NTON_1999,
            n_pes=8,
            n_timesteps=n_timesteps,
            shape=(512, 256, 256),
            dataset_timesteps=64,
            viewer_remote=True,
            viewer_wan=Wans.SCINET99,
            **kw,
        )

    @classmethod
    def sc99_showfloor(cls, *, n_timesteps: int = 6, **kw) -> "CampaignConfig":
        """SC99: LBL DPSS -> LBL-booth cluster over shared SciNet (the
        150 Mbps configuration)."""
        return cls(
            name="sc99-showfloor",
            platform=Platforms.BABEL,
            wan=Wans.SCINET99,
            n_pes=8,
            n_timesteps=n_timesteps,
            shape=(512, 256, 256),
            dataset_timesteps=64,
            **kw,
        )

    @classmethod
    def sc99_flaky(cls, *, n_timesteps: int = 6, **kw) -> "CampaignConfig":
        """The flaky-show-floor drill as a first-class campaign: the
        SC99 show-floor run at demo scale with the fault schedule of
        ``examples/plans/sc99_flaky.json`` baked in (two server
        crashes, a WAN loss spike, a master stall, a slowdown) and the
        aggressive request policy. The standard testbed for comparing
        retry-based recovery against parity-striped reads
        (``--stripe 4+1``)."""
        plan = FaultPlan.of([
            ServerCrash(at=0.6, duration=3.0, server="dpss0"),
            ServerCrash(at=0.6, duration=3.0, server="dpss1"),
            LossSpike(at=1.5, duration=1.0, link="wan", factor=0.4),
            MasterStall(at=2.0, duration=0.3),
            ServerSlowdown(
                at=3.8, duration=0.8, server="dpss2", factor=0.25
            ),
        ])
        return cls(
            name="sc99-flaky",
            platform=Platforms.BABEL,
            wan=Wans.SCINET99,
            n_pes=8,
            n_timesteps=n_timesteps,
            shape=(160, 64, 64),
            dataset_timesteps=8,
            seed=7,
            faults=plan,
            policy=RequestPolicy.aggressive(),
            **kw,
        )

    def with_changes(self, **kw) -> "CampaignConfig":
        """A modified copy (ablations, sweeps)."""
        return replace(self, **kw)


def _sc99_multiviewer_factory(overlapped: bool):
    # Lazy: repro.service imports this module for CampaignConfig.
    from repro.service.manager import ServiceCampaign

    return ServiceCampaign.sc99_multiviewer()


def _sc99_serve10k_factory(overlapped: bool):
    # Lazy for the same reason as the multiviewer entry.
    from repro.service.shard import ShardCampaign

    return ShardCampaign.sc99_serve10k()


#: The runnable campaign registry: name -> factory(overlapped). Most
#: entries yield a :class:`CampaignConfig`; service entries yield a
#: :class:`repro.service.ServiceCampaign` (run via
#: :func:`repro.service.run_service_campaign`, which
#: :func:`run_campaign` dispatches to automatically).
_NAMED_CAMPAIGNS: Dict[str, Callable[[bool], object]] = {
    "sc99-multiviewer": _sc99_multiviewer_factory,
    "sc99-serve10k": _sc99_serve10k_factory,
    "lan_e4500": lambda ov: CampaignConfig.lan_e4500(overlapped=ov),
    "nton_cplant4": lambda ov: CampaignConfig.nton_cplant(
        n_pes=4, overlapped=ov
    ),
    "nton_cplant8": lambda ov: CampaignConfig.nton_cplant(
        n_pes=8, overlapped=ov, viewer_remote=True
    ),
    "esnet_anl": lambda ov: CampaignConfig.esnet_anl_smp(overlapped=ov),
    "sc99_cosmology": lambda ov: CampaignConfig.sc99_cosmology(),
    "sc99_showfloor": lambda ov: CampaignConfig.sc99_showfloor(),
    "sc99-flaky": lambda ov: CampaignConfig.sc99_flaky(),
}


def campaign_names() -> List[str]:
    """Names accepted by :func:`named_campaign`, sorted."""
    return sorted(_NAMED_CAMPAIGNS)


def named_campaign(name: str, *, overlapped: bool = False):
    """Resolve a campaign by its registry name.

    Returns a :class:`CampaignConfig`, or a
    :class:`repro.service.ServiceCampaign` for the multi-viewer
    service entries. Raises :class:`KeyError` for unknown names;
    ``overlapped`` is ignored by campaigns that do not support the
    distinction (the SC99 demos and service campaigns).
    """
    try:
        factory = _NAMED_CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; known: {', '.join(campaign_names())}"
        ) from None
    return factory(overlapped)


@dataclass
class World:
    """The shared half of a campaign: one DPSS site, WAN and PE pool.

    Every viewer session -- the campaign's one, or each of a service's
    N -- binds to the same world through :func:`attach_session`.
    """

    config: CampaignConfig
    net: Network
    daemon: NetLogDaemon
    master: DpssMaster
    dpss_lan: Link
    wan: Link
    pe_hosts: List[Host]
    #: the campaign's stripe config (``enabled=False``: unstriped site)
    stripe: StripeConfig
    policy: Optional[RequestPolicy]
    health: Optional[HealthTracker]


def _wan_link(name: str, spec: WanSpec, *, monitor: bool = False) -> Link:
    return Link(
        name,
        rate=spec.rate,
        latency=spec.latency,
        efficiency=spec.efficiency,
        background_rate=spec.background_rate,
        monitor=monitor,
    )


def build_world(config: CampaignConfig) -> World:
    """Construct what every session of a campaign shares: the DPSS
    site, the WAN, the PE pool and its routes, the registered dataset,
    the request-policy default, the health tracker and the fault
    injector. Viewers come later, one :func:`attach_session` each."""
    net = Network()
    daemon = NetLogDaemon()

    # Parity striping needs one server per stripe position; the
    # historical 4-server site grows to the stripe width when needed
    # (and only then -- the unstriped world stays byte-identical).
    stripe = config.stripe
    n_servers = (
        max(DPSS_N_SERVERS, stripe.width) if stripe.enabled else DPSS_N_SERVERS
    )

    # --- DPSS site -----------------------------------------------------
    dpss_lan = net.add_link(
        Link("dpss-lan", rate=mbps(2000.0), latency=0.0001)
    )
    master_host = net.add_host(Host("dpss-master", nic_rate=mbps(100.0)))
    master = DpssMaster(master_host)
    for i in range(n_servers):
        h = net.add_host(
            Host(f"dpss{i}", nic_rate=DPSS_SERVER_NIC)
        )
        server = DpssServer(
            h,
            n_disks=DPSS_DISKS_PER_SERVER,
            disk_rate=DPSS_DISK_RATE,
            cache_bytes=0.0,  # time-series sweeps never re-read blocks
        )
        server.attach(net)
        master.add_server(server)

    # --- WAN ----------------------------------------------------------
    wan = net.add_link(_wan_link(config.wan.name, config.wan, monitor=True))

    # --- compute platform ----------------------------------------------
    plat = config.platform
    if plat.cluster:
        pe_hosts = [
            net.add_host(
                Host(
                    f"pe{i}",
                    nic_rate=plat.nic_rate,
                    n_cpus=plat.n_cpus,
                    shared_cpu_io=plat.shared_cpu_io,
                )
            )
            for i in range(config.n_pes)
        ]
    else:
        smp = net.add_host(
            Host(
                plat.name,
                nic_rate=plat.nic_rate,
                n_cpus=plat.n_cpus,
                shared_cpu_io=plat.shared_cpu_io,
            )
        )
        pe_hosts = [smp] * config.n_pes

    # Routes: DPSS site <-> each compute host over the WAN.  Dedup
    # host names with dict keys (stable first-occurrence order), not a
    # set: str hashes are salted per process, so set order would vary
    # run to run (VIS201).
    for host in dict.fromkeys(h.name for h in pe_hosts):
        net.add_route("dpss-master", host, [dpss_lan, wan])
        for i in range(n_servers):
            net.add_route(f"dpss{i}", host, [dpss_lan, wan])

    # --- dataset ---------------------------------------------------------
    # A non-empty fault plan turns on dataset replication so failovers
    # and hedged reads have somewhere to go; an empty (or absent) plan
    # keeps the historical single-copy placement bit-for-bit.
    active_faults = config.faults if config.faults else None
    meta = config.meta
    # Parity replaces replication: a striped dataset stays single-copy
    # even under a fault plan (reconstruction is the failover).
    master.register_dataset(
        DpssDataset(name=meta.name, size=float(meta.total_bytes),
                    block_size=64 * KIB),
        replicas=(
            2 if active_faults is not None and not stripe.enabled else 1
        ),
        stripe=stripe,
    )

    policy = config.policy
    if policy is None and active_faults is not None:
        policy = RequestPolicy()
    health = None
    if stripe.enabled:
        health = HealthTracker(
            now=lambda: net.env.now,
            logger=NetLogger(
                "dpss-client", "health",
                clock=lambda: net.env.now, daemon=daemon,
            ),
        )

    # --- faults ----------------------------------------------------------
    if active_faults is not None:
        # Aliases resolve when a fault fires, so the viewer's last-mile
        # link can be named before attach_session adds it.
        aliases = {"wan": config.wan.name}
        if config.viewer_remote:
            vspec = config.viewer_wan or config.wan
            aliases["viewer-wan"] = f"viewer-{vspec.name}"
        injector = FaultInjector(
            net, master, active_faults, daemon=daemon, link_aliases=aliases
        )
        if health is not None:
            # Crash/flap observations bias which server the striped
            # reads leave out; attached only when striping is on, so
            # the unstriped event stream stays byte-identical.
            injector.observers.append(health.observe_fault)
        injector.start()
        net.fault_injector = injector
    return World(
        config=config, net=net, daemon=daemon, master=master,
        dpss_lan=dpss_lan, wan=wan, pe_hosts=pe_hosts, stripe=stripe,
        policy=policy, health=health,
    )


def attach_session(
    world: World,
    *,
    viewer_name: str,
    viewer_wan: Optional[WanSpec],
    n_timesteps: int,
    seed: int,
    tiles: TileConfig,
    render_cache: Optional["RenderCache"] = None,
    session: Optional[str] = None,
) -> Tuple[SimViewer, SimBackEnd]:
    """Attach one viewer (host, last-mile link, routes) to ``world``
    and bind a back end for it to the shared PE pool.

    ``viewer_wan=None`` puts the viewer on a LAN next to the back end;
    ``session`` labels the back end's NetLogger progs in multi-session
    runs.
    """
    config, net, daemon = world.config, world.net, world.daemon
    net.add_host(Host(viewer_name, nic_rate=mbps(100.0)))
    if viewer_wan is None:
        viewer_link = net.add_link(
            Link(f"{viewer_name}-lan", rate=mbps(1000.0), latency=0.0001)
        )
    else:
        viewer_link = net.add_link(
            _wan_link(f"{viewer_name}-{viewer_wan.name}", viewer_wan)
        )
    for host in dict.fromkeys(h.name for h in world.pe_hosts):
        net.add_route(host, viewer_name, [viewer_link])
    net.add_route("dpss-master", viewer_name, [world.dpss_lan, world.wan])

    viewer = SimViewer(
        net, viewer_name, daemon=daemon,
        config=NetworkConfig(tcp=TcpParams(max_window=1024 * KIB)),
    )
    plat = config.platform
    meta = config.meta
    backend = SimBackEnd(
        net,
        world.pe_hosts,
        world.master,
        meta.name,
        viewer,
        meta,
        daemon=daemon,
        render_cost=plat.render_cost_model(),
        config=BackendConfig(
            n_timesteps=n_timesteps,
            overlapped=config.overlapped,
            overlap_depth=config.overlap_depth,
            mpi_only_overlap=config.mpi_only_overlap,
            overlap_render_share=(
                plat.overlap_render_share if config.overlapped else 1.0
            ),
            overlap_ingest_factor=(
                plat.overlap_ingest_factor if config.overlapped else 1.0
            ),
            load_jitter_cv=(
                plat.overlap_jitter_cv if config.overlapped else 0.0
            ),
            seed=seed,
            network=NetworkConfig(
                tcp=TcpParams(max_window=config.wan.tcp_window),
                policy=world.policy,
                stripe=world.stripe,
            ),
            tiles=tiles,
        ),
        render_cache=render_cache,
        session=session,
        health=world.health,
    )
    return viewer, backend


def build_session(config: CampaignConfig):
    """Construct the simulated world for a one-viewer campaign.

    Returns ``(network, backend, viewer, daemon)`` ready to run;
    :func:`run_campaign` is the one-call wrapper.
    """
    world = build_world(config)
    viewer, backend = attach_session(
        world,
        viewer_name="viewer",
        viewer_wan=(
            (config.viewer_wan or config.wan)
            if config.viewer_remote
            else None
        ),
        n_timesteps=config.n_timesteps,
        seed=config.seed,
        tiles=config.tiles,
    )
    return world.net, backend, viewer, world.daemon


def attach_alloc_logger(net, daemon, *, sample_every: int = 200):
    """Attach ``ALLOC_*`` NetLogger counters to a network's scheduler.

    Samples one :data:`~repro.netlogger.events.Tags.ALLOC_REALLOC`
    event per ``sample_every`` re-solve batches (the raw stream is one
    per scheduler event -- far too hot to log). Returns a finalizer
    that emits the end-of-run ``ALLOC_SUMMARY``; call it after the run,
    before writing ULM.
    """
    logger = NetLogger(
        "scheduler", "alloc", clock=lambda: net.env.now, daemon=daemon
    )
    seen = {"batches": 0}

    def observe(tag: str, data) -> None:
        seen["batches"] += 1
        if seen["batches"] % sample_every == 1:
            logger.log(tag, **data)

    net.sched.alloc_observer = observe

    def finalize() -> None:
        stats = net.sched.stats.to_dict()
        logger.log(
            Tags.ALLOC_SUMMARY,
            **{key: float(value) for key, value in stats.items()},
        )

    return finalize


def run_observed(
    net: Network,
    daemon: NetLogDaemon,
    start: Callable[[], Any],
    reduce: Callable[[], Any],
    *,
    sanitize: bool,
    ulm_path: Optional[str],
    alloc_stats: bool,
) -> Any:
    """Run ``start()``'s process to completion under the optional pure
    observers, then ``reduce()`` the result.

    The one place the sanitizer, the ``ALLOC_*`` logger and the ULM
    writer are wired, for one viewer or N. Reduction comes before
    ``sanitizer.report()`` so ``event_log`` matches the unsanitized run
    exactly; the ``SAN_*`` events land in the daemon afterwards.
    """
    sanitizer = None
    if sanitize:
        from repro.analysis import attach_sanitizer

        sanitizer = attach_sanitizer(
            net.env,
            logger=NetLogger(
                "sanitizer",
                "sanitizer",
                clock=lambda: net.env.now,
                daemon=daemon,
            ),
        )
    finish_alloc = (
        attach_alloc_logger(net, daemon) if alloc_stats else None
    )
    net.run(until=start())
    if finish_alloc is not None:
        finish_alloc()
    if ulm_path is not None:
        daemon.write_ulm(ulm_path)
    result = reduce()
    if sanitizer is not None:
        result.sanitizer_findings = list(sanitizer.report().findings)
    return result


def run_campaign(
    config: Any, *, sanitize: bool = False,
    ulm_path: Optional[str] = None, alloc_stats: bool = False,
) -> Any:
    """Build and run a campaign to completion; reduce the results.

    With ``sanitize=True`` the concurrency sanitizer observes the run
    (identical sim timings -- it only watches) and its findings land
    in ``result.sanitizer_findings`` plus ``SAN_*`` daemon events.
    ``ulm_path`` writes the daemon's time-sorted ULM event stream to a
    file after the run (before any ``SAN_*`` events are reduced in).
    ``alloc_stats=True`` adds sampled ``ALLOC_*`` allocator counters
    and an end-of-run ``ALLOC_SUMMARY`` to the event stream (also a
    pure observer: sim timings are unchanged).

    A :class:`repro.service.ServiceCampaign` (as returned by
    :func:`named_campaign` for the multi-viewer entries) dispatches to
    :func:`repro.service.run_service_campaign` and returns its
    :class:`repro.service.ServiceResult` (a :class:`CampaignResult`
    subclass). A :class:`repro.service.shard.ShardCampaign` dispatches
    to :func:`repro.service.shard.run_shard_campaign` and returns its
    :class:`~repro.service.shard.ShardResult` (which is *not* a
    :class:`CampaignResult` -- the shard layer models flows, not
    pipelines; ``sanitize``/``alloc_stats`` do not apply).
    """
    from repro.service.manager import ServiceCampaign, run_service_campaign
    from repro.service.shard import ShardCampaign, run_shard_campaign

    if isinstance(config, ShardCampaign):
        return run_shard_campaign(config, ulm_path=ulm_path)
    if isinstance(config, ServiceCampaign):
        return run_service_campaign(
            config, sanitize=sanitize, ulm_path=ulm_path,
            alloc_stats=alloc_stats,
        )
    net, backend, viewer, daemon = build_session(config)
    return run_observed(
        net,
        daemon,
        backend.run,
        lambda: CampaignResult.from_run(config, net, backend, viewer, daemon),
        sanitize=sanitize,
        ulm_path=ulm_path,
        alloc_stats=alloc_stats,
    )
