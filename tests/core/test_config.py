"""Consolidated-config tests: dataclasses, JSON, the facade."""

import dataclasses
import json

import pytest

from repro.config import (
    ExperimentConfig,
    NetworkConfig,
)
from repro.core.campaign import (
    CampaignConfig,
    campaign_names,
    named_campaign,
)
from repro.faults import FaultPlan, RequestPolicy, ServerCrash
from repro.netsim import TcpParams


class TestNetworkConfig:
    def test_defaults(self):
        cfg = NetworkConfig()
        assert cfg.tcp == TcpParams()
        assert cfg.compression is None and cfg.policy is None

    def test_with_changes(self):
        cfg = NetworkConfig().with_changes(policy=RequestPolicy())
        assert cfg.policy == RequestPolicy()


def test_removed_kwargs_are_type_errors():
    """PR 13 removed the per-knob kwargs (config= is the only
    spelling); PR 14 the two options no caller set; PR 19 the 19 only
    tests set (a removed module name or CLI flag fails as its kind
    does: AttributeError, ImportError, argparse exit 2)."""
    from repro.config import SiteSpec, TopologyConfig
    from repro.netsim import Host, Network
    from repro.service import ServiceCampaign
    from repro.util.units import mbps
    from repro.viewer.sim import SimViewer

    net = Network()
    net.add_host(Host("viewer", nic_rate=mbps(100)))
    with pytest.raises(TypeError):
        SimViewer(net, "viewer", tcp_params=TcpParams())
    with pytest.raises(TypeError):
        ServiceCampaign(
            name="flat",
            base=CampaignConfig.sc99_showfloor(),
            dpss_cache_bytes=1.0,
        )
    with pytest.raises(TypeError):
        ServiceCampaign(
            name="flat",
            base=CampaignConfig.sc99_showfloor(),
            topology=TopologyConfig.single_site(),
        )
    with pytest.raises(TypeError):
        SiteSpec(name="s", dpss_cache_bytes=1.0)

    # PR 19 moved the three oracles to ``tests/oracles/`` and deleted
    # the 19 options only tests set: one case per removed selector.
    import numpy as np

    import repro.api
    import repro.config
    import repro.service
    import repro.simcore.fluid as fluid
    from repro.cli import main
    from repro.config import BackendConfig, StripeConfig, TileConfig
    from repro.core.campaign import attach_session
    from repro.netsim.sites import SiteFabric
    from repro.scenegraph import Camera, Group, render
    from repro.service import (
        AdmissionPolicy,
        CacheConfig,
        ShardCampaign,
        ViewerProfile,
        WorkloadSpec,
    )
    from repro.simcore import Environment
    from repro.simcore.flowclass import FlowClass, FlowClassPool
    from repro.simcore.fluid import FluidResource, FluidScheduler
    from repro.volren import TransferFunction, render_slab, render_view

    vol, tf = np.zeros((4, 4, 4), dtype=np.float32), TransferFunction.fire()
    env = Environment()
    type_errors = [
        lambda: render_slab(vol, tf, vectorized=False),
        lambda: render_view(vol, tf, (1, 0, 0), vectorized=False),
        lambda: render_view(vol, tf, (1, 0, 0), early_exit=False),
        lambda: render_view(vol, tf, (1, 0, 0), stats={}),
        lambda: render(Group(), Camera(), 8, 8, vectorized=False),
        lambda: FluidScheduler(env, incremental=False),
        lambda: Network(env, incremental=False),
        lambda: SiteFabric(repro.config.TopologyConfig(), incremental=False),
        lambda: FlowClassPool(env, FluidScheduler(env), aggregate=False),
        lambda: ShardCampaign(name="s", flow_classes=None),
        lambda: ExperimentConfig(campaign="sc99-serve10k", flow_classes=False),
        lambda: FluidResource("r", 1.0, max_samples=3),
        lambda: FluidResource("r", 1.0, coalesce=True),
        lambda: WorkloadSpec(mode="closed"),
        lambda: WorkloadSpec(think_time=1.0),
        lambda: WorkloadSpec(requests_per_viewer=2),
        # PR 24: capacity_bytes=0 is the one spelling of "no cache"
        lambda: CacheConfig(enabled=False),
        # run options no production code set: one case per removed
        # field (token bucket, fair-share floors, placement, tuning)
        lambda: AdmissionPolicy(token_rate=1.0),
        lambda: AdmissionPolicy(token_burst=1.0),
        lambda: AdmissionPolicy(fair_share_rate=1.0),
        lambda: ViewerProfile(weight=2.0),
        lambda: NetworkConfig(reserved_rate=1.0),
        lambda: TopologyConfig(placement="least-loaded"),
        lambda: TopologyConfig(spill=False),
        lambda: StripeConfig(straggler_after=1.0),
        lambda: StripeConfig(timeout=1.0),
        lambda: StripeConfig(health_half_life=1.0),
        lambda: StripeConfig(avoid_threshold=1.0),
        lambda: BackendConfig(axis=1),
        lambda: BackendConfig(geometry_bytes_per_frame=0.0),
        lambda: BackendConfig(interconnect_rate=1.0),
        lambda: TileConfig(change_fraction=0.5),
        lambda: ShardCampaign(name="s", frame_bytes=1.0),
        # ... and the keyword options only those fields fed
        lambda: FlowClass("c", {}, floor=1.0),
        lambda: attach_session(
            None, viewer_name="v", viewer_wan=None, n_timesteps=1,
            seed=0, tiles=TileConfig(), reserved_rate=1.0,
        ),
    ]
    for call in type_errors:
        with pytest.raises(TypeError):
            call()
    with pytest.raises(AttributeError):
        repro.service.TokenBucket
    with pytest.raises(AttributeError):
        fluid.DEFAULT_INCREMENTAL
    for module in (repro.config, repro.api):
        with pytest.raises(AttributeError):
            module.FlowClassConfig
    with pytest.raises(ImportError):
        from repro.config import FlowClassConfig  # noqa: F401
    with pytest.raises(SystemExit) as exit_info:
        main(["serve-sim", "sc99-serve10k", "--flow-classes", "off"])
    assert exit_info.value.code == 2


def test_removed_client_names_fail_loudly():
    """PR 15 split ``dpss/client.py``: ``client.config`` is the one
    spelling of the wire knobs and the read strategy is not pluggable."""
    from repro.dpss import DpssClient, DpssMaster
    from repro.netsim import Host, Network
    from repro.util.units import mbps

    net = Network()
    net.add_host(Host("pe", nic_rate=mbps(100)))
    client = DpssClient(net, "pe", DpssMaster(net.host("pe")))
    for name in ("tcp_params", "compression", "policy"):
        with pytest.raises(AttributeError):
            getattr(client, name)
    with pytest.raises(AttributeError):
        DpssClient.requestor_cls
    with pytest.raises(ImportError):
        from repro.dpss.client import RedundantReadRequestor  # noqa: F401


class TestCampaignRegistry:
    def test_names_stable(self):
        assert campaign_names() == [
            "esnet_anl",
            "lan_e4500",
            "nton_cplant4",
            "nton_cplant8",
            "sc99-flaky",
            "sc99-multiviewer",
            "sc99-serve10k",
            "sc99_cosmology",
            "sc99_showfloor",
        ]

    def test_overlapped_flag_respected(self):
        cfg = named_campaign("lan_e4500", overlapped=True)
        assert cfg.overlapped

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            named_campaign("atari_2600")


class TestExperimentConfig:
    def test_json_round_trip(self):
        exp = ExperimentConfig(
            campaign="sc99_showfloor",
            scaled=True,
            seed=7,
            sanitize=True,
            faults=FaultPlan.of([
                ServerCrash(at=1.0, duration=2.0, server="dpss0")
            ]),
            policy=RequestPolicy.aggressive(),
        )
        text = json.dumps({
            "campaign": "sc99_showfloor",
            "scaled": True,
            "seed": 7,
            "sanitize": True,
            "faults": {"events": [
                {"kind": "server_crash", "at": 1.0, "duration": 2.0,
                 "server": "dpss0"},
            ]},
            "policy": dataclasses.asdict(RequestPolicy.aggressive()),
        })
        assert ExperimentConfig.from_json(text) == exp

    def test_from_json_requires_campaign(self):
        with pytest.raises(ValueError, match="campaign"):
            ExperimentConfig.from_json(json.dumps({"scaled": True}))

    def test_from_json_names_unknown_keys(self):
        """A typo must not run the default configuration in silence."""
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_json(json.dumps({
                "campaign": "lan_e4500", "stripes": "4+1", "tile": True,
            }))
        message = str(info.value)
        assert "'stripes', 'tile'" in message
        assert "stripe, topology" in message  # the accepted keys

    @pytest.mark.parametrize(
        "key, value",
        [
            ("overlapped", "no"),
            ("scaled", 1),
            ("sanitize", "true"),
            ("tiles", "false"),
            ("frames", "3"),
            ("seed", 1.5),
            ("tile_size", True),
            ("campaign", 7),
            ("stripe", 4),
            ("topology", ["sc99-wan"]),
        ],
    )
    def test_from_json_checks_key_types(self, key, value):
        """``bool("false")`` is True: a wrong JSON type must not load
        as a different run, or fail later somewhere else."""
        text = json.dumps({"campaign": "lan_e4500", key: value})
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON"):
            ExperimentConfig.from_json(text)

    def test_from_json_refuses_the_retired_flow_classes_key(self):
        with pytest.raises(ValueError, match="'flow_classes'"):
            ExperimentConfig.from_json(json.dumps({
                "campaign": "sc99-serve10k", "flow_classes": False,
            }))

    def test_every_field_is_an_accepted_json_key(self):
        from dataclasses import fields

        data = {f.name: None for f in fields(ExperimentConfig)}
        data["campaign"] = "lan_e4500"
        assert ExperimentConfig.from_json(json.dumps(data)).campaign == (
            "lan_e4500"
        )

    def test_policy_presets_in_json(self):
        exp = ExperimentConfig.from_json(json.dumps({
            "campaign": "lan_e4500", "policy": "aggressive",
        }))
        assert exp.policy == RequestPolicy.aggressive()

    def test_to_campaign_config_applies_overrides(self):
        exp = ExperimentConfig(
            campaign="lan_e4500", frames=2, scaled=True, seed=9,
        )
        cfg = exp.to_campaign_config()
        assert cfg.n_timesteps == 2 and cfg.seed == 9
        assert cfg.shape == (160, 64, 64)
        assert cfg.dataset_timesteps == 8

    def test_topology_knobs_round_trip(self):
        exp = ExperimentConfig(
            campaign="sc99-serve10k",
            topology="serve10k",
            seed=3,
        )
        text = json.dumps(
            {"campaign": "sc99-serve10k", "topology": "serve10k", "seed": 3}
        )
        assert ExperimentConfig.from_json(text) == exp

    def test_to_campaign_config_dispatches_shard_campaigns(self):
        from repro.service.shard import ShardCampaign

        exp = ExperimentConfig(
            campaign="sc99-serve10k",
            seed=3,
            frames=2,
        )
        cfg = exp.to_campaign_config()
        assert isinstance(cfg, ShardCampaign)
        assert cfg.seed == 3 and cfg.frames == 2

    def test_shard_topology_swap_rehomes_pinned_profiles(self):
        """Profiles pinned to sites the new topology lacks fall back to
        round-robin homing -- in the resolver, so the JSON form works
        as the CLI form does -- and the result runs."""
        from repro import api
        from repro.service.shard import ShardCampaign

        exp = ExperimentConfig.from_json(json.dumps({
            "campaign": "sc99-serve10k", "topology": "sc99-wan",
        }))
        cfg = exp.to_campaign_config()
        assert isinstance(cfg, ShardCampaign)
        assert cfg.topology.site_names == ("lbl", "anl", "showfloor")
        assert all(p.region is None for p in cfg.workload.profiles)
        small = cfg.with_changes(
            workload=cfg.workload.with_changes(n_viewers=60)
        )
        result = api.run_experiment(small)
        assert result.metrics.service.completed == 60
        assert set(result.metrics.sites) == {"lbl", "anl", "showfloor"}

    @pytest.mark.parametrize(
        "knobs, named",
        [
            ({"scaled": True}, "scaled applies"),
            ({"tiles": True}, "tiles applies"),
            ({"tile_size": 16}, "tile_size applies"),
            ({"stripe": "4+1"}, "stripe applies"),
            ({"policy": RequestPolicy()}, "policy applies"),
            (
                {"faults": FaultPlan.of([
                    ServerCrash(at=1.0, duration=2.0, server="dpss0")
                ]), "scaled": True},
                "scaled, faults apply",
            ),
        ],
    )
    def test_single_session_knobs_refused_on_shard_campaigns(
        self, knobs, named
    ):
        exp = ExperimentConfig(campaign="sc99-serve10k", **knobs)
        with pytest.raises(ValueError, match=named):
            exp.to_campaign_config()

    @pytest.mark.parametrize("campaign", ["lan_e4500", "sc99-multiviewer"])
    def test_tile_size_without_tiles_is_refused(self, campaign):
        exp = ExperimentConfig(campaign=campaign, tile_size=64)
        with pytest.raises(
            ValueError, match="tile_size applies only with tiles"
        ):
            exp.to_campaign_config()
        tiled = exp.with_changes(tiles=True).to_campaign_config()
        tiles = getattr(tiled, "base", tiled).tiles
        assert tiles.enabled and tiles.tile_size == 64

    def test_topology_knob_rejected_on_non_shard_campaigns(self):
        exp = ExperimentConfig(campaign="lan_e4500", topology="sc99-wan")
        with pytest.raises(ValueError, match="shard campaigns only"):
            exp.to_campaign_config()

    def test_faults_and_policy_thread_through(self):
        plan = FaultPlan.of([
            ServerCrash(at=1.0, duration=2.0, server="dpss0")
        ])
        exp = ExperimentConfig(
            campaign="lan_e4500", faults=plan,
            policy=RequestPolicy(timeout=1.0),
        )
        cfg = exp.to_campaign_config()
        assert cfg.faults == plan and cfg.policy.timeout == 1.0


class TestRunExperiment:
    def test_facade_smoke(self):
        from repro import api

        exp = api.ExperimentConfig(
            campaign="sc99_showfloor", scaled=True, frames=2,
        )
        result = api.run_experiment(exp)
        assert result.n_frames == 2
        assert result.viewer_frames_complete == 2

    def test_accepts_concrete_campaign(self):
        from repro import api

        cfg = api.Campaign.sc99_showfloor().with_changes(
            shape=(160, 64, 64), dataset_timesteps=8, n_timesteps=2,
        )
        result = api.run_experiment(cfg)
        assert result.n_frames == 2
