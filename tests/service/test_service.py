"""End-to-end service-layer guarantees.

The load-bearing promises: a single open-loop viewer with the cache
off reproduces the single-session campaign byte for byte; a warm
shared cache strictly improves aggregate frame rate and p95
time-to-first-frame; everything is deterministic under a seed; and
degraded slabs are never published into the shared cache.
"""

import pytest

from repro.config import StripeConfig, TileConfig
from repro.core import run_campaign
from repro.core.campaign import CampaignConfig, named_campaign
from repro.core.platforms import Wans
from repro.faults import FaultPlan, RequestPolicy, ServerCrash
from repro.service import (
    CacheConfig,
    ServiceCampaign,
    ServiceResult,
    ViewerProfile,
    WorkloadSpec,
    run_service_campaign,
)


def tiny_base(**changes):
    config = CampaignConfig.sc99_showfloor(n_timesteps=3).with_changes(
        shape=(160, 64, 64), dataset_timesteps=8, seed=5
    )
    return config.with_changes(**changes) if changes else config


def tiny_service(**changes):
    svc = ServiceCampaign(
        name="tiny-service",
        base=tiny_base(n_timesteps=2),
        workload=WorkloadSpec(n_viewers=4, arrival_rate=0.2),
    )
    return svc.with_changes(**changes) if changes else svc


def normalize_service_ulm(text):
    """Strip the serving layer's own events and session naming from a
    single-session service ULM so it can be compared to the plain
    campaign's stream."""
    lines = []
    for line in text.splitlines():
        if "PROG=session-manager" in line or "PROG=cache" in line:
            continue
        line = line.replace("HOST=viewer0", "HOST=viewer")
        line = line.replace("PROG=s0/backend-", "PROG=backend-")
        lines.append(line)
    return "\n".join(lines) + "\n"


def _flaky(**changes):
    return CampaignConfig.sc99_flaky(n_timesteps=4).with_changes(**changes)


#: one base per feature the shared builder wires
PARITY_BASES = {
    "fault-free": lambda: tiny_base(),
    "flaky": _flaky,
    "flaky-stripe-tiles": lambda: _flaky(
        stripe=StripeConfig.from_spec("4+1"),
        tiles=TileConfig(enabled=True),
    ),
    "overlapped": lambda: CampaignConfig.lan_e4500(
        overlapped=True, n_timesteps=3
    ).with_changes(shape=(160, 64, 64), dataset_timesteps=8),
    "remote-viewer": lambda: tiny_base(
        viewer_remote=True, viewer_wan=Wans.ESNET
    ),
}


class TestSingleViewerParity:
    @pytest.mark.parametrize("case", sorted(PARITY_BASES))
    def test_single_session_reproduces_the_campaign_byte_for_byte(
        self, tmp_path, case
    ):
        base = PARITY_BASES[case]()
        plain_result = run_campaign(
            base, ulm_path=str(tmp_path / "plain.ulm")
        )
        # The service takes the viewer's last mile from the profile.
        profile = ViewerProfile(
            name="default",
            wan=base.viewer_wan if base.viewer_remote else None,
        )
        svc = ServiceCampaign(
            name="parity",
            base=base,
            workload=WorkloadSpec(
                n_viewers=1, profiles=(profile,)
            ),
            cache=CacheConfig(capacity_bytes=0),
        )
        result = run_service_campaign(
            svc, ulm_path=str(tmp_path / "svc.ulm")
        )
        plain = (tmp_path / "plain.ulm").read_text()
        service = normalize_service_ulm(
            (tmp_path / "svc.ulm").read_text()
        )
        assert service == plain
        assert result.metrics_dict() == plain_result.metrics_dict()
        assert result.service.completed == 1
        assert result.viewer_frames_complete == base.n_timesteps


class TestWarmCacheAcceptance:
    def test_shared_cache_improves_rate_and_ttff(self):
        """The ISSUE's acceptance bar: warm shared cache gives strictly
        higher aggregate frame rate and strictly lower p95 TTFF than
        the same seeded workload with the cache disabled."""
        warm = run_service_campaign(tiny_service())
        cold = run_service_campaign(
            tiny_service(cache=CacheConfig(capacity_bytes=0))
        )
        assert warm.cache_stats.hits > 0
        assert cold.cache_stats.lookups == 0
        assert (
            warm.service.aggregate_frame_rate
            > cold.service.aggregate_frame_rate
        )
        assert warm.service.ttff_p95 < cold.service.ttff_p95

    def test_cache_hits_skip_the_dpss_leg(self):
        warm = run_service_campaign(tiny_service())
        cold = run_service_campaign(
            tiny_service(cache=CacheConfig(capacity_bytes=0))
        )
        # every hit is a DPSS read that never happened
        assert warm.dpss_to_backend_bytes < cold.dpss_to_backend_bytes
        # ...but every viewer still gets every frame
        assert (
            warm.service.frames_delivered
            == cold.service.frames_delivered
        )

    def test_deterministic_under_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.ulm", tmp_path / "b.ulm"
        r1 = run_service_campaign(tiny_service(), ulm_path=str(p1))
        r2 = run_service_campaign(tiny_service(), ulm_path=str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert r1.service.to_dict() == r2.service.to_dict()

    def test_seed_changes_the_schedule(self):
        r1 = run_service_campaign(tiny_service())
        r2 = run_service_campaign(tiny_service(seed=99))
        a1 = [r.arrival for r in r1.sessions]
        a2 = [r.arrival for r in r2.sessions]
        assert a1 != a2


class TestHeterogeneousWorkloads:
    def test_profiles_cycle_and_wan_paths_differ(self):
        from repro.core.platforms import Wans

        config = tiny_service(
            cache=CacheConfig(capacity_bytes=0),
            workload=WorkloadSpec(
                n_viewers=2,
                arrival_rate=0.2,
                profiles=(
                    ViewerProfile(name="local"),
                    ViewerProfile(name="far", wan=Wans.ESNET),
                ),
            ),
        )
        result = run_service_campaign(config)
        assert [r.profile for r in result.sessions] == ["local", "far"]
        assert result.service.completed == 2
        local, far = result.sessions
        # with no cache to inherit, the ESnet viewer pays WAN latency
        # on every slab delivery
        assert far.ttff > local.ttff


class TestCacheFaultInteraction:
    def test_degraded_slabs_are_never_published(self):
        """Under a total DPSS outage every lead abandons: the cache
        must contain nothing and later sessions must do their own
        (also degraded) reads rather than inherit partial textures."""
        plan = FaultPlan.of([
            ServerCrash(at=0.1, duration=300.0, server=f"dpss{i}")
            for i in range(4)
        ])
        config = tiny_service(
            base=tiny_base(
                n_timesteps=2,
                faults=plan,
                policy=RequestPolicy.aggressive(),
            ),
            workload=WorkloadSpec(
                n_viewers=2, arrival_rate=0.2
            ),
        )
        result = run_service_campaign(config)
        events = [e.event for e in result.event_log.events]
        assert "CACHE_ABANDON" in events
        assert "CACHE_INSERT" not in events
        assert result.cache_stats.inserts == 0
        assert result.degraded_frames > 0
        assert result.service.completed == 2  # no deadlock

    def test_sanitizer_clean_under_service_load(self):
        result = run_service_campaign(tiny_service(), sanitize=True)
        assert result.sanitizer_findings == []


class TestIntegration:
    def test_named_campaign_returns_service_config(self):
        config = named_campaign("sc99-multiviewer")
        assert isinstance(config, ServiceCampaign)
        assert config.workload.total_sessions > 1

    def test_run_campaign_dispatches_service_configs(self):
        result = run_campaign(tiny_service())
        assert isinstance(result, ServiceResult)
        assert "sessions" in result.summary()

    def test_experiment_config_resolves_service_campaigns(self):
        from repro.config import ExperimentConfig

        config = ExperimentConfig(
            campaign="sc99-multiviewer", scaled=True, frames=2, seed=3
        ).to_campaign_config()
        assert isinstance(config, ServiceCampaign)
        assert config.base.shape == (160, 64, 64)
        assert config.base.n_timesteps == 2
        assert config.effective_seed == 3

    def test_api_facade_runs_service_experiments(self):
        from repro import api

        result = api.run_experiment(tiny_service())
        assert isinstance(result, api.ServiceResult)
        assert result.service.completed == 4

    def test_metrics_dict_is_json_ready(self):
        import json

        result = run_service_campaign(tiny_service())
        payload = json.dumps(result.service.to_dict())
        assert "aggregate_frame_rate" in payload

    def test_result_dicts_are_derived_from_the_dataclass_fields(self):
        """No hand-kept key list can drop a field (``queued`` was)."""
        import json
        from dataclasses import fields

        from repro.core.report import CampaignResult
        from repro.service import ServiceMetrics, SiteMetrics

        result = run_service_campaign(tiny_service())
        assert set(result.service.to_dict()) == {
            f.name for f in fields(ServiceMetrics)
        }
        assert set(SiteMetrics(name="lbl").to_dict()) == {
            f.name for f in fields(SiteMetrics)
        } | {"cache_hit_ratio"}
        scalars = {
            f.name for f in fields(CampaignResult)
            if f.type in ("int", "float")
        }
        derived = {
            name for name, attr in vars(CampaignResult).items()
            if isinstance(attr, property)
        }
        assert len(derived) == 3
        assert set(result.metrics_dict()) == scalars | derived
        payload = result.to_payload()
        assert payload["kind"] == "service"
        assert payload["metrics"]["queued"] == result.service.queued
        json.dumps(payload)

    def test_mpi_only_overlap_rejects_the_shared_cache(self):
        config = tiny_service(
            base=tiny_base(
                n_timesteps=2, overlapped=True, mpi_only_overlap=True
            ),
            workload=WorkloadSpec(n_viewers=1),
        )
        with pytest.raises(ValueError):
            run_service_campaign(config)
