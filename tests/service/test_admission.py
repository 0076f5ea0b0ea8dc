"""Admission control: token bucket semantics and manager behaviour."""

import pytest

from repro.core.campaign import CampaignConfig
from repro.service import (
    AdmissionPolicy,
    CacheConfig,
    ServiceCampaign,
    TokenBucket,
    WorkloadSpec,
    run_service_campaign,
)


def tiny_service(**changes):
    base = CampaignConfig.sc99_showfloor(n_timesteps=2).with_changes(
        shape=(160, 64, 64), dataset_timesteps=8, seed=7
    )
    svc = ServiceCampaign(
        name="tiny-service",
        base=base,
        workload=WorkloadSpec(n_viewers=3, arrival_rate=100.0),
        cache=CacheConfig(capacity_bytes=0),
    )
    return svc.with_changes(**changes) if changes else svc


class TestTokenBucket:
    def test_full_bucket_grants_immediately(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        assert bucket.reserve(100.0, now=0.0) == 0.0

    def test_reservation_debt_converts_to_wait(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        assert bucket.reserve(100.0, now=0.0) == 0.0
        # bucket empty: the next 50 tokens take 5 s to accrue
        assert bucket.reserve(50.0, now=0.0) == pytest.approx(5.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        bucket.reserve(100.0, now=0.0)
        assert bucket.reserve(100.0, now=1000.0) == 0.0

    def test_cost_above_burst_is_never_admissible(self):
        bucket = TokenBucket(rate=10.0, burst=100.0)
        assert bucket.reserve(100.1, now=0.0) is None

    def test_simultaneous_burst_gets_increasing_waits(self):
        bucket = TokenBucket(rate=10.0, burst=50.0)
        waits = [bucket.reserve(50.0, now=0.0) for _ in range(4)]
        assert waits[0] == 0.0
        assert waits == sorted(waits)
        assert len(set(waits)) == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_sessions=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(token_rate=10.0)  # burst required
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestManagerAdmission:
    def test_zero_capacity_pool_rejects_everyone(self):
        """max_sessions=0 rejects every arrival and still terminates."""
        result = run_service_campaign(
            tiny_service(admission=AdmissionPolicy(max_sessions=0))
        )
        metrics = result.service
        assert metrics.offered == 3
        assert metrics.rejected == 3
        assert metrics.admitted == 0
        assert metrics.frames_delivered == 0
        events = {e.event for e in result.event_log.events}
        assert "SVC_REJECT" in events
        assert "SVC_ADMIT" not in events

    def test_capacity_queue_and_reject_split(self):
        """One slot, one queue seat: of three near-simultaneous
        arrivals one runs, one queues, one bounces."""
        result = run_service_campaign(
            tiny_service(
                admission=AdmissionPolicy(max_sessions=1, queue_depth=1)
            )
        )
        metrics = result.service
        assert metrics.admitted == 2
        assert metrics.rejected == 1
        assert metrics.completed == 2
        assert metrics.queued == 1
        rejected = [r for r in result.sessions if r.rejected]
        assert [r.reject_reason for r in rejected] == ["capacity"]
        # the queued session inherited the slot the moment the first
        # session finished
        first, queued = [r for r in result.sessions if not r.rejected]
        assert queued.admission_latency > 0.0
        assert queued.admitted == pytest.approx(first.ended)

    def test_token_bucket_spreads_a_burst(self):
        """Admission delays increase in arrival order when a burst
        exhausts the bandwidth bucket."""
        config = tiny_service()
        session_bytes = config.base.meta.bytes_per_timestep * 2
        config = config.with_changes(
            admission=AdmissionPolicy(
                token_rate=session_bytes / 10.0,
                token_burst=session_bytes,
            )
        )
        result = run_service_campaign(config)
        metrics = result.service
        assert metrics.admitted == 3
        lat = [r.admission_latency for r in result.sessions]
        assert lat == sorted(lat)
        assert lat[0] < 1e-3 and lat[1] > 1.0 and lat[2] > lat[1] + 1.0

    def test_bandwidth_reject_when_cost_exceeds_burst(self):
        config = tiny_service(
            admission=AdmissionPolicy(token_rate=1.0, token_burst=1.0)
        )
        result = run_service_campaign(config)
        assert result.service.rejected == 3
        assert all(
            r.reject_reason == "bandwidth" for r in result.sessions
        )

    def test_fair_share_floor_reaches_dpss_connections(self):
        """A fair-share rate turns into reserved_rate on the session's
        DPSS reads (the simcore fairshare phase-1 floor)."""
        from repro.service import ViewerProfile
        from repro.service.manager import SessionManager

        config = tiny_service(
            workload=WorkloadSpec(
                n_viewers=1,
                profiles=(ViewerProfile(name="vip", weight=2.0),),
            ),
            admission=AdmissionPolicy(fair_share_rate=1e6),
        )
        manager = SessionManager(config)
        manager.net.run(until=manager.run())
        [backend] = manager.backends
        assert backend.config.network.reserved_rate == 2e6
        assert manager.records[0].frames == config.base.n_timesteps
