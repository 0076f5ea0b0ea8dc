"""Admission control: the session-slot gate in the service manager."""

import pytest

from repro.core.campaign import CampaignConfig
from repro.service import (
    AdmissionPolicy,
    CacheConfig,
    ServiceCampaign,
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


class TestManagerAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_sessions=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(queue_depth=-1)

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
