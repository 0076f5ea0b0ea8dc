"""Sharded serving: per-site verdicts, FIFO handoff, 10k-scale parity."""

import pytest

import repro.service.shard as shard
from repro.config import SiteSpec, TopologyConfig
from repro.service.admission import AdmissionVerdict, QueueFull, SlotQueue
from repro.service.shard import ShardCampaign, run_shard_campaign
from repro.service.workload import ViewerProfile, WorkloadSpec
from repro.simcore.env import Environment
from tests.oracles.per_session_pool import PerSessionPool


def _run_per_session(config, monkeypatch):
    """``config`` served one fluid flow per session (the oracle pool)."""
    with monkeypatch.context() as patch:
        # ShardedSessionManager looks the pool class up by this name.
        patch.setattr(shard, "FlowClassPool", PerSessionPool)
        return run_shard_campaign(config)


def _mini_campaign(*, queue_depth=1, n=4, seed=0):
    """Four near-simultaneous arrivals pinned to a 1-slot home site."""
    topology = TopologyConfig(
        sites=(
            SiteSpec(name="home", max_sessions=1, queue_depth=queue_depth),
            SiteSpec(name="remote", max_sessions=1),
        ),
    )
    workload = WorkloadSpec(
        n_viewers=n,
        arrival_rate=1e6,
        profiles=(ViewerProfile(name="pinned", region="home"),),
    )
    return ShardCampaign(
        name="mini", topology=topology, workload=workload, seed=seed
    )


class TestPlacementVerdicts:
    def test_local_spill_queue_reject_in_order(self):
        result = run_shard_campaign(_mini_campaign())
        verdicts = [r.verdict for r in result.records]
        assert verdicts == [
            AdmissionVerdict.LOCAL,
            AdmissionVerdict.SPILL,
            AdmissionVerdict.QUEUED,
            AdmissionVerdict.REJECTED,
        ]
        assert result.metrics.verdicts == {
            "local": 1, "spill": 1, "queued": 1, "rejected": 1
        }

    def test_spilled_session_serves_at_the_remote_site(self):
        result = run_shard_campaign(_mini_campaign())
        spilled = result.records[1]
        assert (spilled.home, spilled.served) == ("home", "remote")
        assert result.metrics.sites["home"].spilled_out == 1
        assert result.metrics.sites["remote"].spilled_in == 1

    def test_queued_session_eventually_serves_at_home(self):
        result = run_shard_campaign(_mini_campaign())
        queued = result.records[2]
        assert queued.served == "home"
        assert queued.ended is not None
        assert queued.admitted is not None
        assert queued.admitted > queued.arrival

    def test_every_resolved_session_is_accounted(self):
        result = run_shard_campaign(_mini_campaign())
        service = result.metrics.service
        assert service.offered == 4
        assert service.admitted == 3
        assert service.completed == 3
        assert service.rejected == 1


    def test_no_spill_over_a_zero_capacity_core(self):
        """``core_rate=0`` disables spilling over undeclared paths: a
        flow placed on the dead core would never finish."""
        topology = TopologyConfig(
            sites=(
                SiteSpec(name="home", max_sessions=1, queue_depth=4),
                SiteSpec(name="far"),
            ),
            core_rate=0.0,
        )
        workload = WorkloadSpec(
            n_viewers=3,
            arrival_rate=1e6,
            profiles=(ViewerProfile(name="pinned", region="home"),),
        )
        config = ShardCampaign(
            name="dead-core", topology=topology, workload=workload
        )
        result = run_shard_campaign(config)
        assert result.metrics.verdicts == {"local": 1, "queued": 2}
        assert result.metrics.service.completed == 3
        assert all(r.served == "home" for r in result.records)


class TestShardCampaignValidation:
    def test_unknown_region_rejected(self):
        workload = WorkloadSpec(
            n_viewers=1,
            profiles=(ViewerProfile(name="lost", region="atlantis"),),
        )
        with pytest.raises(ValueError, match="atlantis"):
            ShardCampaign(name="bad", workload=workload)

    def test_bad_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            ShardCampaign(name="bad", frames=0)


class TestSlotQueueAtDepth:
    def test_fifo_handoff_stays_in_arrival_order_at_10k(self):
        env = Environment()
        queue = SlotQueue(env, max_slots=1, queue_depth=10000)
        assert queue.acquire() is None  # the slot holder
        waiters = [queue.acquire() for _ in range(10000)]
        assert all(ev is not None for ev in waiters)
        with pytest.raises(QueueFull):
            queue.acquire()
        order = []
        for i, ev in enumerate(waiters):
            ev.callbacks.append(lambda _e, i=i: order.append(i))
        for _ in range(10001):
            queue.release()
        env.run()
        assert order == list(range(10000))
        assert queue.active == 0
        assert queue.depth == 0

    def test_active_count_untouched_while_waiters_drain(self):
        env = Environment()
        queue = SlotQueue(env, max_slots=2, queue_depth=4)
        assert queue.acquire() is None
        assert queue.acquire() is None
        queue.acquire()  # waiter
        assert queue.active == 2
        queue.release()  # hands the slot to the waiter, active stays 2
        assert queue.active == 2
        assert queue.depth == 0


class TestServe10k:
    @pytest.fixture(scope="class")
    def quick(self):
        return ShardCampaign.sc99_serve10k(n_sessions=400)

    def test_quick_campaign_admits_everyone(self, quick):
        result = run_shard_campaign(quick)
        service = result.metrics.service
        assert service.offered == 400
        assert service.admitted == 400
        assert service.completed == 400
        assert service.rejected == 0

    def test_aggregate_matches_oracle_record_for_record(
        self, quick, monkeypatch
    ):
        oracle = _run_per_session(quick, monkeypatch)
        aggregate = run_shard_campaign(quick)
        assert aggregate.records == oracle.records
        assert aggregate.total_time == oracle.total_time

    def test_aggregation_touches_fewer_flows(self, quick, monkeypatch):
        oracle = _run_per_session(quick, monkeypatch)
        aggregate = run_shard_campaign(quick)
        assert (
            aggregate.alloc["flows_touched"]
            < oracle.alloc["flows_touched"] / 4
        )

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_parity_across_seeds(self, seed, monkeypatch):
        config = ShardCampaign.sc99_serve10k(n_sessions=120, seed=seed)
        oracle = _run_per_session(config, monkeypatch)
        aggregate = run_shard_campaign(config)
        assert aggregate.records == oracle.records

    def test_ulm_log_is_deterministic(self, quick, tmp_path):
        config = quick.with_changes(
            workload=quick.workload.with_changes(n_viewers=50)
        )
        paths = [tmp_path / "a.ulm", tmp_path / "b.ulm"]
        for path in paths:
            run_shard_campaign(config, ulm_path=str(path))
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first  # the log actually recorded events


class TestShardResultPayload:
    def test_versioned_envelope(self):
        result = run_shard_campaign(_mini_campaign())
        payload = result.to_payload()
        assert payload["schema_version"] == 1
        assert payload["kind"] == "shard"
        assert payload["campaign"]["sites"] == ["home", "remote"]
        # schema v1 constants: one placement policy, spill always on
        assert payload["campaign"]["placement"] == "nearest"
        assert payload["campaign"]["spill"] is True
        assert payload["campaign"]["flow_classes"] is True
        assert payload["metrics"]["service"]["offered"] == 4
        assert set(payload["metrics"]["sites"]) == {"home", "remote"}
        assert payload["total_time"] == result.total_time

    def test_summary_mentions_mode_and_sites(self):
        result = run_shard_campaign(_mini_campaign())
        text = result.summary()
        assert "flow-class aggregation" in text
        assert "2 sites" in text
