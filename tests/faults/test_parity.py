"""Determinism and parity guarantees of the fault subsystem.

The two load-bearing promises: an empty plan is byte-identical to not
using the subsystem at all, and the same (plan, seed) pair replays a
byte-identical event stream.
"""

from repro.config import StripeConfig
from repro.core import run_campaign
from repro.core.campaign import named_campaign
from repro.faults import (
    FaultPlan,
    RequestPolicy,
    ServerCrash,
    ServerSlowdown,
)


def tiny_campaign(**changes):
    config = named_campaign("sc99_showfloor").with_changes(
        shape=(160, 64, 64), dataset_timesteps=8, n_timesteps=3, seed=5,
    )
    return config.with_changes(**changes) if changes else config


def run_ulm(tmp_path, name, config, **kw):
    path = tmp_path / f"{name}.ulm"
    result = run_campaign(config, ulm_path=str(path), **kw)
    return result, path.read_bytes()


CRASH_PLAN = FaultPlan.of([
    ServerCrash(at=0.2, duration=2.0, server="dpss0"),
    ServerCrash(at=0.2, duration=2.0, server="dpss1"),
])


class TestEmptyPlanParity:
    def test_empty_plan_is_byte_identical(self, tmp_path):
        _, baseline = run_ulm(tmp_path, "base", tiny_campaign())
        _, empty = run_ulm(
            tmp_path, "empty", tiny_campaign(faults=FaultPlan.empty())
        )
        assert empty == baseline

    def test_empty_plan_installs_no_policy(self):
        config = tiny_campaign(faults=FaultPlan.empty())
        result = run_campaign(config)
        assert result.retries == 0 and result.degraded_frames == 0
        assert result.recovery_seconds == 0.0


class TestSeededDeterminism:
    def test_same_seed_same_event_stream(self, tmp_path):
        config = tiny_campaign(
            faults=CRASH_PLAN, policy=RequestPolicy.aggressive()
        )
        r1, ulm1 = run_ulm(tmp_path, "run1", config)
        r2, ulm2 = run_ulm(tmp_path, "run2", config)
        assert ulm1 == ulm2
        assert r1.retries == r2.retries
        assert r1.degraded_frames == r2.degraded_frames
        assert r1.recovery_seconds == r2.recovery_seconds

    def test_different_seed_diverges(self, tmp_path):
        """Jittered backoffs are seeded from the campaign seed, so a
        different seed reshuffles the retry timeline."""
        config = tiny_campaign(
            faults=CRASH_PLAN, policy=RequestPolicy.aggressive()
        )
        _, ulm1 = run_ulm(tmp_path, "seed5", config)
        r2, ulm2 = run_ulm(
            tmp_path, "seed6", config.with_changes(seed=6)
        )
        assert r2.retries > 0  # the fault schedule still bites
        assert ulm1 != ulm2


class TestFaultedRunQuality:
    def test_sanitizer_clean_under_faults(self):
        result = run_campaign(
            tiny_campaign(
                faults=CRASH_PLAN, policy=RequestPolicy.aggressive()
            ),
            sanitize=True,
        )
        assert result.sanitizer_findings == []
        assert result.retries > 0

    def test_fault_metrics_and_events_surface(self):
        result = run_campaign(
            tiny_campaign(
                faults=CRASH_PLAN, policy=RequestPolicy.aggressive()
            )
        )
        events = {e.event for e in result.event_log.events}
        assert "FAULT_INJECT" in events and "FAULT_CLEAR" in events
        assert any(e.startswith("RETRY_") for e in events)
        assert result.recovery_seconds > 0
        assert "degraded" in result.summary()


class TestHedgeAccounting:
    """An abandoned hedge is not a retry.

    When the per-attempt deadline tears down a primary *and* its
    still-in-flight hedge, the relaunch replaces the abandoned hedge;
    counting it as a retry double-books the same recovery action. The
    all-servers-slow drill below drives every attempt into exactly
    that state, so the corrected counts are pinned exactly.
    """

    ALL_SLOW = FaultPlan.of([
        ServerSlowdown(at=0.1, duration=8.0, server=f"dpss{i}",
                       factor=0.01)
        for i in range(4)
    ])

    def test_abandoned_hedges_do_not_inflate_retries(self):
        result = run_campaign(
            tiny_campaign(
                faults=self.ALL_SLOW, policy=RequestPolicy.aggressive()
            )
        )
        assert (
            result.retries,
            result.hedges,
            result.hedges_abandoned,
        ) == (0, 96, 96)
        # the run still recovers once the slowdown clears
        assert result.viewer_frames_complete == 3
        assert result.degraded_frames == 0
        events = {e.event for e in result.event_log.events}
        assert "RETRY_HEDGE" in events

    def test_won_hedges_are_not_abandoned(self):
        """A hedge that wins (or loses to its primary) before the
        deadline is a plain hedge; only deadline teardowns count."""
        plan = FaultPlan.of([
            ServerSlowdown(at=0.1, duration=30.0, server="dpss2",
                           factor=0.01)
        ])
        result = run_campaign(
            tiny_campaign(faults=plan, policy=RequestPolicy.aggressive())
        )
        assert (
            result.retries,
            result.hedges,
            result.hedges_abandoned,
        ) == (0, 24, 0)


class TestStripeParity:
    """Striping must be invisible until it is switched on."""

    def test_default_is_the_disabled_config(self):
        assert tiny_campaign() == tiny_campaign(
            stripe=StripeConfig(enabled=False)
        )

    def test_striped_empty_plan_delivers_identical_bytes(self):
        unstriped = run_campaign(tiny_campaign())
        striped = run_campaign(
            tiny_campaign(stripe=StripeConfig.from_spec("4+1"))
        )
        assert (
            striped.dpss_to_backend_bytes
            == unstriped.dpss_to_backend_bytes
        )
        assert (
            striped.viewer_frames_complete
            == unstriped.viewer_frames_complete
        )
        # hedged-repair striping is quiescent on a healthy world
        assert striped.retries == 0
        assert striped.reconstructions == 0
        assert striped.degraded_frames == 0


class TestDegradedCompositing:
    def test_total_outage_ships_light_only(self):
        """With every stripe dead, PEs time out, ship metadata only,
        and the viewer records the missing slabs instead of hanging."""
        plan = FaultPlan.of([
            ServerCrash(at=0.1, duration=300.0, server=f"dpss{i}")
            for i in range(4)
        ])
        config = tiny_campaign(
            faults=plan, policy=RequestPolicy.aggressive()
        )
        result = run_campaign(config, sanitize=True)
        assert result.sanitizer_findings == []
        assert result.degraded_frames > 0
        events = {e.event for e in result.event_log.events}
        assert "BE_LOAD_DEGRADED" in events
        assert "BE_HEAVY_SKIP" in events
        assert "V_SLAB_MISSING" in events
        # Nothing heavy crossed the wire for skipped slabs, but the
        # run still terminates and accounts every frame.
        assert result.n_frames == config.n_timesteps
