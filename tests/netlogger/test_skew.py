"""Tests for clock-skew estimation and correction."""

import pytest

from repro.config import ExperimentConfig
from repro.core.campaign import CampaignConfig, run_campaign
from repro.netlogger import (
    NetLogEvent,
    Tags,
    causality_violations,
    correct_skew,
    estimate_offsets,
)


def exchange_events(skew=0.0, delays=(0.01, 0.02, 0.005)):
    """BE sends on host 'be'; viewer receives on host 'v' with a
    skewed clock and per-frame network delays."""
    events = []
    t = 0.0
    for frame, delay in enumerate(delays):
        t += 1.0
        events.append(
            NetLogEvent(t, Tags.BE_HEAVY_SEND, "be", "backend",
                        data={"frame": frame, "rank": 0})
        )
        events.append(
            NetLogEvent(t + delay + skew, Tags.V_HEAVYPAYLOAD_END, "v",
                        "viewer", data={"frame": frame, "rank": 0})
        )
    return events


class TestEstimate:
    def test_no_skew_estimates_near_zero(self):
        offsets = estimate_offsets(exchange_events(skew=0.0))
        assert offsets["be"] == 0.0
        # The estimate equals the smallest delay (Cristian bound).
        assert offsets["v"] == pytest.approx(0.005, abs=1e-9)

    def test_positive_skew_recovered(self):
        offsets = estimate_offsets(exchange_events(skew=3.0))
        assert offsets["v"] == pytest.approx(3.005, abs=1e-9)

    def test_negative_skew_recovered(self):
        offsets = estimate_offsets(exchange_events(skew=-2.0))
        assert offsets["v"] == pytest.approx(-1.995, abs=1e-9)

    def test_empty_log(self):
        assert estimate_offsets([]) == {}

    def test_host_without_exchanges_keeps_zero(self):
        events = exchange_events() + [
            NetLogEvent(5.0, Tags.BE_RENDER_START, "lonely", "backend",
                        data={"frame": 0, "rank": 9})
        ]
        offsets = estimate_offsets(events)
        assert offsets["lonely"] == 0.0


class TestCorrection:
    def test_correction_removes_causality_violations(self):
        # Viewer clock 5 seconds behind: receives appear before sends.
        skewed = exchange_events(skew=-5.0)
        assert causality_violations(skewed) > 0
        fixed = correct_skew(skewed)
        assert causality_violations(fixed) == 0

    def test_correction_preserves_event_count_and_payloads(self):
        skewed = exchange_events(skew=2.0)
        fixed = correct_skew(skewed)
        assert len(fixed) == len(skewed)
        frames = sorted(e.get("frame") for e in fixed
                        if e.event == Tags.V_HEAVYPAYLOAD_END)
        assert frames == [0, 1, 2]

    def test_corrected_log_sorted(self):
        fixed = correct_skew(exchange_events(skew=-5.0))
        times = [e.ts for e in fixed]
        assert times == sorted(times)

    def test_reference_host_untouched(self):
        skewed = exchange_events(skew=4.0)
        fixed = correct_skew(skewed)
        be_before = [e.ts for e in skewed if e.host == "be"]
        be_after = [e.ts for e in fixed if e.host == "be"]
        assert be_before == be_after


class TestViolationCounter:
    def test_clean_log_has_none(self):
        assert causality_violations(exchange_events(skew=0.0)) == 0

    def test_counts_each_violation(self):
        assert causality_violations(exchange_events(skew=-5.0)) == 3


class TestOneSession:
    def test_multi_viewer_log_is_refused(self):
        # Two sessions both send and receive frame 0 of rank 0: paired
        # by (rank, frame) alone they give false violations and false
        # offsets, so both readers refuse the log.
        config = ExperimentConfig(
            campaign="sc99-multiviewer", scaled=True, frames=2
        ).to_campaign_config()
        config = config.with_changes(
            workload=config.workload.with_changes(n_viewers=2)
        )
        events = run_campaign(config).event_log.events
        with pytest.raises(ValueError, match="2 viewer hosts"):
            causality_violations(events)
        with pytest.raises(ValueError, match="2 viewer hosts"):
            estimate_offsets(events)

    def test_single_session_run_has_no_violations(self):
        result = run_campaign(
            CampaignConfig.nton_cplant(n_pes=4, n_timesteps=4)
        )
        assert causality_violations(result.event_log.events) == 0
