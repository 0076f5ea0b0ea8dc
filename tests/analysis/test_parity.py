"""Sanitizer-off parity: instrumentation must not perturb the physics.

The sanitizer only observes (it never schedules events), so a
sanitized campaign must reproduce the unsanitized run bit for bit --
and the shipped pipelines must come back with zero findings.
"""

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.platforms import PlatformSpec, Platforms

#: small dataset so each parity case runs in well under a second
SMALL = dict(shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3)


def small_config(overlapped: bool) -> CampaignConfig:
    return CampaignConfig.lan_e4500(overlapped=overlapped).with_changes(
        **SMALL
    )


def event_stream(result):
    return [
        (e.ts, e.event, e.host, e.prog, tuple(sorted(e.data.items())))
        for e in result.event_log.events
    ]


@pytest.mark.parametrize("overlapped", [False, True])
def test_campaign_bit_identical_with_sanitizer(overlapped):
    baseline = run_campaign(small_config(overlapped))
    sanitized = run_campaign(small_config(overlapped), sanitize=True)
    assert sanitized.total_time == baseline.total_time
    assert sanitized.per_frame_load == baseline.per_frame_load
    assert sanitized.per_frame_render == baseline.per_frame_render
    assert sanitized.mean_load == baseline.mean_load
    assert sanitized.mean_render == baseline.mean_render
    assert event_stream(sanitized) == event_stream(baseline)


@pytest.mark.parametrize("overlapped", [False, True, "mpi-pair"])
def test_campaign_reports_zero_findings(overlapped):
    """Serial, overlapped and Appendix B's MPI-only reader pairs."""
    if overlapped == "mpi-pair":
        config = small_config(False).with_changes(mpi_only_overlap=True)
    else:
        config = small_config(overlapped)
    result = run_campaign(config, sanitize=True)
    assert result.sanitizer_findings == []


def test_unsanitized_campaign_has_empty_findings_field():
    result = run_campaign(small_config(False))
    assert result.sanitizer_findings == []


def test_e7_overlap_speedup_unchanged_by_sanitizer():
    """The e7 benchmark quantity -- serial/overlapped speedup on a
    balanced platform -- must be identical with the sanitizer on."""
    slab_voxels = 64 * 32 * 32 / 8
    balanced = PlatformSpec(
        name="e4500-balanced",
        cluster=False,
        nic_rate=Platforms.E4500.nic_rate,
        n_cpus=8,
        render_voxels_per_sec=slab_voxels / 2.0,
    )

    def speedup(sanitize: bool) -> float:
        serial = run_campaign(
            small_config(False).with_changes(platform=balanced),
            sanitize=sanitize,
        )
        overlap = run_campaign(
            small_config(True).with_changes(platform=balanced),
            sanitize=sanitize,
        )
        for result in (serial, overlap):
            assert result.sanitizer_findings == []
        return serial.total_time / overlap.total_time

    assert speedup(sanitize=True) == speedup(sanitize=False)


def test_san_events_reach_the_daemon_only_after_reduction():
    """SAN_* events are appended after results are reduced, so the
    result's event log never contains them even on a sanitized run."""
    result = run_campaign(small_config(True), sanitize=True)
    assert not any(
        e.event.startswith("SAN_") for e in result.event_log.events
    )
