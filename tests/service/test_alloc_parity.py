"""ULM byte-parity pins and the ALLOC_* observability lane.

These tests pin that a whole campaign's ULM event stream --
single-session and the sc99-multiviewer service campaign -- is
byte-identical when the fresh-recompute oracle
(``tests/oracles/recompute_fluid.py``) is patched in for the
allocator, and that the opt-in ``alloc_stats`` lane emits ALLOC_*
events without perturbing the default stream.
"""

from __future__ import annotations

import pytest

import repro.netsim.topology as topology
from repro.core import CampaignConfig, run_campaign
from repro.core.campaign import named_campaign
from repro.netlogger import ALLOC_TAGS, Tags, declared_tags, lifeline_plot
from tests.oracles.recompute_fluid import RecomputeFluidScheduler
from tests.quick import quick_campaign


def _tiny_single():
    return CampaignConfig.lan_e4500(overlapped=True).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=3
    )


def _scaled_service():
    config = named_campaign("sc99-multiviewer")
    return config.with_changes(
        workload=config.workload.with_changes(n_viewers=4),
        base=config.base.with_changes(
            n_timesteps=2, shape=(160, 64, 64), dataset_timesteps=8
        ),
    )


def _ulm_bytes(config, path) -> bytes:
    run_campaign(config, ulm_path=str(path))
    return path.read_bytes()


@pytest.mark.parametrize("make_config", [_tiny_single, _scaled_service],
                         ids=["single-session", "sc99-multiviewer"])
def test_ulm_byte_parity_incremental_vs_oracle(
    make_config, tmp_path, monkeypatch
):
    inc = _ulm_bytes(make_config(), tmp_path / "incremental.ulm")
    # Network looks the scheduler class up by this name.
    monkeypatch.setattr(topology, "FluidScheduler", RecomputeFluidScheduler)
    orc = _ulm_bytes(make_config(), tmp_path / "recompute.ulm")
    assert inc, "campaign produced an empty ULM log"
    assert inc == orc


def test_alloc_tags_are_declared():
    assert Tags.ALLOC_REALLOC in declared_tags()
    assert Tags.ALLOC_SUMMARY in declared_tags()
    assert set(ALLOC_TAGS) == {Tags.ALLOC_REALLOC, Tags.ALLOC_SUMMARY}


def test_alloc_stats_lane_in_ulm_and_nlv(tmp_path):
    path = tmp_path / "alloc.ulm"
    result = run_campaign(_tiny_single(), ulm_path=str(path),
                          alloc_stats=True)
    text = path.read_text()
    assert Tags.ALLOC_SUMMARY in text
    assert Tags.ALLOC_REALLOC in text  # sampled, but a run has >1 batch
    plot = lifeline_plot(result.event_log)
    lanes = [line.split("|")[0].strip() for line in plot.splitlines()]
    assert Tags.ALLOC_SUMMARY in lanes
    assert Tags.ALLOC_REALLOC in lanes


def test_alloc_stats_off_by_default(tmp_path):
    path = tmp_path / "quiet.ulm"
    run_campaign(_tiny_single(), ulm_path=str(path))
    assert "ALLOC_" not in path.read_text()


def test_alloc_summary_counts_window_steps():
    """E5's slow first frame over ESnet, as one number in the log: the
    window was still opening, so binding cap steps were applied."""
    result = run_campaign(quick_campaign("esnet_anl", True), alloc_stats=True)
    (summary,) = result.event_log.filter(event=Tags.ALLOC_SUMMARY).events
    assert summary.get("cap_steps") > 0
    assert summary.get("solves_elided") >= 0
    # A LAN window opens inside the first round trips: next to nothing.
    lan = run_campaign(quick_campaign("lan_e4500", True), alloc_stats=True)
    (lan_summary,) = lan.event_log.filter(event=Tags.ALLOC_SUMMARY).events
    assert lan_summary.get("cap_steps") < summary.get("cap_steps")
