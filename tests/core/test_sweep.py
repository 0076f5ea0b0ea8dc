"""Tests for campaign parameter sweeps and WAN utilization series."""

import pytest

from repro.core import CampaignConfig, run_campaign, sweep
from repro.core.sweep import SweepResult


def tiny_base():
    return CampaignConfig.nton_cplant(n_pes=2).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=2
    )


class TestSweep:
    def test_sweep_over_pe_count(self):
        result = sweep(tiny_base(), "n_pes", [1, 2, 4])
        assert result.values == [1, 2, 4]
        assert len(result.results) == 3
        renders = result.metrics["render_s"]
        # Object-order render time falls with PE count.
        assert renders[0] > renders[1] > renders[2]

    def test_series_and_table(self):
        result = sweep(tiny_base(), "n_pes", [1, 2])
        series = result.series("total_s")
        assert [x for x, _ in series] == [1, 2]
        text = result.table()
        assert "n_pes" in text
        assert "total_s" in text

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny_base(), "n_pes", [])

    def test_non_numeric_values_enumerate(self):
        result = SweepResult(
            parameter="mode",
            values=["serial", "overlapped"],
            results=[],
            metrics={"m": [1.0, 2.0]},
        )
        assert result.series("m") == [(0, 1.0), (1, 2.0)]


class TestWanSeries:
    def test_utilization_series_recorded(self):
        result = run_campaign(tiny_base())
        series = result.wan_utilization_series
        assert series, "expected WAN utilization samples"
        times = [t for t, _ in series]
        utils = [u for _, u in series]
        assert times == sorted(times)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in utils)
        # The WAN actually carried traffic at some point.
        assert max(utils) > 0.3
