"""Tests for campaign configuration, the session runner and reports.

Full-size campaigns are exercised by the benchmark harness; here we
use scaled-down datasets to test the machinery quickly.
"""

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.platforms import Platforms, Wans
from repro.netlogger.events import Tags


def tiny(config: CampaignConfig, frames=3) -> CampaignConfig:
    """Shrink a campaign to a toy dataset for fast unit testing."""
    return config.with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=frames
    )


@pytest.fixture(scope="module")
def lan_serial_result():
    return run_campaign(tiny(CampaignConfig.lan_e4500(overlapped=False)))


@pytest.fixture(scope="module")
def lan_overlapped_result():
    return run_campaign(tiny(CampaignConfig.lan_e4500(overlapped=True)))


class TestConfig:
    def test_named_constructors(self):
        cfgs = [
            CampaignConfig.lan_e4500(overlapped=False),
            CampaignConfig.lan_e4500(overlapped=True),
            CampaignConfig.nton_cplant(n_pes=4),
            CampaignConfig.nton_cplant(n_pes=8, overlapped=True,
                                       viewer_remote=True),
            CampaignConfig.esnet_anl_smp(overlapped=False),
            CampaignConfig.sc99_cosmology(),
            CampaignConfig.sc99_showfloor(),
        ]
        names = [c.name for c in cfgs]
        assert len(set(names)) == len(names)

    def test_paper_dataset_dimensions(self):
        cfg = CampaignConfig.nton_cplant()
        meta = cfg.meta
        assert meta.shape == (640, 256, 256)
        assert meta.n_timesteps == 265
        # 160 MB per timestep (the paper's figure).
        assert meta.bytes_per_timestep == pytest.approx(160e6, rel=0.05)
        # 41.4 GB total.
        assert meta.total_bytes == pytest.approx(41.4e9, rel=0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(
                name="x", platform=Platforms.E4500, wan=Wans.LAN_GIGE,
                n_pes=0,
            )
        with pytest.raises(ValueError):
            CampaignConfig(
                name="x", platform=Platforms.E4500, wan=Wans.LAN_GIGE,
                n_pes=1, n_timesteps=0,
            )

    def test_with_changes(self):
        cfg = CampaignConfig.lan_e4500(overlapped=False)
        other = cfg.with_changes(n_timesteps=3)
        assert other.n_timesteps == 3
        assert cfg.n_timesteps == 10  # original untouched


class TestRunCampaign:
    def test_completes_all_frames(self, lan_serial_result):
        r = lan_serial_result
        assert r.viewer_frames_complete == r.n_frames
        assert r.total_time > 0

    def test_event_log_has_full_vocabulary(self, lan_serial_result):
        events = {e.event for e in lan_serial_result.event_log.events}
        for tag in (
            Tags.BE_FRAME_START, Tags.BE_LOAD_START, Tags.BE_LOAD_END,
            Tags.BE_RENDER_START, Tags.BE_RENDER_END, Tags.BE_HEAVY_SEND,
            Tags.BE_HEAVY_END, Tags.V_FRAME_START,
            Tags.V_HEAVYPAYLOAD_END, Tags.V_FRAME_END,
        ):
            assert tag in events, f"missing {tag}"

    def test_span_counts(self, lan_serial_result):
        r = lan_serial_result
        n = r.config.n_pes * r.n_frames
        assert len(r.event_log.load_spans()) == n
        assert len(r.event_log.render_spans()) == n

    def test_overlapped_faster_than_serial(
        self, lan_serial_result, lan_overlapped_result
    ):
        assert (
            lan_overlapped_result.total_time < lan_serial_result.total_time
        )

    def test_overlap_speedup_bounded_by_model(
        self, lan_serial_result, lan_overlapped_result
    ):
        speedup = (
            lan_serial_result.total_time / lan_overlapped_result.total_time
        )
        assert 1.0 < speedup < 2.0

    def test_traffic_asymmetry(self, lan_serial_result):
        """DPSS->BE traffic dwarfs BE->viewer traffic (section 4.1)."""
        assert lan_serial_result.traffic_asymmetry > 5.0

    def test_deterministic_given_seed(self):
        cfg = tiny(CampaignConfig.lan_e4500(overlapped=True), frames=2)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert a.total_time == pytest.approx(b.total_time, rel=1e-9)

    def test_summary_renders(self, lan_serial_result):
        text = lan_serial_result.summary()
        assert "campaign" in text
        assert "Mbps" in text

    def test_remote_viewer_topology(self):
        cfg = tiny(
            CampaignConfig.nton_cplant(
                n_pes=2, overlapped=False, viewer_remote=True
            ),
            frames=2,
        )
        r = run_campaign(cfg)
        assert r.viewer_frames_complete == 2

    def test_smp_platform_shares_nic(self):
        """On the SMP, 8 PEs behind one NIC cannot beat the NIC rate."""
        cfg = tiny(CampaignConfig.lan_e4500(overlapped=False), frames=2)
        r = run_campaign(cfg)
        from repro.util import bytes_per_sec_to_mbps

        assert r.load_throughput_mbps <= (
            bytes_per_sec_to_mbps(Platforms.E4500.nic_rate) * 1.05
        )

    def test_cluster_vs_smp_load_paths(self):
        """Cluster nodes each have a NIC, so a 4-node cluster can pull
        more than one shared slow NIC would allow."""
        smp = run_campaign(tiny(CampaignConfig.lan_e4500(overlapped=False),
                                frames=2))
        cluster = run_campaign(
            tiny(CampaignConfig.nton_cplant(n_pes=4), frames=2)
        )
        assert cluster.load_throughput_mbps > smp.load_throughput_mbps


def test_run_loads_no_new_numpy_module():
    """A two-timestep campaign, plain and as a service, imports no
    ``numpy.*`` module while it runs: NumPy 2's ``np.percentile``
    imports ``numpy.ma`` on first use, a cost the first run would pay."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "from repro.core import CampaignConfig, run_campaign\n"
        "from repro.service import ServiceCampaign\n"
        "plain = CampaignConfig.lan_e4500(overlapped=True).with_changes(\n"
        "    shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=2)\n"
        "service = ServiceCampaign.sc99_multiviewer(\n"
        "    n_viewers=3, n_timesteps=2)\n"
        "service = service.with_changes(\n"
        "    base=service.base.with_changes(shape=(64, 32, 32)))\n"
        "before = set(sys.modules)\n"
        "run_campaign(plain)\n"
        "run_campaign(service)\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
