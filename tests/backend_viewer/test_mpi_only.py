"""Tests for the MPI-only overlapped back end (Appendix B alternative)."""

import pytest

import repro.backend.sim as sim
from repro.backend.sim import SimBackEnd
from repro.core.campaign import CampaignConfig, build_session
from repro.netlogger.analysis import EventLog
from repro.config import BackendConfig


def tiny(mpi=True, n_pes=4, frames=3):
    cfg = CampaignConfig.nton_cplant(n_pes=n_pes).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=frames,
        mpi_only_overlap=mpi, name=f"mpi-{mpi}-{n_pes}",
    )
    return cfg, build_session(cfg)


class TestMpiOnlyMode:
    def test_half_the_pes_render(self):
        cfg, (net, backend, viewer, daemon) = tiny(n_pes=4)
        assert backend.n_render_pes == 2
        assert len(backend.subvolumes) == 2
        assert len(viewer._conns) == 2

    def test_completes_all_frames(self):
        cfg, (net, backend, viewer, daemon) = tiny(n_pes=4, frames=3)
        net.run(until=backend.run())
        assert viewer.complete_frames(backend.n_render_pes) == 3

    def test_reader_and_render_hosts_differ(self):
        """Loads come from the reader ranks' hosts, renders from the
        render ranks' hosts: no CPU contention by construction."""
        cfg, (net, backend, viewer, daemon) = tiny(n_pes=4, frames=2)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        load_hosts = {s.host for s in log.load_spans()}
        render_hosts = {s.host for s in log.render_spans()}
        assert load_hosts.isdisjoint(render_hosts)

    def test_pipeline_overlaps_load_and_render(self):
        cfg, (net, backend, viewer, daemon) = tiny(n_pes=4, frames=4)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        loads = {(s.rank, s.frame): s for s in log.load_spans()}
        renders = {(s.rank, s.frame): s for s in log.render_spans()}
        overlap = False
        for (rank, frame), render in renders.items():
            nxt = loads.get((rank, frame + 1))
            if nxt and nxt.start < render.end and nxt.end > render.start:
                overlap = True
        assert overlap

    def test_validation(self):
        cfg, (net, backend, viewer, daemon) = tiny(n_pes=4)
        with pytest.raises(ValueError):
            SimBackEnd(
                net, backend.pe_hosts[:3], backend.master, "x", viewer,
                backend.meta, daemon=daemon,
                config=BackendConfig(mpi_only_overlap=True),
            )
        with pytest.raises(ValueError):
            SimBackEnd(
                net, backend.pe_hosts, backend.master, "x", viewer,
                backend.meta, daemon=daemon,
                config=BackendConfig(mpi_only_overlap=True, overlapped=True),
            )

    def test_interconnect_rate_matters(self, monkeypatch):
        """A slow fabric inflates the pipeline period: the cost the
        threaded design avoids entirely."""
        totals = {}
        # The toy slab is ~131 KB; 0.2 MB/s makes the hand-off ~0.65 s
        # per frame, dominating the toy render times.
        for rate in (200e6, 2e5):
            monkeypatch.setattr(sim, "INTERCONNECT_RATE", rate)
            cfg, (net, backend, viewer, daemon) = tiny(n_pes=4, frames=3)
            net.run(until=backend.run())
            totals[rate] = backend.timing.total_time
        assert totals[2e5] > totals[200e6] * 1.5
