"""Unit tests for the simulated back end and viewer."""

import pytest

from repro.backend.sim import SimBackEnd
from repro.core.campaign import CampaignConfig, build_session
from repro.datagen.timeseries import TimeSeriesMeta
from repro.netlogger.analysis import EventLog
from repro.netlogger.events import Tags
from repro.config import BackendConfig


def tiny_session(overlapped=False, n_pes=4, frames=3, platform=None):
    cfg = CampaignConfig.lan_e4500(overlapped=overlapped).with_changes(
        shape=(64, 32, 32), dataset_timesteps=8, n_timesteps=frames,
    )
    if platform is not None:
        cfg = cfg.with_changes(platform=platform)
    return cfg, build_session(cfg)


class TestBackEndGeometry:
    def test_slab_bytes_sum_to_timestep(self):
        cfg, (net, backend, viewer, daemon) = tiny_session(n_pes=4)
        total = sum(
            backend.slab_bytes(r) for r in range(backend.n_pes)
        )
        assert total == pytest.approx(backend.meta.bytes_per_timestep)

    def test_slab_offsets_contiguous(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        for frame in range(2):
            running = frame * backend.meta.bytes_per_timestep
            for rank in range(backend.n_pes):
                assert backend.slab_offset(rank, frame) == pytest.approx(
                    running
                )
                running += backend.slab_bytes(rank)

    def test_texture_bytes_is_plane_rgba(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        # shape (64, 32, 32): the slab texture covers the y-z plane.
        assert backend.texture_bytes(0) == 32 * 32 * 4

    def test_render_cpu_seconds_positive(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        assert backend.render_cpu_seconds(0) > 0


class TestBackEndModes:
    def test_serial_frames_ordered_per_pe(self):
        cfg, (net, backend, viewer, daemon) = tiny_session(overlapped=False)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        for rank in range(backend.n_pes):
            starts = [
                e for e in log.events
                if e.event == Tags.BE_LOAD_START and e.get("rank") == rank
            ]
            frames = [e.get("frame") for e in starts]
            assert frames == sorted(frames)

    def test_serial_load_and_render_disjoint_per_pe(self):
        """In serial mode a PE never loads while rendering."""
        cfg, (net, backend, viewer, daemon) = tiny_session(overlapped=False)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        for rank in range(backend.n_pes):
            sub = EventLog(e for e in log.events if e.get("rank") == rank)
            spans = sorted(
                sub.load_spans() + sub.render_spans(),
                key=lambda s: s.start,
            )
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start + 1e-9

    def test_overlapped_load_and_render_overlap(self):
        """In overlapped mode, frame N+1's load overlaps frame N's
        render (the Appendix B pipeline)."""
        cfg, (net, backend, viewer, daemon) = tiny_session(overlapped=True)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        overlap_found = False
        for rank in range(backend.n_pes):
            sub = EventLog(e for e in log.events if e.get("rank") == rank)
            loads = {s.frame: s for s in sub.load_spans()}
            renders = {s.frame: s for s in sub.render_spans()}
            for frame, render in renders.items():
                nxt = loads.get(frame + 1)
                if nxt and nxt.start < render.end and nxt.end > render.start:
                    overlap_found = True
        assert overlap_found

    def test_overlapped_loads_one_frame_ahead_only(self):
        """The double buffer holds at most two frames: the load for
        frame N+2 cannot start before frame N's render completes."""
        cfg, (net, backend, viewer, daemon) = tiny_session(
            overlapped=True, frames=4
        )
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        for rank in range(backend.n_pes):
            sub = EventLog(e for e in log.events if e.get("rank") == rank)
            loads = {s.frame: s for s in sub.load_spans()}
            renders = {s.frame: s for s in sub.render_spans()}
            for frame, render in renders.items():
                later = loads.get(frame + 2)
                if later is not None:
                    assert later.start >= render.end - 1e-9

    def test_all_frames_delivered(self):
        for overlapped in (False, True):
            cfg, (net, backend, viewer, daemon) = tiny_session(
                overlapped=overlapped
            )
            net.run(until=backend.run())
            assert viewer.complete_frames(backend.n_pes) == cfg.n_timesteps

    def test_timing_byte_accounting(self):
        cfg, (net, backend, viewer, daemon) = tiny_session(frames=2)
        net.run(until=backend.run())
        expected = 2 * backend.meta.bytes_per_timestep
        assert backend.timing.bytes_loaded == pytest.approx(expected)
        assert backend.timing.bytes_sent_to_viewer > 0
        assert backend.timing.total_time > 0

    def test_validation(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        with pytest.raises(ValueError):
            SimBackEnd(
                net, [], backend.master, "x", viewer, backend.meta,
                daemon=daemon,
            )
        meta = TimeSeriesMeta(name="m", shape=(8, 8, 8), n_timesteps=2)
        with pytest.raises(ValueError):
            SimBackEnd(
                net, backend.pe_hosts, backend.master, "x", viewer, meta,
                daemon=daemon, config=BackendConfig(n_timesteps=5),
            )


class TestViewer:
    def test_register_pe_twice_rejected(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        with pytest.raises(ValueError):
            viewer.register_pe(0, backend.pe_hosts[0].name)

    def test_unregistered_rank_rejected(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        with pytest.raises(KeyError):
            ev = viewer.deliver_light(99, 0)
            net.run(until=ev)

    def test_connection_per_pe(self):
        cfg, (net, backend, viewer, daemon) = tiny_session(n_pes=4)
        assert len(viewer._conns) == backend.n_pes

    def test_deliver_absent_composites_remaining_slabs(self):
        """A missing slab is logged and skipped; the other PEs' slabs
        still reach the scene graph (partial-frame compositing)."""
        cfg, (net, backend, viewer, daemon) = tiny_session(n_pes=4)
        ev = viewer.deliver_absent(1, 0)
        assert ev.triggered
        for rank in (0, 2, 3):
            done = viewer.deliver_heavy(rank, 0, 1024.0)
            net.run(until=done)
        assert viewer.missing_slabs == {(1, 0)}
        assert viewer.frames_completed[0] == {0, 2, 3}
        # 3 of 4 slabs present: not complete at full PE count...
        assert viewer.complete_frames(4) == 0
        # ...but the compositor had every slab it was promised.
        assert viewer.scene_updates == 3
        log = EventLog(daemon.events)
        assert len(log.filter(event=Tags.V_SLAB_MISSING).events) == 1

    def test_deliver_absent_unregistered_rank_rejected(self):
        cfg, (net, backend, viewer, daemon) = tiny_session()
        with pytest.raises(KeyError):
            viewer.deliver_absent(99, 0)

    def test_viewer_events_follow_backend_events(self):
        cfg, (net, backend, viewer, daemon) = tiny_session(frames=2)
        net.run(until=backend.run())
        log = EventLog(daemon.events)
        heavies = log.filter(event=Tags.V_HEAVYPAYLOAD_END).events
        sends = log.filter(event=Tags.BE_HEAVY_SEND).events
        assert len(heavies) == len(sends)
        # Every delivery completes at or after its send began.
        for s, h in zip(sends, heavies):
            assert h.ts >= s.ts
