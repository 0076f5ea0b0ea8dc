"""Integration tests: the live Visapult pipeline on localhost sockets."""

import socket
import sys
import threading
import time

import pytest

from repro.datagen import (
    CombustionConfig,
    SyntheticTimeSeries,
    TimeSeriesMeta,
    combustion_field,
)
from repro.ibravr import IbravrModel, render_payloads, rendering_from_payloads
from repro.ibravr.axis import AxisChoice, best_view_axis
from repro.live import LiveBackEnd, LiveViewer
from repro.netlogger import NetLogDaemon, EventLog, Tags
from repro.protocol import (
    AxisFeedback,
    MsgType,
    encode_message,
    read_message,
    write_message,
)
from repro.scenegraph import Camera
from repro.volren import TransferFunction, VolumeRenderer, slab_decompose


def make_source(shape=(24, 24, 24), steps=3, on_materialise=None):
    cfg = CombustionConfig(shape=shape)
    meta = TimeSeriesMeta(name="live", shape=shape, n_timesteps=steps)

    def field(t):
        if on_materialise is not None:
            on_materialise()
        return combustion_field(t, cfg)

    return SyntheticTimeSeries(meta, field, dt=0.5)


def run_pipeline(
    n_pes=2, steps=3, overlapped=False,
    send_grid=False, feedback=False, daemon=None, on_materialise=None,
):
    source = make_source(steps=steps, on_materialise=on_materialise)
    viewer = LiveViewer(
        send_axis_feedback=feedback, frame_size=64, daemon=daemon,
    )
    port = viewer.start()
    backend = LiveBackEnd(
        source,
        n_pes,
        port,
        overlapped=overlapped,
        send_grid=send_grid,
        follow_axis_feedback=feedback,
        daemon=daemon,
    )
    try:
        frames = backend.run(timeout=60.0)
        assert viewer.wait_done(timeout=30.0), "viewer never finished"
    finally:
        viewer.stop()
    if viewer.errors:
        raise viewer.errors[0]
    return viewer, frames


class TestSerialPipeline:
    def test_all_frames_assembled(self):
        viewer, frames = run_pipeline(n_pes=2, steps=3)
        assert frames == [3, 3]
        assert sorted(viewer.frames_assembled) == [0, 1, 2]

    def test_render_thread_produced_images(self):
        viewer, _ = run_pipeline(n_pes=2, steps=3)
        assert viewer.rendered_images >= 1
        assert viewer.last_image is not None
        assert viewer.last_image.shape == (64, 64, 4)
        # The combustion kernel is visible, not a black frame.
        assert viewer.last_image[..., 3].max() > 0.05

    def test_single_pe(self):
        viewer, frames = run_pipeline(n_pes=1, steps=2)
        assert frames == [2]
        assert sorted(viewer.frames_assembled) == [0, 1]

    def test_four_pes(self):
        viewer, frames = run_pipeline(n_pes=4, steps=2)
        assert frames == [2, 2, 2, 2]
        assert sorted(viewer.frames_assembled) == [0, 1]


def kernel_frame(source, n_pes, step, camera, size):
    """The frame the slab kernel pair gives in process, no sockets."""
    renderer = VolumeRenderer(TransferFunction.fire())
    shape = source.meta.shape
    volume = source.timestep(step)
    model = IbravrModel()
    model.update([
        rendering_from_payloads(*render_payloads(
            renderer, sub, sub.extract(volume), shape, step
        ))
        for sub in slab_decompose(shape, n_pes)
    ])
    return model.render_frame(camera, size, size)


class TestOverlappedPipeline:
    def test_overlapped_matches_serial_output(self):
        """Serial and overlapped runs over sockets both leave the viewer
        holding exactly the frame the kernel pair gives in process."""
        expected = None
        for overlapped in (False, True):
            viewer, frames = run_pipeline(
                n_pes=3, steps=2, overlapped=overlapped
            )
            assert frames == [2, 2, 2]
            assert sorted(viewer.frames_assembled) == [0, 1]
            if expected is None:
                expected = kernel_frame(
                    make_source(steps=2), 3, 1, viewer.camera, 64
                )
            frame = viewer.model.render_frame(viewer.camera, 64, 64)
            assert frame.tobytes() == expected.tobytes()

    def test_overlapped_netlogger_shows_pipeline(self):
        """The Appendix B prefetch, as ``_run_overlapped`` guarantees it
        (not as the thread scheduler happens to time it): the load of
        frame N+1 is requested after BE_FRAME_START(N) and joined before
        BE_FRAME_START(N+1), so it lies wholly inside frame N's
        lifeline, and it runs on the reader thread, not the PE's."""
        daemon = NetLogDaemon()
        loaders = set()
        run_pipeline(
            n_pes=2, steps=4, overlapped=True, daemon=daemon,
            on_materialise=lambda: loaders.add(
                threading.current_thread().name
            ),
        )
        log = EventLog(daemon.sorted_events())

        def stamps(tag):
            return {
                (e.get("rank"), e.get("frame")): e.ts
                for e in log.filter(event=tag).events
            }

        frame_start = stamps(Tags.BE_FRAME_START)
        load_start = stamps(Tags.BE_LOAD_START)
        load_end = stamps(Tags.BE_LOAD_END)
        assert len(frame_start) == len(load_start) == len(load_end) == 8
        for rank in range(2):
            for frame in range(3):
                assert (
                    frame_start[rank, frame]
                    <= load_start[rank, frame + 1]
                    <= load_end[rank, frame + 1]
                    <= frame_start[rank, frame + 1]
                )
        assert loaders and loaders <= {"reader-0", "reader-1"}


class TestExtensions:
    def test_grid_overlay_flows_through(self):
        viewer, _ = run_pipeline(n_pes=2, steps=2, send_grid=True)
        overlay = viewer.model.root.find("amr-grid")
        assert overlay is not None
        assert overlay.n_segments > 0

    def test_axis_feedback_loop(self):
        daemon = NetLogDaemon()
        viewer, _ = run_pipeline(
            n_pes=2, steps=4, feedback=True, daemon=daemon
        )
        assert sorted(viewer.frames_assembled) == [0, 1, 2, 3]
        # The viewer's camera at orbit(15, 10) still prefers axis 0,
        # so the loop must remain stable (no crash, frames keep
        # flowing) -- the semantically interesting axis change is
        # covered by unit tests on best_view_axis.

    def test_overlapped_follows_feedback_like_serial(self):
        """The overlapped reader cuts each slab along the axis polled
        before its request, so both modes end on the viewer's choice.
        A slow load gives frame 0's feedback time to reach rank 0
        before the last poll, which comes two frames later."""
        want = best_view_axis(Camera.orbit(15, 10).forward)
        ends = []
        for overlapped in (False, True):
            viewer, _ = run_pipeline(
                n_pes=2, steps=4, overlapped=overlapped, feedback=True,
                on_materialise=lambda: time.sleep(0.2),
            )
            assert sorted(viewer.frames_assembled) == [0, 1, 2, 3]
            ends.append({
                AxisChoice(axis=r.axis, flip=r.flip)
                for r in viewer.model._renderings
            })
        assert ends == [{want}, {want}]

    @pytest.mark.parametrize("overlapped", [False, True])
    def test_each_timestep_materialised_once(self, overlapped):
        """Every PE thread and reader shares one materialisation per
        step; a short switch interval makes a check-then-act race on the
        shared steps show up as a second call."""
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_pipeline(
                n_pes=2, steps=4, overlapped=overlapped,
                on_materialise=lambda: calls.append(1),
            )
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 4

    def test_pe_close_cannot_reset_unsent_payloads(self):
        # A viewer's last axis feedback can reach a PE that will never
        # read it.  Closing a socket on unread data sends a reset and
        # discards whatever is still queued to send: behind a slow
        # viewer (a 4 KB receive buffer here), most of the last texture.
        # The PE must wait for the viewer to close first.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        backend = LiveBackEnd(
            make_source(shape=(4, 128, 128), steps=1),
            1,
            listener.getsockname()[1],
        )
        pe = threading.Thread(target=backend.run, daemon=True)
        pe.start()
        conn, _ = listener.accept()
        listener.close()
        with conn:
            conn.settimeout(30.0)
            write_message(conn, *encode_message(
                AxisFeedback(frame=0, axis=0, flip=False)
            ))
            time.sleep(0.5)  # the PE has queued everything by now
            types = []
            while not types or types[-1] != MsgType.BYE:
                types.append(read_message(conn)[0])
        pe.join(timeout=30.0)
        assert not pe.is_alive()
        assert MsgType.HEAVY in types


class TestNetLoggerIntegration:
    def test_live_events_collected(self):
        daemon = NetLogDaemon()
        run_pipeline(n_pes=2, steps=2, daemon=daemon)
        log = EventLog(daemon.sorted_events())
        assert len(log.render_spans()) == 4  # 2 PEs x 2 frames
        assert len(log.filter(event=Tags.V_HEAVYPAYLOAD_END)) == 4
        stats = log.duration_stats(log.render_spans())
        assert stats["mean"] > 0


def test_removed_names_fail_loudly():
    """Options only tests set and the thread tooling nothing ran over
    the live pipeline are gone: a removed keyword is a TypeError, a
    removed module or name an ImportError."""
    source = make_source(steps=1)
    type_errors = [
        lambda: LiveBackEnd(source, 1, 0, tf=TransferFunction.fire()),
        lambda: LiveBackEnd(source, 1, 0, with_depth=True),
        lambda: LiveViewer(camera=Camera.orbit(15, 10)),
        lambda: LiveViewer(use_depth_meshes=True),
    ]
    for call in type_errors:
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ImportError):
        import repro.mpc  # noqa: F401
    with pytest.raises(ImportError):
        from repro.analysis import named_lock  # noqa: F401
    with pytest.raises(ImportError):
        from repro.analysis import enable_thread_sanitizer  # noqa: F401
