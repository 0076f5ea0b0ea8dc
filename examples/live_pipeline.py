#!/usr/bin/env python
"""The live Visapult pipeline over real localhost sockets.

Everything here is real: four back end PE threads volume render
synthetic combustion voxels, ship light/heavy payloads over TCP
sockets using the Visapult wire protocol, and a multi-threaded viewer
assembles them into an IBRAVR scene graph behind a semaphore-guarded
lock while its decoupled render thread produces frames. The overlapped
mode exercises Appendix B's reader-thread/double-buffer handshake with
actual threads.

Run with::

    python examples/live_pipeline.py
"""

import time

from repro.datagen import (
    CombustionConfig,
    SyntheticTimeSeries,
    TimeSeriesMeta,
    combustion_field,
)
from repro.live import LiveBackEnd, LiveViewer
from repro.netlogger import EventLog, NetLogDaemon, lifeline_plot
from repro.util.image import save_ppm


def run(overlapped: bool) -> None:
    mode = "overlapped" if overlapped else "serial"
    print(f"=== Live pipeline, {mode} back end ===")
    shape = (48, 48, 48)
    steps = 4
    cfg = CombustionConfig(shape=shape)
    meta = TimeSeriesMeta(name="live-demo", shape=shape, n_timesteps=steps)
    source = SyntheticTimeSeries(
        meta, lambda t: combustion_field(t, cfg), dt=0.4
    )

    daemon = NetLogDaemon()
    viewer = LiveViewer(frame_size=192, send_axis_feedback=True,
                        daemon=daemon)
    port = viewer.start()
    backend = LiveBackEnd(
        source,
        n_pes=4,
        viewer_port=port,
        overlapped=overlapped,
        send_grid=True,
        follow_axis_feedback=True,
        daemon=daemon,
    )
    t0 = time.monotonic()
    backend.run(timeout=120.0)
    viewer.wait_done(timeout=60.0)
    wall = time.monotonic() - t0
    viewer.stop()

    log = EventLog(daemon)
    render_stats = log.duration_stats(log.render_spans())
    print(
        f"{steps} timesteps x 4 PEs in {wall:.2f} s wall; "
        f"viewer assembled frames {sorted(viewer.frames_assembled)}; "
        f"render thread drew {viewer.rendered_images} images"
    )
    print(
        f"per-PE render time: {render_stats['mean'] * 1e3:.0f} ms "
        f"+- {render_stats['std'] * 1e3:.0f} ms"
    )
    if viewer.last_image is not None:
        path = save_ppm(f"live_frame_{mode}.ppm", viewer.last_image)
        print(f"final viewer frame written to {path}")
    print()
    return log


if __name__ == "__main__":
    run(overlapped=False)
    log = run(overlapped=True)
    print("NetLogger lifeline of the live overlapped run:")
    print(lifeline_plot(log, width=100))
