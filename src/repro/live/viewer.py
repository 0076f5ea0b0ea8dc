"""The live viewer: receiver threads, scene graph, render thread."""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.ibravr.axis import best_view_axis
from repro.ibravr.compositor import IbravrModel
from repro.ibravr.payloads import rendering_from_payloads
from repro.live.sync import SceneLock
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.protocol import (
    AxisFeedback,
    ConfigMessage,
    FrameError,
    HeavyPayload,
    LightPayload,
    MsgType,
    decode_message,
    encode_message,
    read_message,
    write_message,
)
from repro.scenegraph.camera import Camera
from repro.volren.renderer import SlabRendering


class LiveViewer:
    """Accepts one connection per back end PE; assembles IBRAVR frames.

    Lifecycle: ``start()`` binds a localhost port (returned), then
    back end PEs connect; ``wait_done()`` blocks until every PE sent
    its BYE. The render thread redraws whenever the scene version
    changes, decoupled from network arrival -- the paper's central
    interactivity trick. It draws through the ``orbit(15, 10)`` camera.

    Locks never nest (the state lock is released before the scene lock
    is taken), so no lock order can invert.
    """

    def __init__(
        self,
        *,
        frame_size: int = 128,
        send_axis_feedback: bool = False,
        daemon=None,
    ):
        self.camera = Camera.orbit(15, 10)
        self.model = IbravrModel()
        self.scene_lock = SceneLock()
        self.frame_size = frame_size
        self.send_axis_feedback = send_axis_feedback
        self.logger = NetLogger("viewer", "viewer", daemon=daemon)

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._render_thread: Optional[threading.Thread] = None
        self._receiver_threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._done = threading.Event()

        self._state_lock = threading.Lock()
        self._expected_pes: Optional[int] = None
        self._pending_light: Dict[tuple, LightPayload] = {}
        self._frame_parts: Dict[int, Dict[int, SlabRendering]] = {}
        self._pending_grids: Dict[int, np.ndarray] = {}
        self._byes = 0
        self._rank0_sock: Optional[socket.socket] = None

        self.frames_assembled: List[int] = []
        self.rendered_images: int = 0
        self.last_image: Optional[np.ndarray] = None
        self.errors: List[BaseException] = []

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> int:
        """Bind, listen, and start service threads; returns the port."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="viewer-accept", daemon=True
        )
        self._accept_thread.start()
        self._render_thread = threading.Thread(
            target=self._render_loop, name="viewer-render", daemon=True
        )
        self._render_thread.start()
        return port

    def wait_done(self, timeout: float = 60.0) -> bool:
        """Block until all PEs finished (True) or timeout (False)."""
        return self._done.wait(timeout=timeout)

    def stop(self) -> None:
        """Tear down threads and sockets."""
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        for t in self._receiver_threads:
            t.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._render_thread is not None:
            self._render_thread.join(timeout=5.0)

    # -- accept / receive ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._receiver, args=(conn,), daemon=True,
                name=f"viewer-recv-{len(self._receiver_threads)}",
            )
            self._receiver_threads.append(thread)
            thread.start()

    def _receiver(self, conn: socket.socket) -> None:
        """One I/O service thread: the per-PE loop of Figure 18."""
        try:
            while not self._stop.is_set():
                msg_type, body = read_message(conn)
                if msg_type == MsgType.BYE:
                    break
                msg = decode_message(msg_type, body)
                if isinstance(msg, ConfigMessage):
                    with self._state_lock:
                        self._expected_pes = msg.n_pes
                elif isinstance(msg, LightPayload):
                    self.logger.log(
                        Tags.V_LIGHTPAYLOAD_END, frame=msg.frame,
                        rank=msg.rank,
                    )
                    with self._state_lock:
                        self._pending_light[(msg.rank, msg.frame)] = msg
                        if msg.rank == 0 and self._rank0_sock is None:
                            self._rank0_sock = conn
                elif isinstance(msg, HeavyPayload):
                    self.logger.log(
                        Tags.V_HEAVYPAYLOAD_END, frame=msg.frame,
                        rank=msg.rank,
                    )
                    self._integrate(msg)
            with self._state_lock:
                self._byes += 1
                if (
                    self._expected_pes is not None
                    and self._byes >= self._expected_pes
                ):
                    self._done.set()
        except FrameError:
            if not self._stop.is_set():
                self._done.set()
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            self.errors.append(exc)
            self._done.set()
        finally:
            conn.close()

    def _integrate(self, heavy: HeavyPayload) -> None:
        with self._state_lock:
            light = self._pending_light.pop(
                (heavy.rank, heavy.frame), None
            )
        if light is None:
            raise FrameError(
                f"heavy payload for ({heavy.rank}, {heavy.frame}) "
                "without preceding light payload"
            )
        rendering = rendering_from_payloads(light, heavy)
        ready = None
        grid = None
        with self._state_lock:
            parts = self._frame_parts.setdefault(heavy.frame, {})
            parts[heavy.rank] = rendering
            # Grid geometry may arrive with any rank's payload (rank 0
            # sends it); keep it until the whole frame assembles.
            if heavy.grid is not None and len(heavy.grid):
                self._pending_grids[heavy.frame] = heavy.grid
            if (
                self._expected_pes is not None
                and len(parts) >= self._expected_pes
            ):
                ready = self._frame_parts.pop(heavy.frame)
                grid = self._pending_grids.pop(heavy.frame, None)
        if ready is not None:
            ordered = [ready[r] for r in sorted(ready)]
            with self.scene_lock.update():
                self.model.update(ordered)
                if grid is not None:
                    self.model.set_overlay(grid)
            with self._state_lock:
                self.frames_assembled.append(heavy.frame)
            if self.send_axis_feedback:
                choice = best_view_axis(self.camera.forward)
                self._send_feedback(
                    AxisFeedback(
                        frame=heavy.frame, axis=choice.axis,
                        flip=choice.flip,
                    )
                )
            self.logger.log(Tags.V_FRAME_END, frame=heavy.frame)

    def _send_feedback(self, feedback: AxisFeedback) -> None:
        with self._state_lock:
            sock = self._rank0_sock
        if sock is None:
            return
        try:
            write_message(sock, *encode_message(feedback))
        except OSError:
            pass  # PE already gone; feedback is advisory

    # -- render thread ---------------------------------------------------------
    def _render_loop(self) -> None:
        last_seen = 0
        while not self._stop.is_set():
            version = self.scene_lock.wait_for_change(last_seen, timeout=0.2)
            if version == last_seen:
                if self._done.is_set():
                    return
                continue
            last_seen = version
            with self.scene_lock.read():
                image = self.model.render_frame(
                    self.camera, self.frame_size, self.frame_size
                )
            self.last_image = image
            self.rendered_images += 1
