"""The live back end: PE threads rendering real voxels.

Each PE is a thread (an MPI rank in the paper) owning one socket to
the viewer. Per frame it cuts its slab, calls the shared slab kernel
(:func:`repro.ibravr.render_payloads`) and ships the light/heavy pair
it returns. Serial mode follows Figure 18's left column; overlapped
mode launches the Appendix B detached reader with the semaphore pair
and double buffer from :mod:`repro.live.sync`.
"""

from __future__ import annotations

import select
import socket
import threading
from typing import Dict, Optional

from repro.datagen.amr import build_amr_hierarchy, grid_line_segments
from repro.ibravr.axis import AxisChoice
from repro.ibravr.payloads import render_payloads
from repro.live.sync import DoubleBuffer, SemaphorePair, run_spmd
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.protocol import (
    AxisFeedback,
    ConfigMessage,
    MsgType,
    encode_message,
    read_message,
    write_message,
)
from repro.volren.decomposition import slab_decompose
from repro.volren.renderer import VolumeRenderer
from repro.volren.transfer import TransferFunction


class LiveBackEnd:
    """Runs ``n_pes`` PE threads against a local dataset.

    ``source`` is anything with ``.meta`` and
    ``.timestep(step) -> ndarray`` (e.g.
    :class:`~repro.datagen.SyntheticTimeSeries`); each PE cuts its slab
    from the whole timestep, so the slab axis can change per frame.
    The local read stands in for the DPSS fetch; the WAN behaviour is
    the simulated campaigns' job. Every PE renders through the fire
    transfer function.
    """

    def __init__(
        self,
        source,
        n_pes: int,
        viewer_port: int,
        *,
        n_timesteps: Optional[int] = None,
        overlapped: bool = False,
        send_grid: bool = False,
        follow_axis_feedback: bool = False,
        daemon=None,
    ):
        if n_pes < 1:
            raise ValueError("n_pes must be >= 1")
        self.source = source
        self.meta = source.meta
        self.n_pes = n_pes
        self.viewer_port = viewer_port
        self.n_timesteps = (
            n_timesteps if n_timesteps is not None else self.meta.n_timesteps
        )
        if not 1 <= self.n_timesteps <= self.meta.n_timesteps:
            raise ValueError("n_timesteps out of range")
        self.overlapped = overlapped
        self.send_grid = send_grid
        self.follow_axis_feedback = follow_axis_feedback
        self.daemon = daemon
        self._renderer = VolumeRenderer(TransferFunction.fire())
        # The axis all PEs use next frame; rank 0 updates it from
        # viewer feedback, everyone reads it after a barrier.
        self._axis_cell = AxisChoice(axis=0, flip=False)
        self._axis_lock = threading.Lock()
        # step -> [voxels, takes left]: every PE (and rank 0's grid
        # overlay) takes each step once, so a run materialises each step
        # once and drops it at its last take.
        self._steps: Dict[int, list] = {}
        self._steps_lock = threading.Lock()

    # -- public ---------------------------------------------------------------
    def run(self, timeout: float = 120.0):
        """Execute the whole run; returns per-rank frame counts."""
        self._steps.clear()
        return run_spmd(self.n_pes, self._pe_main, timeout=timeout)

    # -- PE body ---------------------------------------------------------------
    def _pe_main(self, barrier: threading.Barrier, rank: int) -> int:
        logger = NetLogger(f"pe{rank}", f"backend-{rank}", daemon=self.daemon)
        sock = socket.create_connection(
            ("127.0.0.1", self.viewer_port), timeout=30.0
        )
        try:
            write_message(sock, *encode_message(ConfigMessage(
                n_pes=self.n_pes,
                n_timesteps=self.n_timesteps,
                shape=self.meta.shape,
            )))
            if self.overlapped:
                self._run_overlapped(barrier, rank, sock, logger)
            else:
                self._run_serial(barrier, rank, sock, logger)
            write_message(sock, MsgType.BYE, b"")
            # Read late axis feedback until the viewer closes: closing on
            # unread data resets the connection and drops unsent payloads.
            sock.shutdown(socket.SHUT_WR)
            while sock.recv(4096):
                pass
            return self.n_timesteps
        finally:
            sock.close()

    def _take_timestep(self, step: int):
        with self._steps_lock:
            if step not in self._steps:
                takes = self.n_pes + (1 if self.send_grid else 0)
                self._steps[step] = [self.source.timestep(step), takes]
            entry = self._steps[step]
            entry[1] -= 1
            if not entry[1]:
                del self._steps[step]
        return entry[0]

    def _current_axis(self) -> AxisChoice:
        with self._axis_lock:
            return self._axis_cell

    def _poll_feedback(self, barrier: threading.Barrier, rank: int,
                       sock: socket.socket) -> None:
        """Rank 0 drains axis feedback; every rank then meets at the
        barrier, so all of them read the same choice."""
        if not self.follow_axis_feedback:
            return
        while rank == 0 and select.select([sock], [], [], 0)[0]:
            msg_type, body = read_message(sock)
            if msg_type == MsgType.AXIS_FEEDBACK:
                fb = AxisFeedback.decode(body)
                with self._axis_lock:
                    self._axis_cell = AxisChoice(axis=fb.axis, flip=fb.flip)
        barrier.wait()

    def _load_slab(self, rank: int, frame: int, axis_choice: AxisChoice):
        """Fetch this PE's share of a timestep.

        Axis switching re-decomposes on the fly: the back end "uses
        this information in order to select from either X-, Y-, or
        Z-axis aligned data slabs" (section 3.3).
        """
        sub = slab_decompose(
            self.meta.shape, self.n_pes, axis=axis_choice.axis
        )[rank]
        return sub, sub.extract(self._take_timestep(frame))

    def _render_and_send(self, rank: int, frame: int, sub, voxels,
                         axis_choice: AxisChoice, sock: socket.socket,
                         logger: NetLogger) -> None:
        grid = None
        if self.send_grid and rank == 0:
            boxes = build_amr_hierarchy(
                self._take_timestep(frame), max_level=1
            )
            grid = grid_line_segments(boxes, self.meta.shape)
        logger.log(Tags.BE_RENDER_START, frame=frame, rank=rank)
        light, heavy = render_payloads(
            self._renderer, sub, voxels, self.meta.shape, frame,
            axis=axis_choice.axis, flip=axis_choice.flip, grid=grid,
        )
        logger.log(Tags.BE_RENDER_END, frame=frame, rank=rank)
        logger.log(Tags.BE_LIGHT_SEND, frame=frame, rank=rank)
        write_message(sock, *encode_message(light))
        logger.log(Tags.BE_LIGHT_END, frame=frame, rank=rank)
        logger.log(Tags.BE_HEAVY_SEND, frame=frame, rank=rank)
        write_message(sock, *encode_message(heavy))
        logger.log(Tags.BE_HEAVY_END, frame=frame, rank=rank)

    # -- serial mode (Figure 18, left column) -----------------------------
    def _run_serial(self, barrier: threading.Barrier, rank: int,
                    sock: socket.socket, logger: NetLogger) -> None:
        for frame in range(self.n_timesteps):
            self._poll_feedback(barrier, rank, sock)
            axis_choice = self._current_axis()
            logger.log(Tags.BE_FRAME_START, frame=frame, rank=rank)
            logger.log(Tags.BE_LOAD_START, frame=frame, rank=rank)
            sub, voxels = self._load_slab(rank, frame, axis_choice)
            logger.log(Tags.BE_LOAD_END, frame=frame, rank=rank)
            self._render_and_send(
                rank, frame, sub, voxels, axis_choice, sock, logger
            )
            logger.log(Tags.BE_FRAME_END, frame=frame, rank=rank)
            barrier.wait()

    # -- overlapped mode (Appendix B) ---------------------------------------
    def _run_overlapped(self, barrier: threading.Barrier, rank: int,
                        sock: socket.socket, logger: NetLogger) -> None:
        pair = SemaphorePair()
        buffer = DoubleBuffer()
        #: frame -> the axis its slab is cut along, set before the
        #: reader is asked for it (the request's happens-before carries it)
        axes: Dict[int, AxisChoice] = {}

        def reader() -> None:
            while True:
                command = pair.wait_command(timeout=60.0)
                if command is None or command == SemaphorePair.EXIT:
                    return
                logger.log(Tags.BE_LOAD_START, frame=command, rank=rank)
                axis_choice = axes.pop(command)
                buffer.write(command, (
                    axis_choice,
                    *self._load_slab(rank, command, axis_choice),
                ))
                logger.log(Tags.BE_LOAD_END, frame=command, rank=rank)
                pair.post_data()

        def request(frame: int) -> None:
            self._poll_feedback(barrier, rank, sock)
            axes[frame] = self._current_axis()
            pair.request(frame)

        reader_thread = threading.Thread(
            target=reader, name=f"reader-{rank}", daemon=True
        )
        reader_thread.start()

        # Prime: request frame 0, wait for it.
        request(0)
        if not pair.wait_data(timeout=60.0):
            raise TimeoutError("reader never produced frame 0")

        for frame in range(self.n_timesteps):
            logger.log(Tags.BE_FRAME_START, frame=frame, rank=rank)
            if frame + 1 < self.n_timesteps:
                request(frame + 1)
            axis_choice, sub, voxels = buffer.read(frame)
            self._render_and_send(
                rank, frame, sub, voxels, axis_choice, sock, logger
            )
            logger.log(Tags.BE_FRAME_END, frame=frame, rank=rank)
            if frame + 1 < self.n_timesteps:
                if not pair.wait_data(timeout=60.0):
                    raise TimeoutError(
                        f"reader stalled before frame {frame + 1}"
                    )
        pair.request_exit()
        reader_thread.join(timeout=10.0)
        barrier.wait()
