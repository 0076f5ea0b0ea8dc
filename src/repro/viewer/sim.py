"""Simulated viewer: per-PE receivers and payload accounting.

The simulated viewer tracks what crosses the wire and when (to
reproduce the paper's traffic-asymmetry and interactivity claims); the
pixel-level scene graph work lives in the live implementation and
:mod:`repro.ibravr`.

The paper's "N I/O service threads decoupled from one render thread"
structure becomes one receive process per payload: it logs, pulls the
payload over the sending PE's :class:`TcpConnection` and, for a
texture, swaps it into the scene in line. A PE never has two payloads
in flight -- the back end waits for each delivery before it starts the
next -- so the receive processes of one rank never overlap; the
connection raises if they ever do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from repro.config import NetworkConfig
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.tcp import TcpConnection
from repro.simcore.events import Event
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netlogger.daemon import NetLogDaemon
    from repro.netsim.topology import Network


#: Visualization metadata per light payload (section 3.4, ~256 bytes).
LIGHT_BYTES = 256.0


class SimViewer:
    """Viewer-side endpoint: one receiver connection per back end PE.

    The back end registers each PE with :meth:`register_pe`, then
    calls :meth:`deliver_light` / :meth:`deliver_heavy` /
    :meth:`deliver_tiles`; each returns the receive process, which
    fires when the viewer holds the payload. One rank's deliveries
    must not overlap. The viewer stamps its own V_* NetLogger events
    (Table 1) and records which ranks completed each frame.
    """

    def __init__(
        self,
        network: "Network",
        host_name: str,
        *,
        daemon: Optional["NetLogDaemon"] = None,
        config: Optional[NetworkConfig] = None,
    ):
        self.config = config if config is not None else NetworkConfig()
        self.network = network
        self.host_name = host_name
        self.tcp_params = self.config.tcp
        self.logger = NetLogger(
            host_name,
            "viewer",
            clock=lambda: network.env.now,
            daemon=daemon,
        )
        self._pe_hosts: Dict[int, str] = {}
        self._conns: Dict[int, TcpConnection] = {}
        self._started_frames: Set[Tuple[int, int]] = set()
        self.frames_completed: Dict[int, Set[int]] = {}
        #: frame -> sim time its last registered PE's texture (or
        #: recorded hole) landed in the scene; the serving layer reads
        #: time-to-first-frame and sustained frame rate off this
        self.frame_complete_times: Dict[int, float] = {}
        #: (rank, frame) pairs whose texture never arrived; the scene
        #: keeps the slab's previous texture (or a hole on frame 0)
        self.missing_slabs: Set[Tuple[int, int]] = set()

    # -- wiring -----------------------------------------------------------
    def register_pe(self, rank: int, host_name: str) -> None:
        """Create the receiver connection for one back end PE."""
        if rank in self._conns:
            raise ValueError(f"rank {rank} already registered")
        self._pe_hosts[rank] = host_name
        conn = TcpConnection(
            self.network, host_name, self.host_name, self.tcp_params
        )
        self._conns[rank] = conn

    # -- delivery API used by the back end ---------------------------------
    def deliver_light(self, rank: int, frame: int) -> Event:
        """Ship visualization metadata (~256 bytes) from PE ``rank``."""
        return self._receive(
            rank, frame, LIGHT_BYTES, "light",
            Tags.V_LIGHTPAYLOAD_START, Tags.V_LIGHTPAYLOAD_END, None,
        )

    def deliver_heavy(self, rank: int, frame: int, nbytes: float) -> Event:
        """Ship a slab texture (plus optional geometry) from PE ``rank``."""
        check_positive("nbytes", nbytes)
        return self._receive(
            rank, frame, nbytes, "heavy", Tags.V_HEAVYPAYLOAD_START,
            Tags.V_HEAVYPAYLOAD_END, Tags.V_FRAME_END,
        )

    def deliver_tiles(
        self, rank: int, frame: int, nbytes: float, *,
        ntiles: int, nfull: int = 0, nref: int = 0,
    ) -> Event:
        """Ship one owner PE's per-frame tile batch.

        ``nfull`` tiles carry pixels, ``nref`` travel as delta
        references (header + content hash only); ``nbytes`` is the
        whole batch on the wire. A batch with ``ntiles=0`` is the
        empty manifest an owner with no visible tiles still sends so
        the frame can complete.
        """
        check_positive("nbytes", nbytes)
        if ntiles < 0 or nfull < 0 or nref < 0 or nfull + nref != ntiles:
            raise ValueError(
                f"tile batch counts must satisfy nfull + nref == ntiles "
                f">= 0, got ntiles={ntiles} nfull={nfull} nref={nref}"
            )
        return self._receive(
            rank, frame, nbytes, "tile",
            Tags.TILE_RECV, Tags.TILE_RECV_END, Tags.TILE_FRAME_END,
            ntiles=ntiles, nfull=nfull, nref=nref,
        )

    def deliver_absent(self, rank: int, frame: int) -> Event:
        """Record that PE ``rank`` has no texture for ``frame``.

        Nothing crosses the wire; the viewer logs the hole
        (``V_SLAB_MISSING``) and the compositor renders the remaining
        slabs. The returned event is already complete.
        """
        if rank not in self._conns:
            raise KeyError(f"PE rank {rank} not registered with viewer")
        self.logger.log(Tags.V_SLAB_MISSING, frame=frame, rank=rank)
        self.missing_slabs.add((rank, frame))
        done = Event(self.network.env)
        done.succeed(None)
        return done

    def _receive(
        self, rank: int, frame: int, nbytes: float, label: str,
        start_tag: str, end_tag: str, scene_tag: Optional[str],
        **detail: Any,
    ) -> Event:
        """Start the receive process for one payload of ``nbytes``.

        ``start_tag`` / ``end_tag`` are stamped when the payload starts
        and ends on the wire, ``scene_tag`` when it lands in the scene
        graph (``None``: metadata never touches the scene graph);
        ``detail`` adds fields to the start event (a tile batch's
        counts).
        """
        if rank not in self._conns:
            raise KeyError(f"PE rank {rank} not registered with viewer")
        return self.network.env.process(self._receive_proc(
            rank, frame, float(nbytes), label, start_tag, end_tag,
            scene_tag, detail,
        ))

    def _receive_proc(
        self, rank: int, frame: int, nbytes: float, label: str,
        start_tag: str, end_tag: str, scene_tag: Optional[str],
        detail: Dict[str, Any],
    ):
        """One I/O service thread pulling one payload, then the render
        thread's ingest: swap the texture into the scene."""
        if (rank, frame) not in self._started_frames:
            self._started_frames.add((rank, frame))
            self.logger.log(Tags.V_FRAME_START, frame=frame, rank=rank)
        self.logger.log(start_tag, frame=frame, rank=rank, **detail)
        stats = yield self._conns[rank].send(nbytes, label=f"{label}[{rank}]")
        self.logger.log(end_tag, frame=frame, rank=rank)
        if scene_tag is not None:
            ranks = self.frames_completed.setdefault(frame, set())
            ranks.add(rank)
            if len(ranks) >= len(self._conns):
                self.frame_complete_times[frame] = self.network.env.now
            self.logger.log(scene_tag, frame=frame, rank=rank)
        return stats

    # -- results ------------------------------------------------------------
    def complete_frames(self, n_pes: int) -> int:
        """Number of frames for which every PE's texture arrived."""
        return sum(
            1 for ranks in self.frames_completed.values()
            if len(ranks) >= n_pes
        )
