"""The DPSS client library: how bytes move between client and servers.

Mirrors the API the paper names ("dpssOpen(), dpssRead(), dpssWrite(),
dpssLSeek(), dpssClose()"). "The DPSS client library is
multi-threaded, where the number of client threads is equal to the
number of DPSS servers. Therefore the speed of the client scales with
the speed of the server" (section 3.5).

This module owns *transport*: handles, the connection pool (one
persistent TCP stream per direction and server), the request/transfer
exchange and its cancellable process form, the write path and
:class:`ReadStats`. A read is one :class:`~repro.dpss.read.DpssRead`
loop; its requestor, picked from ``self.config``, decides what to fetch
and what to do when a server stops answering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.config import NetworkConfig
from repro.dpss.blocks import BlockMap
from repro.dpss.read import DpssRead
from repro.dpss.stripe import XorCodec
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.tcp import TcpConnection
from repro.simcore.events import Event, Interrupt
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.health import HealthTracker
    from repro.dpss.master import DpssMaster
    from repro.dpss.server import DpssServer
    from repro.netsim.topology import Network
    from repro.simcore.process import Process


@dataclass
class ReadStats:
    """Outcome of one dpss_read."""

    nbytes: float
    start: float
    end: float
    #: delivered bytes, by the server that delivered them
    per_server_bytes: Dict[str, float] = field(default_factory=dict)
    #: seconds from launch to arrival (request + transfer) of the
    #: slowest share each server delivered
    per_server_seconds: Dict[str, float] = field(default_factory=dict)
    #: requested blocks that arrived from a server's RAM cache
    cache_hit_blocks: int = 0
    total_blocks: int = 0
    #: bytes that actually crossed the network (< nbytes when wire
    #: compression is enabled)
    wire_bytes: float = 0.0
    #: client CPU time spent inflating compressed blocks
    decompress_seconds: float = 0.0
    #: attempts beyond the first, across all per-server reads
    retries: int = 0
    #: hedged duplicate reads issued to replica servers
    hedges: int = 0
    #: hedged reads cancelled without delivering (the primary won, or
    #: the attempt's deadline tore the hedge down) -- tracked apart
    #: from ``retries`` so abandoned hedges never inflate it
    hedges_abandoned: int = 0
    #: servers whose share was abandoned after exhausting the policy
    failed_servers: List[str] = field(default_factory=list)
    #: bytes the read gave up on (0 for a complete read)
    missing_bytes: float = 0.0
    #: striped mode: blocks rebuilt by XOR instead of read directly
    reconstructions: int = 0
    #: striped mode: delivered bytes that came out of reconstructions
    reconstructed_bytes: float = 0.0
    #: striped mode: redundancy bytes (parity blocks, out-of-range
    #: sibling blocks and full-block rounding of boundary blocks) that
    #: crossed the wire on top of the delivered data itself
    parity_wire_bytes: float = 0.0
    #: striped mode: in-flight shares cancelled once their blocks were
    #: resolved another way (the k-of-n straggler cancellations)
    shares_cancelled: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Aggregate goodput in bytes/second."""
        return self.nbytes / self.duration if self.duration > 0 else float("inf")


@dataclass
class DpssHandle:
    """An open dataset: its block map plus a seek position."""

    block_map: BlockMap
    position: float = 0.0
    closed: bool = False

    @property
    def size(self) -> float:
        return self.block_map.dataset.size


class DpssClient:
    """A client endpoint bound to one host and one master.

    ``config`` gathers the wire-level knobs
    (:class:`~repro.config.NetworkConfig`); ``logger`` receives
    ``RETRY_*`` events when a policy is active; ``rng`` drives backoff
    jitter (no generator = no jitter, still deterministic).
    """

    def __init__(
        self,
        network: "Network",
        host_name: str,
        master: "DpssMaster",
        *,
        config: Optional[NetworkConfig] = None,
        logger: Optional[NetLogger] = None,
        rng: Optional[np.random.Generator] = None,
        health: Optional["HealthTracker"] = None,
    ):
        self.network = network
        self.host_name = host_name
        self.master = master
        self.config = config if config is not None else NetworkConfig()
        self.logger = logger
        self.rng = rng
        #: shared per-server health state biasing striped reads; None
        #: means no biasing (every server is assumed healthy)
        self.health = health
        #: parity codec for striped reads/writes (swap for a different
        #: cost model)
        self.codec = XorCodec()
        #: ``(direction, server)`` -> connections, oldest first; every
        #: transfer leases one for its duration
        self._pool: Dict[Tuple[str, str], List[TcpConnection]] = {}
        self._leased: Set[TcpConnection] = set()

    # -- connection pool ------------------------------------------------
    def _lease(self, server_name: str,
               direction: str = "read") -> TcpConnection:
        """A free connection to a server, growing the pool as needed.

        Reads flow server -> client, writes client -> server. The first
        free connection wins, so cwnd state survives across calls; the
        pool grows only when retries, failover or hedges aim several
        transfers at one server at once.
        """
        pool = self._pool.setdefault((direction, server_name), [])
        for conn in pool:
            if conn not in self._leased:
                self._leased.add(conn)
                return conn
        server = self.master.servers[server_name]
        src, dst = (
            (server.host.name, self.host_name)
            if direction == "read"
            else (self.host_name, server.host.name)
        )
        conn = TcpConnection(
            self.network,
            src,
            dst,
            self.config.tcp,
            extra_usage={server.disks: 1.0},
        )
        pool.append(conn)
        self._leased.add(conn)
        return conn

    def _release(self, conn: TcpConnection) -> None:
        self._leased.discard(conn)

    def _log(self, tag: str, **data) -> None:
        if self.logger is not None:
            self.logger.log(tag, **data)

    def _new_stats(self, nbytes: float) -> ReadStats:
        """An empty record for a call of ``nbytes`` starting now."""
        now = self.network.env.now
        return ReadStats(nbytes=float(nbytes), start=now, end=now)

    # -- API (dpssOpen / dpssRead / dpssLSeek / dpssClose) --------------
    def open(self, dataset_name: str) -> Event:
        """Contact the master and open a dataset; value is a handle."""
        return self.network.env.process(self._open_proc(dataset_name))

    def _master_round_trip(self) -> float:
        """Request/response to the master plus its lookup handling time;
        a stalled master holds the response until the stall clears."""
        route = self.network.route(self.host_name, self.master.host.name)
        return (
            route.rtt
            + self.master.lookup_latency
            + self.master.stall_delay(self.network.env.now)
        )

    def _open_proc(self, dataset_name: str):
        yield self.network.env.timeout(self._master_round_trip())
        block_map = self.master.lookup(dataset_name)
        return DpssHandle(block_map=block_map)

    def _claim_range(self, handle: DpssHandle, nbytes: float,
                     offset: Optional[float], verb: str) -> float:
        """Validate a read/write range and advance the handle past it."""
        self._check_open(handle)
        check_positive("nbytes", nbytes)
        start_at = handle.position if offset is None else float(offset)
        if start_at < 0 or start_at + nbytes > handle.size + 1e-6:
            raise ValueError(
                f"{verb} [{start_at}, {start_at + nbytes}) outside dataset "
                f"of size {handle.size}"
            )
        handle.position = start_at + nbytes
        return start_at

    def _striped(self, handle: DpssHandle) -> bool:
        return (
            self.config.stripe.enabled
            and handle.block_map.stripe is not None
        )

    def read(
        self,
        handle: DpssHandle,
        nbytes: float,
        *,
        offset: Optional[float] = None,
        label: str = "dpss",
    ) -> Event:
        """Read ``nbytes`` at the current (or given) offset.

        Block-level access is the point of the DPSS: "provides block
        level access, eliminating the need to transfer the entire file
        across the network." The returned event's value is a
        :class:`ReadStats`. The handle's position advances past the
        read.
        """
        start_at = self._claim_range(handle, nbytes, offset, "read")
        read = DpssRead(
            self, handle.block_map, start_at, nbytes, label,
            parity=self._striped(handle),
        )
        return self.network.env.process(read.run())

    # -- shared transfer path -------------------------------------------
    def _launch_read(self, server: "DpssServer", wire: float,
                     disk_fraction: float, label: str) -> "Process":
        """Lease a connection and start one cancellable read on it.

        The process's value is the transfer's stats, or ``None`` once it
        is interrupted; the lease is released either way.
        """
        conn = self._lease(server.name)
        route = self.network.route(self.host_name, server.host.name)
        # The request's one-way trip and the server's handling overhead.
        lead = route.rtt / 2.0 + server.per_request_overhead

        def transfer():
            try:
                return (yield from self._server_transfer(
                    conn, server, wire, disk_fraction, label, lead=lead
                ))
            except Interrupt:
                conn.abort()  # tear down the in-flight send, if any
                return None
            finally:
                self._release(conn)

        return self.network.env.process(transfer())

    def _server_transfer(self, conn: TcpConnection, server: "DpssServer",
                         n_bytes: float, disk_fraction: float, label: str,
                         *, lead: float):
        """One request/transfer exchange with a block server.

        ``lead`` is the pre-transfer latency (request propagation plus
        the server's handling overhead); cache hits scale the flow's
        disk-pool usage down via ``disk_fraction``.
        """
        env = self.network.env
        yield env.timeout(lead)
        original = conn._usage.get(server.disks, 1.0)
        conn._usage[server.disks] = disk_fraction
        try:
            stats = yield conn.send(n_bytes, label=f"{label}:{server.name}")
        finally:
            conn._usage[server.disks] = original
        return stats

    def write(
        self,
        handle: DpssHandle,
        nbytes: float,
    ) -> Event:
        """Write ``nbytes`` at the current offset (dpssWrite).

        Data flows client -> servers along the same striping; written
        blocks land in each server's RAM cache (they are the freshest
        copies). The handle's position advances past the write.
        """
        start_at = self._claim_range(handle, nbytes, None, "write")
        return self.network.env.process(
            self._write_proc(handle, start_at, nbytes)
        )

    def _write_proc(self, handle: DpssHandle, offset: float, nbytes: float):
        """Send each server its blocks of the range, all at once.

        A striped write sends full data blocks plus the rotating parity
        block of every touched stripe (the simulation moves byte
        counts, so a partial-stripe write is charged the same parity
        pass a read-modify-write would cost). Freshly written blocks
        land in the owners' caches -- parity blocks are first-class
        blocks and cache like any other.
        """
        env = self.network.env
        block_map = handle.block_map
        dataset = block_map.dataset
        stats = self._new_stats(nbytes)
        plan, blocks_of = block_map.shares(offset, nbytes)
        stats.total_blocks = sum(n for n, _ in plan.values())
        sizes = {name: n_bytes for name, (_, n_bytes) in plan.items()}
        smap = block_map.stripe if self._striped(handle) else None
        if smap is not None:
            stripes = smap.stripes_for_blocks(
                block_map.blocks_for_range(offset, nbytes)
            )
            sizes = {
                name: sum(smap.block_bytes(b) for b in ids)
                for name, ids in blocks_of.items()
            }
            # Parity ids join a copy: the planner's lists are not ours.
            blocks_of = {name: list(ids) for name, ids in blocks_of.items()}
            xor_input = 0.0
            for s in stripes:
                holder = smap.parity_server(s)
                blocks_of.setdefault(holder, []).append(
                    smap.parity_block_id(s)
                )
                sizes[holder] = sizes.get(holder, 0.0) + smap.parity_bytes(s)
                xor_input += sum(
                    smap.block_bytes(b) for b in smap.data_blocks(s)
                )
            # The parity pass runs on the writing client before any send.
            cpu = self.codec.xor_seconds(xor_input)
            if cpu > 0:
                host = self.network.hosts[self.host_name]
                yield host.compute(cpu, label="dpss-write:parity")
            blocks_of = dict(sorted(blocks_of.items()))

        def server_write(server_name: str, n_bytes: float):
            server = self.master.servers[server_name]
            conn = self._lease(server_name, "write")
            t0 = env.now
            try:
                yield from self._server_transfer(
                    conn, server, n_bytes, 1.0, "dpss-write",
                    lead=server.per_request_overhead,
                )
            finally:
                self._release(conn)
            stats.per_server_seconds[server_name] = env.now - t0

        events = []
        for server_name, ids in blocks_of.items():
            n_bytes = sizes[server_name]
            # Freshly written blocks become cache-resident.
            self.master.servers[server_name].cache_lookup(
                dataset.name, ids, dataset.block_size
            )
            events.append(env.process(server_write(server_name, n_bytes)))
            stats.per_server_bytes[server_name] = n_bytes
            stats.wire_bytes += n_bytes
        if smap is not None:
            stats.parity_wire_bytes = max(
                stats.wire_bytes - float(nbytes), 0.0
            )
            self._log(
                Tags.STRIPE_WRITE, stripes=len(stripes),
                servers=len(blocks_of), nbytes=round(stats.wire_bytes),
            )
        if events:
            yield env.all_of(events)
        stats.end = env.now
        return stats

    def close(self, handle: DpssHandle) -> None:
        """Close a handle; further operations on it raise."""
        handle.closed = True

    def _check_open(self, handle: DpssHandle) -> None:
        if handle.closed:
            raise ValueError("operation on closed DPSS handle")
