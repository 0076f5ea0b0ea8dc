"""The DPSS client library: parallel, per-server block reads.

Mirrors the API the paper names ("dpssOpen(), dpssRead(), dpssWrite(),
dpssLSeek(), dpssClose()"). Each client keeps one persistent TCP
connection per block server -- "the DPSS client library is
multi-threaded, where the number of client threads is equal to the
number of DPSS servers. Therefore the speed of the client scales with
the speed of the server" (section 3.5) -- and a read fans out over all
servers holding blocks of the requested range. The per-server client
threads are expressed as staged-pipeline reader stages merging into
one reassembly stage (:mod:`repro.simcore.pipeline`).

With a :class:`~repro.faults.policy.RequestPolicy` configured
(``NetworkConfig.policy``), each per-server read additionally gets
timeouts, bounded retries with exponential backoff, failover to
replica holders, and optional hedged duplicate reads -- the machinery
that lets a session ride out the injected faults of
:mod:`repro.faults`. Without a policy the historical fail-fast
behaviour is preserved bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import NetworkConfig
from repro.dpss.blocks import BlockMap
from repro.dpss.compression import CompressionModel
from repro.dpss.stripe import StripeMap, XorCodec
from repro.faults.policy import ReadTimeout, RequestPolicy
from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.netsim.tcp import TcpConnection, TcpParams, TransferStats
from repro.simcore.events import Event, Interrupt
from repro.simcore.pipeline import Pipeline
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.health import HealthTracker
    from repro.dpss.master import DpssMaster
    from repro.dpss.server import DpssServer
    from repro.netsim.topology import Network


@dataclass
class ReadStats:
    """Outcome of one dpss_read."""

    nbytes: float
    start: float
    end: float
    per_server_bytes: Dict[str, float] = field(default_factory=dict)
    #: wall seconds each server stage took (request + transfer)
    per_server_seconds: Dict[str, float] = field(default_factory=dict)
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

    @property
    def complete(self) -> bool:
        """True when every requested byte arrived."""
        return self.missing_bytes <= 0.0


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

    #: pluggable striped-read engine: one instance per dpss_read when
    #: ``config.stripe.enabled`` and the dataset carries a StripeMap.
    #: Assigned after :class:`RedundantReadRequestor` is defined below;
    #: swap it to experiment with other redundant-read policies.
    requestor_cls: type

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
        self._server_conns: Dict[Tuple[str, str], TcpConnection] = {}
        #: recovery connections (failover/hedge), leased per read
        self._pools: Dict[str, List[TcpConnection]] = {}
        self._leased: Set[TcpConnection] = set()

    # -- config accessors (legacy attribute names) ----------------------
    @property
    def tcp_params(self) -> TcpParams:
        return self.config.tcp

    @property
    def compression(self) -> Optional[CompressionModel]:
        return self.config.compression

    @property
    def policy(self) -> Optional[RequestPolicy]:
        return self.config.policy

    # -- connection table -----------------------------------------------
    def _connection_to(
        self, server_name: str, *, direction: str = "read"
    ) -> TcpConnection:
        """The persistent connection for one server and direction.

        Reads flow server -> client, writes client -> server; both
        share one table keyed ``(direction, server)`` and one stats
        path, so cwnd state survives across calls either way.
        """
        key = (direction, server_name)
        if key not in self._server_conns:
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
                self.tcp_params,
                extra_usage={server.disks: 1.0},
            )
            conn.reserved_rate = self.config.reserved_rate
            self._server_conns[key] = conn
        return self._server_conns[key]

    def _lease_connection(self, server_name: str) -> TcpConnection:
        """A free read connection to a server, growing the pool as needed.

        Policy-driven reads (retries, failover, hedges) can aim several
        concurrent transfers at one server, so they lease from a pool
        instead of sharing the single per-server stream.
        """
        pool = self._pools.setdefault(server_name, [])
        for conn in pool:
            if conn not in self._leased:
                self._leased.add(conn)
                return conn
        server = self.master.servers[server_name]
        conn = TcpConnection(
            self.network,
            server.host.name,
            self.host_name,
            self.tcp_params,
            extra_usage={server.disks: 1.0},
        )
        conn.reserved_rate = self.config.reserved_rate
        pool.append(conn)
        self._leased.add(conn)
        return conn

    def _release_connection(self, conn: TcpConnection) -> None:
        self._leased.discard(conn)

    def _log(self, tag: str, **data) -> None:
        if self.logger is not None:
            self.logger.log(tag, **data)

    # -- API (dpssOpen / dpssRead / dpssLSeek / dpssClose) --------------
    def open(self, dataset_name: str) -> Event:
        """Contact the master and open a dataset; value is a handle."""
        return self.network.env.process(self._open_proc(dataset_name))

    def _open_proc(self, dataset_name: str):
        env = self.network.env
        route = self.network.route(self.host_name, self.master.host.name)
        # Request/response to the master plus its lookup handling time;
        # a stalled master holds the response until the stall clears.
        yield env.timeout(
            route.rtt
            + self.master.lookup_latency
            + self.master.stall_delay(env.now)
        )
        block_map = self.master.lookup(dataset_name, self.host_name)
        return DpssHandle(block_map=block_map)

    def lseek(self, handle: DpssHandle, offset: float) -> float:
        """Set the handle's position; returns the new position."""
        self._check_open(handle)
        if offset < 0 or offset > handle.size:
            raise ValueError(
                f"offset {offset} outside [0, {handle.size}]"
            )
        handle.position = float(offset)
        return handle.position

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
        self._check_open(handle)
        check_positive("nbytes", nbytes)
        start_at = handle.position if offset is None else float(offset)
        if start_at < 0 or start_at + nbytes > handle.size + 1e-6:
            raise ValueError(
                f"read [{start_at}, {start_at + nbytes}) outside dataset "
                f"of size {handle.size}"
            )
        handle.position = start_at + nbytes
        return self.network.env.process(
            self._read_proc(handle, start_at, nbytes, label)
        )

    def _read_proc(self, handle: DpssHandle, offset: float, nbytes: float,
                   label: str):
        if (
            self.config.stripe.enabled
            and handle.block_map.stripe is not None
        ):
            requestor = self.requestor_cls(
                self, handle.block_map, offset, nbytes, label
            )
            stats = yield from requestor.run()
            return stats
        if self.policy is not None:
            stats = yield from self._read_policy_proc(
                handle, offset, nbytes, label
            )
            return stats
        env = self.network.env
        start = env.now
        block_map = handle.block_map
        dataset = block_map.dataset
        plan = block_map.plan_read(offset, nbytes)

        # Probe each server's cache for the blocks it will serve; hits
        # bypass the disk pool (handled inside the transfer via a
        # reduced disk coefficient).
        stats = ReadStats(nbytes=float(nbytes), start=start, end=start)
        blocks = block_map.blocks_for_range(offset, nbytes)
        per_server_blocks: Dict[str, list] = {}
        for b in blocks:
            per_server_blocks.setdefault(
                block_map.server_of_block(b), []
            ).append(b)

        # Validate the whole plan before any sub-read starts, so a
        # failed read leaves no dangling transfers on shared
        # connections.
        for server_name in plan:
            if not self.master.servers[server_name].online:
                from repro.dpss.master import ServerUnavailable

                raise ServerUnavailable(
                    f"server {server_name!r} holds blocks of "
                    f"{dataset.name!r} but is offline"
                )

        # One reader stage per server (the client library's
        # thread-per-server), all merging into one reassembly stage.
        pipe = Pipeline(env, name=f"dpss-read:{label}")
        chunks = pipe.buffer(
            max(len(plan), 1) + 1, name="chunks", release="on_get"
        )

        def server_work(spec):
            conn, server, wire, disk_fraction = spec
            t0 = env.now
            transfer = yield from self._server_transfer(
                conn, server, wire, disk_fraction, label,
                lead=self._read_lead(server),
            )
            return (server.name, env.now - t0, transfer)

        for server_name, (n_blocks, n_bytes) in plan.items():
            server = self.master.servers[server_name]
            hits, misses = server.cache_lookup(
                dataset.name, per_server_blocks[server_name],
                dataset.block_size,
            )
            stats.cache_hit_blocks += hits
            stats.total_blocks += n_blocks
            conn = self._connection_to(server_name)
            disk_fraction = misses / n_blocks if n_blocks else 0.0
            wire = (
                self.compression.wire_bytes(n_bytes)
                if self.compression is not None
                else n_bytes
            )
            stats.wire_bytes += wire
            pipe.stage(
                f"read:{server_name}",
                server_work,
                source=[(conn, server, wire, disk_fraction)],
                outbound=chunks,
            )
            stats.per_server_bytes[server_name] = n_bytes

        def reassemble(chunk):
            name, seconds, _transfer = chunk
            stats.per_server_seconds[name] = seconds

        pipe.stage("reassemble", reassemble, inbound=chunks)
        if plan:
            yield pipe.run()
        if self.compression is not None:
            # Inflate on the client: CPU time that competes with any
            # co-located rendering -- the compression trade-off.
            cpu = self.compression.decompress_seconds(nbytes)
            stats.decompress_seconds = cpu
            host = self.network.hosts[self.host_name]
            yield host.compute(cpu, label=f"{label}:inflate")
        stats.end = env.now
        return stats

    # -- policy-driven reads --------------------------------------------
    def _read_policy_proc(self, handle: DpssHandle, offset: float,
                          nbytes: float, label: str):
        """Fan-out read where each server share rides the policy."""
        env = self.network.env
        start = env.now
        block_map = handle.block_map
        dataset = block_map.dataset
        # The master re-balances: offline servers' shares are planned
        # onto online replica holders up front.
        plan, per_server_blocks = self.master.plan_read(
            block_map, offset, nbytes
        )
        stats = ReadStats(nbytes=float(nbytes), start=start, end=start)

        pipe = Pipeline(env, name=f"dpss-read:{label}")
        chunks = pipe.buffer(
            max(len(plan), 1) + 1, name="chunks", release="on_get"
        )

        def server_work(spec):
            server_name, n_blocks, n_bytes, blocks = spec
            t0 = env.now
            transfer = yield from self._read_with_policy(
                block_map, server_name, n_blocks, n_bytes, blocks,
                stats, label,
            )
            return (server_name, env.now - t0, transfer)

        for server_name, (n_blocks, n_bytes) in plan.items():
            stats.total_blocks += n_blocks
            stats.per_server_bytes[server_name] = n_bytes
            pipe.stage(
                f"read:{server_name}",
                server_work,
                source=[(
                    server_name, n_blocks, n_bytes,
                    per_server_blocks[server_name],
                )],
                outbound=chunks,
            )

        def reassemble(chunk):
            name, seconds, _transfer = chunk
            stats.per_server_seconds[name] = seconds

        pipe.stage("reassemble", reassemble, inbound=chunks)
        if plan:
            yield pipe.run()
        if self.compression is not None and nbytes > stats.missing_bytes:
            cpu = self.compression.decompress_seconds(
                nbytes - stats.missing_bytes
            )
            stats.decompress_seconds = cpu
            host = self.network.hosts[self.host_name]
            yield host.compute(cpu, label=f"{label}:inflate")
        stats.end = env.now
        return stats

    def _read_with_policy(self, block_map: BlockMap, server_name: str,
                          n_blocks: int, n_bytes: float,
                          blocks: Sequence[int], stats: ReadStats,
                          label: str):
        """One server share under the retry/backoff/failover loop.

        Never raises: exhausting the policy records the loss in
        ``stats`` (``missing_bytes``/``failed_servers``) and returns
        ``None``, so the surrounding pipeline stage always completes
        normally and the sanitizer sees a clean run.
        """
        from repro.dpss.master import ServerUnavailable

        env = self.network.env
        policy = self.policy
        assert policy is not None
        target = server_name
        attempt = 0
        recovered = False
        while True:
            try:
                transfer = yield from self._attempt_with_policy(
                    block_map, target, n_blocks, n_bytes, blocks,
                    stats, label,
                )
                if recovered:
                    self._log(
                        Tags.RETRY_OK, server=target, attempts=attempt + 1,
                        nbytes=n_bytes,
                    )
                return transfer
            except (ReadTimeout, ServerUnavailable) as exc:
                recovered = True
                tag = (
                    Tags.RETRY_TIMEOUT
                    if isinstance(exc, ReadTimeout)
                    else Tags.RETRY_REFUSED
                )
                self._log(tag, server=target, attempt=attempt)
                if attempt >= policy.max_retries:
                    self._log(
                        Tags.RETRY_GIVEUP, server=target,
                        attempts=attempt + 1, nbytes=n_bytes,
                    )
                    stats.failed_servers.append(target)
                    stats.missing_bytes += n_bytes
                    return None
                if not getattr(exc, "hedge_abandoned", False):
                    # An attempt whose deadline tore down an in-flight
                    # hedge already took its recovery action -- the
                    # relaunch replaces the abandoned hedge (counted in
                    # ``hedges_abandoned``), it is not an extra retry.
                    stats.retries += 1
                delay = policy.backoff_delay(attempt, self.rng)
                self._log(
                    Tags.RETRY_BACKOFF, server=target, attempt=attempt,
                    delay=round(delay, 6),
                )
                yield env.timeout(delay)
                # Consult the master for a stand-in replica holder: one
                # control round trip (held further if it is stalled).
                route = self.network.route(
                    self.host_name, self.master.host.name
                )
                yield env.timeout(
                    route.rtt
                    + self.master.lookup_latency
                    + self.master.stall_delay(env.now)
                )
                failover = self.master.failover_server(block_map, target)
                if failover is not None and failover != target:
                    self._log(
                        Tags.RETRY_FAILOVER, server=target, to=failover,
                    )
                    target = failover
                attempt += 1

    def _attempt_with_policy(self, block_map: BlockMap, server_name: str,
                             n_blocks: int, n_bytes: float,
                             blocks: Sequence[int], stats: ReadStats,
                             label: str):
        """One bounded attempt: primary read vs deadline vs hedge.

        Raises :class:`~repro.faults.policy.ReadTimeout` when the
        deadline fires first and
        :class:`~repro.dpss.master.ServerUnavailable` when the target
        refuses (offline). On success returns the winning
        :class:`~repro.netsim.tcp.TransferStats`.
        """
        from repro.dpss.master import ServerUnavailable

        env = self.network.env
        policy = self.policy
        assert policy is not None
        dataset = block_map.dataset
        server = self.master.servers[server_name]
        if not server.online:
            raise ServerUnavailable(f"server {server_name!r} is offline")
        hits, misses = server.cache_lookup(
            dataset.name, list(blocks), dataset.block_size
        )
        disk_fraction = misses / n_blocks if n_blocks else 0.0
        wire = (
            self.compression.wire_bytes(n_bytes)
            if self.compression is not None
            else n_bytes
        )
        reads = [self._launch_read(server, wire, disk_fraction, label)]
        deadline = (
            env.timeout(policy.timeout)
            if policy.timeout is not None
            else None
        )
        hedge_timer = (
            env.timeout(policy.hedge_after)
            if policy.hedge_after is not None
            else None
        )
        hedged = False
        hedge_proc = None
        while True:
            waits = [p for p in reads if not p.processed]
            if deadline is not None and not deadline.processed:
                waits.append(deadline)
            if (
                hedge_timer is not None
                and not hedge_timer.processed
                and not hedged
            ):
                waits.append(hedge_timer)
            if not waits:
                # Every read died without a result and no deadline is
                # armed: surface as a refusal so the retry loop spins.
                raise ServerUnavailable(
                    f"all reads from {server_name!r} were torn down"
                )
            yield env.any_of(waits)
            winner = self._pick_winner(reads)
            if winner is not None:
                for p in reads:
                    if p.is_alive:
                        if p is hedge_proc:
                            stats.hedges_abandoned += 1
                        p.interrupt("lost-race")
                stats.cache_hit_blocks += hits
                stats.wire_bytes += wire
                return winner
            reads = [p for p in reads if not p.processed]
            if hedge_timer is not None and hedge_timer.processed and not hedged:
                hedged = True
                replica = self.master.failover_server(block_map, server_name)
                if replica is not None:
                    stats.hedges += 1
                    self._log(
                        Tags.RETRY_HEDGE, server=server_name, to=replica,
                        nbytes=n_bytes,
                    )
                    rserver = self.master.servers[replica]
                    rhits, rmisses = rserver.cache_lookup(
                        dataset.name, list(blocks), dataset.block_size
                    )
                    rfrac = rmisses / n_blocks if n_blocks else 0.0
                    hedge_proc = self._launch_read(
                        rserver, wire, rfrac, label
                    )
                    reads.append(hedge_proc)
            if deadline is not None and deadline.processed:
                hedge_torn_down = False
                for p in reads:
                    if p.is_alive:
                        if p is hedge_proc:
                            stats.hedges_abandoned += 1
                            hedge_torn_down = True
                        p.interrupt("deadline")
                for p in reads:
                    if not p.processed:
                        yield p
                timeout_exc = ReadTimeout(
                    f"read from {server_name!r} exceeded "
                    f"{policy.timeout}s"
                )
                timeout_exc.hedge_abandoned = hedge_torn_down
                raise timeout_exc

    @staticmethod
    def _pick_winner(reads) -> Optional[TransferStats]:
        for p in reads:
            if p.processed:
                result = p.value
                if result is not None and not result.aborted:
                    return result
        return None

    def _launch_read(self, server: "DpssServer", wire: float,
                     disk_fraction: float, label: str):
        conn = self._lease_connection(server.name)
        return self.network.env.process(
            self._single_read(conn, server, wire, disk_fraction, label)
        )

    def _single_read(self, conn: TcpConnection, server: "DpssServer",
                     wire: float, disk_fraction: float, label: str):
        """One cancellable transfer; returns ``None`` when torn down."""
        try:
            transfer = yield from self._server_transfer(
                conn, server, wire, disk_fraction, label,
                lead=self._read_lead(server),
            )
            return transfer
        except Interrupt:
            conn.abort()  # tear down the in-flight send, if any
            return None
        finally:
            self._release_connection(conn)

    # -- shared transfer path -------------------------------------------
    def _read_lead(self, server: "DpssServer") -> float:
        """Request latency before a server starts streaming a read."""
        route = self.network.route(self.host_name, server.host.name)
        return route.rtt / 2.0 + server.per_request_overhead

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
        *,
        offset: Optional[float] = None,
        label: str = "dpss-write",
    ) -> Event:
        """Write ``nbytes`` at the current (or given) offset (dpssWrite).

        Data flows client -> servers along the same striping; written
        blocks land in each server's RAM cache (they are the freshest
        copies). The handle's position advances past the write.
        """
        self._check_open(handle)
        check_positive("nbytes", nbytes)
        start_at = handle.position if offset is None else float(offset)
        if start_at < 0 or start_at + nbytes > handle.size + 1e-6:
            raise ValueError(
                f"write [{start_at}, {start_at + nbytes}) outside dataset "
                f"of size {handle.size}"
            )
        handle.position = start_at + nbytes
        return self.network.env.process(
            self._write_proc(handle, start_at, nbytes, label)
        )

    def _write_proc(self, handle: DpssHandle, offset: float, nbytes: float,
                    label: str):
        if (
            self.config.stripe.enabled
            and handle.block_map.stripe is not None
        ):
            stats = yield from self._striped_write_proc(
                handle, offset, nbytes, label
            )
            return stats
        env = self.network.env
        start = env.now
        block_map = handle.block_map
        dataset = block_map.dataset
        plan = block_map.plan_read(offset, nbytes)
        blocks = block_map.blocks_for_range(offset, nbytes)
        per_server_blocks: Dict[str, list] = {}
        for b in blocks:
            per_server_blocks.setdefault(
                block_map.server_of_block(b), []
            ).append(b)

        stats = ReadStats(nbytes=float(nbytes), start=start, end=start)

        def server_write(server_name: str, n_bytes: float):
            server = self.master.servers[server_name]
            conn = self._connection_to(server_name, direction="write")
            t0 = env.now
            transfer = yield from self._server_transfer(
                conn, server, n_bytes, 1.0, label,
                lead=server.per_request_overhead,
            )
            stats.per_server_seconds[server_name] = env.now - t0
            return transfer

        events = []
        for server_name, (n_blocks, n_bytes) in plan.items():
            server = self.master.servers[server_name]
            # Freshly written blocks become cache-resident.
            server.cache_lookup(
                dataset.name, per_server_blocks[server_name],
                dataset.block_size,
            )
            stats.total_blocks += n_blocks
            events.append(env.process(server_write(server_name, n_bytes)))
            stats.per_server_bytes[server_name] = n_bytes
            stats.wire_bytes += n_bytes
        if events:
            yield env.all_of(events)
        stats.end = env.now
        return stats

    def _striped_write_proc(self, handle: DpssHandle, offset: float,
                            nbytes: float, label: str):
        """Striped write: full data blocks plus rotating parity.

        Parity is regenerated for every touched stripe (the simulation
        moves byte counts, so a partial-stripe write is charged the
        same parity pass a read-modify-write would cost) and written to
        the stripe's rotating parity holder. Freshly written data and
        parity blocks land in the owners' caches -- parity blocks are
        first-class blocks and cache like any other.
        """
        env = self.network.env
        start = env.now
        block_map = handle.block_map
        smap = block_map.stripe
        assert smap is not None
        dataset = block_map.dataset
        blocks = block_map.blocks_for_range(offset, nbytes)
        stripes = smap.stripes_for_blocks(blocks)
        stats = ReadStats(nbytes=float(nbytes), start=start, end=start)
        stats.total_blocks = len(blocks)

        per_server: Dict[str, List[int]] = {}
        xor_input = 0.0
        for b in blocks:
            per_server.setdefault(smap.server_of_block(b), []).append(b)
        for s in stripes:
            per_server.setdefault(smap.parity_server(s), []).append(
                smap.parity_block_id(s)
            )
            xor_input += sum(
                smap.block_bytes(b) for b in smap.data_blocks(s)
            )

        # The parity pass runs on the writing client before any send.
        cpu = self.codec.xor_seconds(xor_input)
        if cpu > 0:
            host = self.network.hosts[self.host_name]
            yield host.compute(cpu, label=f"{label}:parity")

        def size_of(block_id: int) -> float:
            if block_id >= dataset.n_blocks:
                return smap.parity_bytes(smap.stripe_of_parity_id(block_id))
            return smap.block_bytes(block_id)

        def server_write(server_name: str, n_bytes: float):
            server = self.master.servers[server_name]
            conn = self._connection_to(server_name, direction="write")
            t0 = env.now
            transfer = yield from self._server_transfer(
                conn, server, n_bytes, 1.0, label,
                lead=server.per_request_overhead,
            )
            stats.per_server_seconds[server_name] = env.now - t0
            return transfer

        events = []
        for server_name, ids in sorted(per_server.items()):
            server = self.master.servers[server_name]
            # Freshly written blocks (parity included) cache-reside.
            server.cache_lookup(dataset.name, ids, dataset.block_size)
            n_bytes = sum(size_of(bid) for bid in ids)
            events.append(env.process(server_write(server_name, n_bytes)))
            stats.per_server_bytes[server_name] = n_bytes
            stats.wire_bytes += n_bytes
        stats.parity_wire_bytes = max(
            stats.wire_bytes - float(nbytes), 0.0
        )
        self._log(
            Tags.STRIPE_WRITE, stripes=len(stripes),
            servers=len(per_server), nbytes=round(stats.wire_bytes),
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


class RedundantReadRequestor:
    """k-of-n striped read engine: reconstruct instead of retry.

    One instance drives one ``dpss_read`` against a parity-striped
    dataset. Every server gets at most one *share* per wave (a
    full-block transfer); the read completes as soon as the arrived
    shares cover every requested block either directly or by XOR
    reconstruction, and in-flight shares that can no longer contribute
    are cancelled -- the slowest server never holds up the read, which
    is the whole point of striping with parity.

    Two launch policies (``StripeConfig.read_policy``):

    - ``"eager"``: every live server's share carries its data blocks
      *plus* its parity/filler blocks, so any ``n_data`` of the
      ``width`` shares complete the read -- maximum tail-latency
      protection at ``~1/n_data`` extra wire bytes.
    - ``"hedged"``: data shares launch alone; the parity/filler
      *repair* shares launch only once a share is still unfinished
      ``straggler_after`` seconds in (or immediately, for servers that
      are offline or health-avoided) -- near-zero overhead while the
      world is healthy.

    Striped transfers move whole blocks (the DPSS is a block store and
    XOR needs full siblings): boundary blocks are fetched in full and
    trimmed locally, and out-of-range siblings needed only for
    reconstruction ("fillers") are fetched but never delivered; both
    count toward ``ReadStats.parity_wire_bytes``. Wire compression is
    intentionally not applied in striped mode -- parity bytes are
    incompressible and the block store ships raw blocks.

    The health tracker spends the *single-erasure budget*: at most one
    live server is read around, and only while no server is outright
    offline. A straggler that emerges later spends the budget instead,
    so repair waves ignore the avoidance decision. Blocks whose stripe
    has lost two holders are delivered absent immediately
    (``STRIPE_GIVEUP`` with reason ``no-path``); a mid-read double
    fault is caught by the ``StripeConfig.timeout`` deadline, since
    stalled fluid transfers never die on their own.
    """

    def __init__(self, client: DpssClient, block_map: BlockMap,
                 offset: float, nbytes: float, label: str):
        smap = block_map.stripe
        assert smap is not None
        self.client = client
        self.block_map = block_map
        self.smap: StripeMap = smap
        self.cfg = client.config.stripe
        self.offset = float(offset)
        self.nbytes = float(nbytes)
        self.label = label
        self.env = client.network.env
        self.dataset = block_map.dataset

        bs = self.dataset.block_size
        #: requested data blocks, in id order
        self.wanted: List[int] = list(
            block_map.blocks_for_range(offset, nbytes)
        )
        #: block id -> bytes of it delivered to the caller (trimmed)
        self.span: Dict[int, float] = {}
        for b in self.wanted:
            lo = max(b * bs, self.offset)
            hi = min((b + 1) * bs, self.offset + self.nbytes)
            self.span[b] = hi - lo

        wanted_set = set(self.wanted)
        self.stripes: List[int] = smap.stripes_for_blocks(self.wanted)
        #: block id (data and parity) -> owning server
        self.owner: Dict[int, str] = {}
        #: stripe -> parity block id
        self.parity_id: Dict[int, int] = {}
        #: stripe -> its data block ids
        self.siblings: Dict[int, List[int]] = {}
        #: block id -> full transfer size on the wire
        self.size_of: Dict[int, float] = {}
        #: block id (data, filler or parity) -> stripe
        self.stripe_of: Dict[int, int] = {}
        #: server -> requested data blocks it owns
        self.data_share: Dict[str, List[int]] = {}
        #: server -> parity + filler blocks it owns (the repair share)
        self.repair_share: Dict[str, List[int]] = {}
        for s in self.stripes:
            pid = smap.parity_block_id(s)
            pserver = smap.parity_server(s)
            self.parity_id[s] = pid
            self.stripe_of[pid] = s
            self.owner[pid] = pserver
            self.size_of[pid] = smap.parity_bytes(s)
            self.repair_share.setdefault(pserver, []).append(pid)
            sibs = list(smap.data_blocks(s))
            self.siblings[s] = sibs
            for b in sibs:
                server = smap.server_of_block(b)
                self.owner[b] = server
                self.size_of[b] = smap.block_bytes(b)
                self.stripe_of[b] = s
                if b in wanted_set:
                    self.data_share.setdefault(server, []).append(b)
                else:
                    self.repair_share.setdefault(server, []).append(b)

        now = self.env.now
        self.stats = ReadStats(nbytes=self.nbytes, start=now, end=now)
        self.stats.total_blocks = len(self.wanted)
        #: requested blocks not yet delivered, reconstructed or given up
        self.unresolved: Set[int] = set(self.wanted)
        #: block ids (data, filler and parity) fully arrived so far
        self.arrived: Set[int] = set()
        #: in-flight proc -> (server, block ids, wire bytes, kind, t0)
        self.pending: Dict = {}
        self.repairs_launched = False
        self.xor_cpu = 0.0

    # -- helpers --------------------------------------------------------
    def _log(self, tag: str, **data) -> None:
        self.client._log(tag, **data)

    def _useful(self, block_id: int) -> bool:
        """Could this in-flight block still advance the read?"""
        if block_id in self.span:
            return block_id in self.unresolved
        stripe = self.stripe_of[block_id]
        return any(
            b in self.unresolved
            for b in self.siblings[stripe]
            if b in self.span
        )

    def _launch(self, server_name: str, block_ids: List[int],
                kind: str) -> None:
        """Fire one share at a server as a cancellable transfer."""
        client = self.client
        server = client.master.servers[server_name]
        data_ids = [b for b in block_ids if b in self.span]
        redundancy_ids = [b for b in block_ids if b not in self.span]
        misses = 0
        if data_ids:
            hits, miss = server.cache_lookup(
                self.dataset.name, data_ids, self.dataset.block_size
            )
            self.stats.cache_hit_blocks += hits
            misses += miss
        if redundancy_ids:
            # Cached parity/fillers skip the disk but are not data
            # cache hits from the caller's point of view.
            _hits, miss = server.cache_lookup(
                self.dataset.name, redundancy_ids, self.dataset.block_size
            )
            misses += miss
        share_bytes = sum(self.size_of[b] for b in block_ids)
        disk_fraction = misses / len(block_ids) if block_ids else 0.0
        proc = client._launch_read(
            server, share_bytes, disk_fraction, self.label
        )
        self.pending[proc] = (
            server_name, list(block_ids), share_bytes, kind, self.env.now
        )
        self._log(
            Tags.STRIPE_READ, server=server_name, kind=kind,
            blocks=len(block_ids), nbytes=round(share_bytes),
        )

    def _launch_repairs(self, *, offline: Set[str]) -> None:
        """Fire the parity/filler shares for still-unresolved stripes.

        Repairs skip only *offline* servers: a health-avoided server is
        still read for repair bytes, because by the time a repair wave
        fires some other server is the straggler and the one-erasure
        budget is spent on it.
        """
        self.repairs_launched = True
        shares = 0
        total = 0.0
        for server in self.smap.server_names:
            if server in offline:
                continue
            ids = [
                b for b in self.repair_share.get(server, [])
                if self._useful(b) and b not in self.arrived
            ]
            if ids:
                self._launch(server, ids, "repair")
                shares += 1
                total += sum(self.size_of[b] for b in ids)
        if shares:
            self._log(
                Tags.STRIPE_REPAIR, shares=shares, nbytes=round(total)
            )

    def _give_up(self, blocks: Set[int], reason: str) -> None:
        """Deliver-absent: record the loss and stop chasing it."""
        total = 0.0
        for b in sorted(blocks):
            self.unresolved.discard(b)
            total += self.span[b]
            owner = self.owner[b]
            if owner not in self.stats.failed_servers:
                self.stats.failed_servers.append(owner)
        self.stats.missing_bytes += total
        self._log(
            Tags.STRIPE_GIVEUP, reason=reason, blocks=len(blocks),
            nbytes=round(total),
        )

    def _plan_launch(self) -> Tuple[Set[str], Set[str]]:
        """Offline/health triage: (servers to skip, offline subset)."""
        client = self.client
        offline = {
            name for name in self.smap.server_names
            if not client.master.servers[name].online
        }
        dead = set(offline)
        # Health avoidance spends the single-erasure budget, so it is
        # skipped entirely while any server is outright offline.
        if not offline and client.health is not None:
            worst = client.health.worst(list(self.smap.server_names))
            if worst is not None and client.health.should_avoid(
                worst, threshold=self.cfg.avoid_threshold
            ):
                dead.add(worst)
                self._log(
                    Tags.HEALTH_AVOID, server=worst,
                    score=round(client.health.score(worst), 6),
                )
        return dead, offline

    def _hopeless_blocks(self, offline: Set[str]) -> Set[int]:
        """Blocks whose stripe already lost two holders."""
        hopeless = set()
        for b in sorted(self.unresolved):
            if self.owner[b] not in offline:
                continue
            stripe = self.stripe_of[b]
            holders = [self.owner[self.parity_id[stripe]]]
            holders += [
                self.owner[sib]
                for sib in self.siblings[stripe]
                if sib != b
            ]
            if any(h in offline for h in holders):
                hopeless.add(b)
        return hopeless

    # -- arrival processing ---------------------------------------------
    def _absorb(self) -> None:
        """Fold completed shares into the arrived set and the stats."""
        stats = self.stats
        for proc in [p for p in list(self.pending) if p.processed]:
            server, block_ids, share_bytes, _kind, t0 = self.pending.pop(
                proc
            )
            result = proc.value
            if result is None or getattr(result, "aborted", False):
                continue  # torn down underneath us; nothing arrived
            duration = self.env.now - t0
            delivered = 0.0
            for b in block_ids:
                self.arrived.add(b)
                if b in self.span:
                    delivered += self.span[b]
            stats.wire_bytes += share_bytes
            stats.parity_wire_bytes += share_bytes - delivered
            stats.per_server_bytes[server] = (
                stats.per_server_bytes.get(server, 0.0) + delivered
            )
            stats.per_server_seconds[server] = max(
                stats.per_server_seconds.get(server, 0.0), duration
            )
            if self.client.health is not None:
                self.client.health.observe_latency(
                    server, duration, share_bytes
                )

    def _resolve(self) -> None:
        """Mark direct arrivals, then reconstruct what parity allows."""
        stats = self.stats
        for b in sorted(self.unresolved):
            if b in self.arrived:
                self.unresolved.discard(b)
        for b in sorted(self.unresolved):
            stripe = self.stripe_of[b]
            if self.parity_id[stripe] not in self.arrived:
                continue
            if all(
                sib in self.arrived
                for sib in self.siblings[stripe]
                if sib != b
            ):
                self.unresolved.discard(b)
                stats.reconstructions += 1
                stats.reconstructed_bytes += self.span[b]
                self.xor_cpu += self.client.codec.xor_seconds(
                    len(self.siblings[stripe])
                    * self.smap.parity_bytes(stripe)
                )
                self._log(
                    Tags.STRIPE_RECONSTRUCT, block=b, stripe=stripe,
                    nbytes=round(self.span[b]),
                )

    def _cancel_useless(self) -> None:
        """Tear down shares that can no longer contribute a block."""
        for proc in [p for p in list(self.pending) if not p.processed]:
            server, block_ids, _share_bytes, kind, _t0 = self.pending[
                proc
            ]
            if any(self._useful(b) for b in block_ids):
                continue
            del self.pending[proc]
            if proc.is_alive:
                proc.interrupt("stripe-cancel")
            self.stats.shares_cancelled += 1
            self._log(
                Tags.STRIPE_CANCEL, server=server, kind=kind,
                blocks=len(block_ids),
            )

    def _offline_now(self) -> Set[str]:
        """Servers currently offline (re-polled mid-read)."""
        master = self.client.master
        return {
            name for name in self.smap.server_names
            if not master.servers[name].online
        }

    def _triage_offline(self, offline: Set[str]) -> None:
        """Treat shares stalled on a crashed server as erasures.

        A fluid transfer whose server crashes mid-read stalls rather
        than dying, so waiting on it means waiting for the recovery or
        the deadline, whichever comes first. Cancel it, repair around
        it, and give up immediately on blocks whose stripe lost a
        second holder -- deliver-absent beats a multi-second stall.
        """
        for proc in [p for p in list(self.pending) if not p.processed]:
            server, block_ids, _share_bytes, kind, _t0 = self.pending[
                proc
            ]
            if server not in offline:
                continue
            del self.pending[proc]
            if proc.is_alive:
                proc.interrupt("stripe-offline")
            self.stats.shares_cancelled += 1
            self._log(
                Tags.STRIPE_CANCEL, server=server, kind=kind,
                blocks=len(block_ids),
            )
        hopeless = self._hopeless_blocks(offline)
        if hopeless:
            self._give_up(hopeless, "no-path")
        if self.unresolved and not self.repairs_launched:
            self._launch_repairs(offline=offline)

    # -- the read -------------------------------------------------------
    def run(self):
        env = self.env
        cfg = self.cfg
        stats = self.stats

        dead, offline = self._plan_launch()
        hopeless = self._hopeless_blocks(offline)
        if hopeless:
            self._give_up(hopeless, "no-path")

        straggler = None
        if cfg.read_policy == "eager":
            for server in self.smap.server_names:
                if server in dead:
                    continue
                ids = [
                    b
                    for b in (
                        self.data_share.get(server, [])
                        + self.repair_share.get(server, [])
                    )
                    if self._useful(b)
                ]
                if ids:
                    self._launch(server, ids, "eager")
            self.repairs_launched = True
        else:
            for server in self.smap.server_names:
                if server in dead:
                    continue
                ids = [
                    b for b in self.data_share.get(server, [])
                    if b in self.unresolved
                ]
                if ids:
                    self._launch(server, ids, "data")
            if any(
                self.owner[b] in dead for b in sorted(self.unresolved)
            ):
                # Some owner will never answer: repair immediately,
                # no straggler timer to wait out.
                self._launch_repairs(offline=offline)
            elif self.unresolved:
                straggler = env.timeout(cfg.straggler_after)

        deadline = env.timeout(cfg.timeout)
        recheck = None

        while self.unresolved:
            waits = [p for p in self.pending if not p.processed]
            if not waits and not self.repairs_launched:
                self._launch_repairs(offline=offline)
                waits = [p for p in self.pending if not p.processed]
            if not waits:
                self._give_up(set(self.unresolved), "no-path")
                break
            if (
                straggler is not None
                and not straggler.processed
                and not self.repairs_launched
            ):
                waits.append(straggler)
            if not deadline.processed:
                waits.append(deadline)
            # Liveness recheck: wake periodically so a server crashing
            # mid-transfer (the share stalls, it never errors) is
            # noticed long before the deadline.
            if recheck is None or recheck.processed:
                recheck = env.timeout(cfg.straggler_after)
            waits.append(recheck)
            yield env.any_of(waits)
            self._absorb()
            self._resolve()
            if self.unresolved:
                offline = self._offline_now()
                if offline:
                    self._triage_offline(offline)
            if (
                self.unresolved
                and straggler is not None
                and straggler.processed
                and not self.repairs_launched
            ):
                self._launch_repairs(offline=offline)
            if deadline.processed and self.unresolved:
                self._give_up(set(self.unresolved), "deadline")
                break
            self._cancel_useless()

        # Everything still in flight lost the race.
        self._cancel_useless()

        if self.xor_cpu > 0:
            host = self.client.network.hosts[self.client.host_name]
            yield host.compute(self.xor_cpu, label=f"{self.label}:xor")
        stats.end = env.now
        return stats


DpssClient.requestor_cls = RedundantReadRequestor
