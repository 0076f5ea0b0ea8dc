"""The fan-out read strategy: one share per server, in parallel.

The per-server client threads (section 3.5) are reader stages of one
staged pipeline (:mod:`repro.simcore.pipeline`) merging into a
reassembly stage -- written once, in :meth:`FanOutRead.run`. What
differs is the plan and how one share is fetched:

- **fail-fast** (no ``NetworkConfig.policy``): the static primary plan
  is validated up front -- an offline holder raises
  :class:`~repro.dpss.master.ServerUnavailable`, replica or not -- and
  each share is one transfer;
- **policy** (a :class:`~repro.faults.policy.RequestPolicy`): the
  master's live plan, and each share rides timeouts, bounded retries
  with exponential backoff, failover to replica holders and optional
  hedged duplicate reads -- the machinery that lets a session ride out
  the injected faults of :mod:`repro.faults`. It never raises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dpss.blocks import BlockMap
from repro.dpss.master import ServerUnavailable
from repro.faults.policy import ReadTimeout
from repro.netlogger.events import Tags
from repro.simcore.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.client import DpssClient
    from repro.simcore.process import Process


class FanOutRead:
    """One ``dpss_read`` as a per-server fan-out."""

    def __init__(self, client: "DpssClient", block_map: BlockMap,
                 offset: float, nbytes: float, label: str):
        self.client = client
        self.block_map = block_map
        self.offset = offset
        self.nbytes = nbytes
        self.label = label
        self.stats = client._new_stats(nbytes)

    def run(self):
        client = self.client
        env = client.network.env
        stats = self.stats
        if client.config.policy is None:
            plan, blocks_of = self.block_map.shares(self.offset, self.nbytes)
            # Validate the whole plan before any sub-read starts, so a
            # failed read leaves no dangling transfers on shared
            # connections.
            for server_name in plan:
                if not client.master.servers[server_name].online:
                    raise ServerUnavailable(
                        f"server {server_name!r} holds blocks of "
                        f"{self.block_map.dataset.name!r} but is offline"
                    )
            fetch = self._one_transfer
        else:
            # The master re-balances: offline servers' shares are
            # planned onto online replica holders up front.
            plan, blocks_of = client.master.plan_read(
                self.block_map, self.offset, self.nbytes
            )
            fetch = self._policy_share

        # One reader stage per server (the client library's
        # thread-per-server), all merging into one reassembly stage.
        pipe = Pipeline(env, name=f"dpss-read:{self.label}")
        chunks = pipe.buffer(
            max(len(plan), 1) + 1, name="chunks", release="on_get"
        )

        def server_work(share):
            server_name, fetching = share
            t0 = env.now
            transfer = yield from fetching
            return (server_name, env.now - t0, transfer)

        compression = client.config.compression
        for server_name, (n_blocks, n_bytes) in plan.items():
            stats.total_blocks += n_blocks
            wire = (
                n_bytes if compression is None
                else compression.wire_bytes(n_bytes)
            )
            pipe.stage(
                f"read:{server_name}",
                server_work,
                source=[(
                    server_name,
                    fetch(server_name, n_bytes, wire, blocks_of[server_name]),
                )],
                outbound=chunks,
            )

        def reassemble(chunk):
            name, seconds, _transfer = chunk
            stats.per_server_seconds[name] = seconds

        pipe.stage("reassemble", reassemble, inbound=chunks)
        if plan:
            yield pipe.run()
        delivered = self.nbytes - stats.missing_bytes
        if compression is not None and delivered > 0:
            # Inflate on the client: CPU time that competes with any
            # co-located rendering -- the compression trade-off.
            cpu = compression.decompress_seconds(delivered)
            stats.decompress_seconds = cpu
            host = client.network.hosts[client.host_name]
            yield host.compute(cpu, label=f"{self.label}:inflate")
        stats.end = env.now
        return stats

    # -- what every share does ------------------------------------------
    def _probe(self, server_name: str,
               blocks: Sequence[int]) -> Tuple[int, float]:
        """Probe a server's cache for the blocks it will serve.

        Returns ``(hits, disk_fraction)``; hits bypass the disk pool
        (the transfer runs with a reduced disk coefficient).
        """
        dataset = self.block_map.dataset
        hits, misses = self.client.master.servers[server_name].cache_lookup(
            dataset.name, blocks, dataset.block_size
        )
        return hits, (misses / len(blocks) if blocks else 0.0)

    def _credit(self, server_name: str, hits: int, wire: float,
                n_bytes: float) -> None:
        """Book a share to the server that delivered it."""
        stats = self.stats
        stats.cache_hit_blocks += hits
        stats.wire_bytes += wire
        stats.per_server_bytes[server_name] = (
            stats.per_server_bytes.get(server_name, 0.0) + n_bytes
        )

    # -- fail-fast: one transfer ----------------------------------------
    def _one_transfer(self, server_name: str, n_bytes: float, wire: float,
                      blocks: Sequence[int]):
        """The cache probe and the lease happen here, at plan time --
        moving them into the stage would reorder same-tick probes
        against other PEs' clients; the returned generator is the
        transfer itself, run when the stage starts."""
        client = self.client
        hits, disk_fraction = self._probe(server_name, blocks)
        self._credit(server_name, hits, wire, n_bytes)
        return client._single_read(
            client._lease(server_name), client.master.servers[server_name],
            wire, disk_fraction, self.label,
        )

    # -- policy: retry / backoff / failover / hedge ---------------------
    def _policy_share(self, server_name: str, n_bytes: float, wire: float,
                      blocks: Sequence[int]):
        """One server share under the retry/backoff/failover loop.

        Never raises: exhausting the policy records the loss in the
        stats (``missing_bytes``/``failed_servers``) and returns
        ``None``, so the surrounding pipeline stage always completes
        normally and the sanitizer sees a clean run.
        """
        client = self.client
        env = client.network.env
        policy = client.config.policy
        assert policy is not None
        stats = self.stats
        target = server_name
        attempt = 0
        recovered = False
        while True:
            try:
                transfer = yield from self._attempt(
                    target, n_bytes, wire, blocks
                )
                if recovered:
                    client._log(
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
                client._log(tag, server=target, attempt=attempt)
                if attempt >= policy.max_retries:
                    client._log(
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
                delay = policy.backoff_delay(attempt, client.rng)
                client._log(
                    Tags.RETRY_BACKOFF, server=target, attempt=attempt,
                    delay=round(delay, 6),
                )
                yield env.timeout(delay)
                # Consult the master for a stand-in replica holder.
                yield env.timeout(client._master_round_trip())
                failover = client.master.failover_server(
                    self.block_map, target
                )
                if failover is not None and failover != target:
                    client._log(
                        Tags.RETRY_FAILOVER, server=target, to=failover,
                    )
                    target = failover
                attempt += 1

    def _attempt(self, server_name: str, n_bytes: float, wire: float,
                 blocks: Sequence[int]):
        """One bounded attempt: primary read vs deadline vs hedge.

        Raises :class:`~repro.faults.policy.ReadTimeout` when the
        deadline fires first and
        :class:`~repro.dpss.master.ServerUnavailable` when the target
        refuses (offline). On success books the share to whichever
        read won and returns its
        :class:`~repro.netsim.tcp.TransferStats`.
        """
        client = self.client
        env = client.network.env
        policy = client.config.policy
        assert policy is not None
        stats = self.stats
        if not client.master.servers[server_name].online:
            raise ServerUnavailable(f"server {server_name!r} is offline")
        #: in-flight read -> (server it reads from, its cache hits)
        source: Dict["Process", Tuple[str, int]] = {}

        def launch(name: str) -> "Process":
            hits, disk_fraction = self._probe(name, blocks)
            proc = client._launch_read(
                client.master.servers[name], wire, disk_fraction, self.label
            )
            source[proc] = (name, hits)
            return proc

        reads: List["Process"] = [launch(server_name)]
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
                served_by, hits = source[winner]
                self._credit(served_by, hits, wire, n_bytes)
                return winner.value
            reads = [p for p in reads if not p.processed]
            if hedge_timer is not None and hedge_timer.processed and not hedged:
                hedged = True
                replica = client.master.failover_server(
                    self.block_map, server_name
                )
                if replica is not None:
                    stats.hedges += 1
                    client._log(
                        Tags.RETRY_HEDGE, server=server_name, to=replica,
                        nbytes=n_bytes,
                    )
                    hedge_proc = launch(replica)
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
    def _pick_winner(reads) -> Optional["Process"]:
        """The first read that finished with all its bytes, if any."""
        for p in reads:
            if p.processed:
                result = p.value
                if result is not None and not result.aborted:
                    return p
        return None
