"""The k-of-n read strategy: reconstruct instead of retry.

The strategy for a parity-striped dataset: :class:`RedundantRead`
decides which shares to fetch, when to launch repairs and what to
cancel; every byte still moves through the transport of
:class:`~repro.dpss.client.DpssClient` (``_launch_read``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Set

from repro.dpss.blocks import BlockMap
from repro.dpss.stripe import StripeMap
from repro.netlogger.events import Tags

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.client import DpssClient

#: seconds a hedged read's data shares run before the repair shares
#: launch; also the period of the mid-read liveness recheck
STRAGGLER_AFTER = 0.25
#: backstop deadline of one striped read (seconds): blocks still
#: missing then are delivered absent
READ_DEADLINE = 30.0
#: health score at which the first wave reads around a server
AVOID_THRESHOLD = 0.75


class RedundantRead:
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
      :data:`STRAGGLER_AFTER` seconds in (or immediately, for servers that
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
    fault is caught by the :data:`READ_DEADLINE` backstop, since
    stalled fluid transfers never die on their own.
    """

    def __init__(self, client: "DpssClient", block_map: BlockMap,
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

        self.stats = client._new_stats(nbytes)
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

    def _offline(self) -> Set[str]:
        """Servers offline right now (re-polled mid-read)."""
        servers = self.client.master.servers
        return {
            name for name in self.smap.server_names
            if not servers[name].online
        }

    def _plan_launch(self, offline: Set[str]) -> Set[str]:
        """Offline/health triage: the servers the first wave skips."""
        client = self.client
        dead = set(offline)
        # Health avoidance spends the single-erasure budget, so it is
        # skipped entirely while any server is outright offline.
        if not offline and client.health is not None:
            worst = client.health.worst(list(self.smap.server_names))
            if worst is not None and client.health.should_avoid(
                worst, threshold=AVOID_THRESHOLD
            ):
                dead.add(worst)
                self._log(
                    Tags.HEALTH_AVOID, server=worst,
                    score=round(client.health.score(worst), 6),
                )
        return dead

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

    def _cancel_where(self, doomed: Callable[[str, List[int]], bool],
                      cause: str) -> None:
        """Tear down every in-flight share ``doomed(server, block_ids)``."""
        for proc in [p for p in list(self.pending) if not p.processed]:
            server, block_ids, _share_bytes, kind, _t0 = self.pending[
                proc
            ]
            if not doomed(server, block_ids):
                continue
            del self.pending[proc]
            if proc.is_alive:
                proc.interrupt(cause)
            self.stats.shares_cancelled += 1
            self._log(
                Tags.STRIPE_CANCEL, server=server, kind=kind,
                blocks=len(block_ids),
            )

    def _cancel_useless(self) -> None:
        """Tear down shares that can no longer contribute a block."""
        self._cancel_where(
            lambda server, block_ids: not any(
                self._useful(b) for b in block_ids
            ),
            "stripe-cancel",
        )

    def _triage_offline(self, offline: Set[str]) -> None:
        """Treat shares stalled on a crashed server as erasures.

        A fluid transfer whose server crashes mid-read stalls rather
        than dying, so waiting on it means waiting for the recovery or
        the deadline, whichever comes first. Cancel it, repair around
        it, and give up immediately on blocks whose stripe lost a
        second holder -- deliver-absent beats a multi-second stall.
        """
        self._cancel_where(
            lambda server, block_ids: server in offline, "stripe-offline"
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

        offline = self._offline()
        dead = self._plan_launch(offline)
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
                straggler = env.timeout(STRAGGLER_AFTER)

        deadline = env.timeout(READ_DEADLINE)
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
                recheck = env.timeout(STRAGGLER_AFTER)
            waits.append(recheck)
            yield env.any_of(waits)
            self._absorb()
            self._resolve()
            if self.unresolved:
                offline = self._offline()
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

