"""One DPSS read: a requestor decides what to fetch, one loop fetches it.

"The DPSS client library is multi-threaded, where the number of client
threads is equal to the number of DPSS servers" (section 3.5).
:class:`DpssRead` launches every share through
:meth:`~repro.dpss.client.DpssClient._launch_read`, waits on
``env.any_of`` over the shares in flight and the requestor's timers,
books accepted arrivals into :class:`~repro.dpss.client.ReadStats` and
tears down and counts the losers. A requestor (after RAID-PIR's
``XORRequestor``) decides what to fetch and when to give up:

- :class:`ReplicaRequestor` -- one share per server of the plan. Without
  a :class:`~repro.faults.policy.RequestPolicy` it is fail-fast: an
  offline holder raises :class:`~repro.dpss.master.ServerUnavailable`
  before any share starts. A policy adds the master's live plan, a
  deadline per attempt, a hedge, backoff and failover; such a read never
  raises, and a share that exhausts the policy is delivered absent.
- :class:`ParityRequestor` -- k-of-n over a parity-striped dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Union

from repro.dpss.blocks import BlockMap
from repro.dpss.master import ServerUnavailable
from repro.netlogger.events import Tags

if TYPE_CHECKING:  # pragma: no cover
    from repro.dpss.client import DpssClient
    from repro.simcore.events import Event
    from repro.simcore.process import Process

#: seconds a hedged striped read's data shares run before the repair
#: shares launch; also the period of the mid-read liveness recheck
STRAGGLER_AFTER = 0.25
#: backstop deadline of one striped read (seconds): blocks still
#: missing then are delivered absent
READ_DEADLINE = 30.0
#: health score at which a striped read's first wave reads around a
#: server
AVOID_THRESHOLD = 0.75

#: share kinds of a replica read; the others are parity shares
_REPLICA_KINDS = ("primary", "hedge")


@dataclass(eq=False)
class _Share:
    """One transfer in flight: ``blocks`` (requested ones first) from
    ``server``, ``wire`` bytes moved, ``delivered`` bytes of the
    caller's range, ``hits`` requested blocks served from the server's
    cache. ``kind`` is ``primary`` / ``hedge`` for a replica read and
    ``data`` / ``repair`` / ``eager`` for a parity read."""

    server: str
    blocks: Sequence[int]
    wire: float
    delivered: float
    hits: int
    kind: str
    t0: float
    proc: "Process"


class DpssRead:
    """One ``dpss_read``: the launch / wait / book / tear-down loop."""

    def __init__(self, client: "DpssClient", block_map: BlockMap,
                 offset: float, nbytes: float, label: str, *,
                 parity: bool):
        self.client = client
        self.env = client.network.env
        self.block_map = block_map
        self.label = label
        self.offset = float(offset)
        self.nbytes = float(nbytes)
        self.stats = client._new_stats(nbytes)
        #: shares in flight, in launch order
        self.in_flight: Dict["Process", _Share] = {}
        self.parity = parity

    def launch(self, server_name: str, blocks: Sequence[int], wire: float,
               delivered: float, kind: str, *,
               spare: Sequence[int] = ()) -> _Share:
        """Probe a server's cache and start one transfer from it. A cached
        ``spare`` (parity or filler) block skips the disk but is no cache
        hit of the caller's; misses set the flow's disk-pool share."""
        name = self.block_map.dataset.name
        bs = self.block_map.dataset.block_size
        server = self.client.master.servers[server_name]
        hits, misses = server.cache_lookup(name, blocks, bs)
        if spare:
            misses += server.cache_lookup(name, spare, bs)[1]
        n = len(blocks) + len(spare)
        disk_fraction = misses / n if n else 0.0
        proc = self.client._launch_read(server, wire, disk_fraction, self.label)
        share = _Share(
            server_name, [*blocks, *spare] if spare else blocks, wire,
            delivered, hits, kind, self.env.now, proc,
        )
        self.in_flight[proc] = share
        return share

    def tear_down(self, share: _Share) -> bool:
        """Stop a share still in flight; True if it was still running:
        an abandoned hedge, or a parity share cancelled as useless."""
        if self.in_flight.pop(share.proc, None) is None or not share.proc.is_alive:
            return False
        share.proc.interrupt()
        if share.kind == "hedge":
            self.stats.hedges_abandoned += 1
        elif share.kind not in _REPLICA_KINDS:
            self.stats.shares_cancelled += 1
            self.client._log(
                Tags.STRIPE_CANCEL, server=share.server, kind=share.kind,
                blocks=len(share.blocks),
            )
        return True

    def _book(self, share: _Share) -> None:
        """Credit an accepted arrival to the server that delivered it."""
        stats = self.stats
        stats.cache_hit_blocks += share.hits
        stats.wire_bytes += share.wire
        if share.kind not in _REPLICA_KINDS:
            stats.parity_wire_bytes += share.wire - share.delivered
        stats.per_server_bytes[share.server] = (
            stats.per_server_bytes.get(share.server, 0.0) + share.delivered
        )
        stats.per_server_seconds[share.server] = max(
            stats.per_server_seconds.get(share.server, 0.0),
            self.env.now - share.t0,
        )

    def run(self):
        env = self.env
        # A local, not an attribute: the requestor points back at this
        # read, and a cycle would outlive the read until a full collection.
        requestor: Union[ParityRequestor, ReplicaRequestor] = (
            ParityRequestor(self) if self.parity else ReplicaRequestor(self)
        )
        requestor.start()
        while not requestor.done():
            yield env.any_of([*self.in_flight, *requestor.timers()])
            arrived = [s for s in self.in_flight.values() if s.proc.processed]
            for share in arrived:
                del self.in_flight[share.proc]
            for share in arrived:
                if requestor.accept(share):
                    self._book(share)
            requestor.wake()
        # Everything still in flight lost the race.
        for share in list(self.in_flight.values()):
            self.tear_down(share)
        cpu, what = requestor.client_cpu()
        if cpu > 0:
            host = self.client.network.hosts[self.client.host_name]
            yield host.compute(cpu, label=f"{self.label}:{what}")
        self.stats.end = env.now
        return self.stats


@dataclass(eq=False)
class _Slot:
    """One server's share of a replica read, across its attempts:
    ``reads`` are the current attempt's (primary first), ``pause`` is the
    backoff and then the master round trip between attempts, and
    ``recovered`` makes a late success log ``RETRY_OK``."""

    target: str
    n_bytes: float
    wire: float
    blocks: Sequence[int]
    attempt: int = 0
    recovered: bool = False
    done: bool = False
    reads: List[_Share] = field(default_factory=list)
    deadline: Optional["Event"] = None
    hedge_timer: Optional["Event"] = None
    pause: Optional["Event"] = None


class ReplicaRequestor:
    """One share per server: fail-fast, or retried under a policy."""

    def __init__(self, read: DpssRead):
        self.read = read
        self.client = read.client
        self.policy = self.client.config.policy
        self.slots: List[_Slot] = []

    def start(self) -> None:
        client, read = self.client, self.read
        block_map, offset, nbytes = read.block_map, read.offset, read.nbytes
        if self.policy is None:
            plan, blocks_of = block_map.shares(offset, nbytes)
            # Refuse the whole plan before any share starts, so a failed
            # read leaves no dangling transfers on shared connections.
            for name in plan:
                if not client.master.servers[name].online:
                    raise ServerUnavailable(
                        f"server {name!r} holds blocks of "
                        f"{block_map.dataset.name!r} but is offline"
                    )
        else:
            # The master re-balances: offline servers' shares are
            # planned onto online replica holders up front.
            plan, blocks_of = client.master.plan_read(block_map, offset, nbytes)
        compression = client.config.compression
        for name, (n_blocks, n_bytes) in plan.items():
            read.stats.total_blocks += n_blocks
            wire = n_bytes if compression is None else compression.wire_bytes(n_bytes)
            self.slots.append(_Slot(name, n_bytes, wire, blocks_of[name]))
        for slot in self.slots:
            self._attempt(slot)

    def done(self) -> bool:
        return all(slot.done for slot in self.slots)

    def timers(self) -> List["Event"]:
        return [
            timer for slot in self.slots if not slot.done
            for timer in (slot.deadline, slot.hedge_timer, slot.pause)
            if timer is not None
        ]

    def _launch(self, slot: _Slot, server: str, kind: str) -> None:
        share = self.read.launch(server, slot.blocks, slot.wire, slot.n_bytes, kind)
        slot.reads.append(share)

    def _attempt(self, slot: _Slot) -> None:
        """Start one bounded attempt: a read, its deadline and hedge."""
        policy = self.policy
        slot.reads = []
        if policy is not None and not self.client.master.servers[slot.target].online:
            self._fail(slot, Tags.RETRY_REFUSED, hedge_torn_down=False)
            return
        self._launch(slot, slot.target, "primary")
        if policy is not None:
            env = self.read.env
            if policy.timeout is not None:
                slot.deadline = env.timeout(policy.timeout)
            if policy.hedge_after is not None:
                slot.hedge_timer = env.timeout(policy.hedge_after)

    def accept(self, share: _Share) -> bool:
        """The first read of an attempt to arrive wins it."""
        slot = next(slot for slot in self.slots if share in slot.reads)
        if slot.done:
            return False
        slot.done = True
        for other in slot.reads:
            self.read.tear_down(other)
        if slot.recovered:
            self.client._log(
                Tags.RETRY_OK, server=slot.target, attempts=slot.attempt + 1,
                nbytes=slot.n_bytes,
            )
        return True

    def wake(self) -> None:
        for slot in self.slots:
            if slot.done:
                continue
            if slot.pause is not None:
                if slot.pause.processed:
                    self._after_pause(slot, slot.pause.value)
                continue
            if slot.hedge_timer is not None and slot.hedge_timer.processed:
                # Duplicate the slow attempt's read on a replica holder.
                slot.hedge_timer = None
                replica = self.client.master.failover_server(
                    self.read.block_map, slot.target
                )
                if replica is not None:
                    self.read.stats.hedges += 1
                    self.client._log(
                        Tags.RETRY_HEDGE, server=slot.target, to=replica,
                        nbytes=slot.n_bytes,
                    )
                    self._launch(slot, replica, "hedge")
            if slot.deadline is not None and slot.deadline.processed:
                slot.deadline = slot.hedge_timer = None
                hedge_torn_down = False
                for share in slot.reads:
                    if self.read.tear_down(share) and share.kind == "hedge":
                        hedge_torn_down = True
                self._fail(slot, Tags.RETRY_TIMEOUT, hedge_torn_down)

    def _fail(self, slot: _Slot, tag: str, hedge_torn_down: bool) -> None:
        """An attempt timed out or was refused: back off, or give up."""
        client = self.client
        policy = self.policy
        assert policy is not None
        stats = self.read.stats
        slot.recovered = True
        client._log(tag, server=slot.target, attempt=slot.attempt)
        if slot.attempt >= policy.max_retries:
            client._log(
                Tags.RETRY_GIVEUP, server=slot.target,
                attempts=slot.attempt + 1, nbytes=slot.n_bytes,
            )
            stats.failed_servers.append(slot.target)
            stats.missing_bytes += slot.n_bytes
            slot.done = True
            return
        if not hedge_torn_down:
            # A deadline that tore down an in-flight hedge already took the
            # recovery action: the relaunch replaces it, no extra retry.
            stats.retries += 1
        delay = policy.backoff_delay(slot.attempt, client.rng)
        client._log(
            Tags.RETRY_BACKOFF, server=slot.target, attempt=slot.attempt,
            delay=round(delay, 6),
        )
        slot.pause = self.read.env.timeout(delay, value="backoff")

    def _after_pause(self, slot: _Slot, phase: str) -> None:
        """After the backoff, ask the master for a stand-in replica
        holder; on its answer, start the next attempt."""
        client = self.client
        if phase == "backoff":
            slot.pause = self.read.env.timeout(client._master_round_trip())
            return
        slot.pause = None
        failover = client.master.failover_server(self.read.block_map, slot.target)
        if failover is not None and failover != slot.target:
            client._log(Tags.RETRY_FAILOVER, server=slot.target, to=failover)
            slot.target = failover
        slot.attempt += 1
        self._attempt(slot)

    def client_cpu(self):
        """Inflating what arrived: CPU time co-located rendering feels."""
        compression = self.client.config.compression
        stats = self.read.stats
        delivered = stats.nbytes - stats.missing_bytes
        if compression is not None and delivered > 0:
            stats.decompress_seconds = compression.decompress_seconds(delivered)
        return stats.decompress_seconds, "inflate"


class ParityRequestor:
    """k-of-n over a parity-striped dataset: reconstruct, never retry.

    Each server gets at most one share per wave; the read completes once
    arrivals cover every requested block directly or by XOR, and useless
    shares are cancelled. ``"eager"`` reads send every live server its
    data *and* parity/filler blocks at once; ``"hedged"`` ones send the
    *repair* shares once a share is unfinished :data:`STRAGGLER_AFTER`
    seconds in, or at once if an owner is offline or health-avoided.
    Shares move whole, uncompressed blocks; boundary rounding and
    out-of-range siblings ("fillers") count as parity wire bytes. Blocks
    whose stripe lost two holders are delivered absent at once; a
    mid-read double fault stalls, so :data:`READ_DEADLINE` catches it.
    """

    def __init__(self, read: DpssRead):
        smap = read.block_map.stripe
        assert smap is not None
        self.read = read
        self.client = read.client
        self.smap = smap
        self.env = read.env
        bs = read.block_map.dataset.block_size
        offset, nbytes = read.offset, read.nbytes
        wanted = list(read.block_map.blocks_for_range(offset, nbytes))
        # span: requested block -> bytes the caller gets; owner, size_of,
        # stripe_of: any block id -> server, wire size, stripe; parity_id,
        # siblings: stripe -> parity block, data blocks; data_share,
        # repair_share: server -> requested, parity and filler blocks
        self.span = {
            b: min((b + 1) * bs, offset + nbytes) - max(b * bs, offset)
            for b in wanted
        }
        self.owner: Dict[int, str] = {}
        self.size_of: Dict[int, float] = {}
        self.stripe_of: Dict[int, int] = {}
        self.parity_id: Dict[int, int] = {}
        self.siblings: Dict[int, List[int]] = {}
        self.data_share: Dict[str, List[int]] = {}
        self.repair_share: Dict[str, List[int]] = {}
        for s in smap.stripes_for_blocks(wanted):
            pid = self.parity_id[s] = smap.parity_block_id(s)
            self.stripe_of[pid] = s
            self.owner[pid] = smap.parity_server(s)
            self.size_of[pid] = smap.parity_bytes(s)
            self.repair_share.setdefault(self.owner[pid], []).append(pid)
            self.siblings[s] = list(smap.data_blocks(s))
            for b in self.siblings[s]:
                self.owner[b] = smap.server_of_block(b)
                self.size_of[b] = smap.block_bytes(b)
                self.stripe_of[b] = s
                shares = self.data_share if b in self.span else self.repair_share
                shares.setdefault(self.owner[b], []).append(b)
        read.stats.total_blocks = len(wanted)
        #: requested blocks not yet delivered, reconstructed or given up
        self.unresolved: Set[int] = set(wanted)
        #: block ids (data, filler and parity) arrived so far
        self.arrived: Set[int] = set()
        self.repairs_launched = False
        self.xor_cpu = 0.0
        #: servers offline at the last poll
        self.offline: Set[str] = set()
        self.straggler: Optional["Event"] = None
        self.deadline: Optional["Event"] = None
        self.recheck: Optional["Event"] = None

    def _useful(self, block_id: int) -> bool:
        """Could this block still advance the read?"""
        if block_id in self.span:
            return block_id in self.unresolved
        siblings = self.siblings[self.stripe_of[block_id]]
        return any(b in self.unresolved for b in siblings if b in self.span)

    def _launch(self, server: str, block_ids: List[int], kind: str) -> None:
        data = [b for b in block_ids if b in self.span]
        spare = [b for b in block_ids if b not in self.span]
        wire = sum(self.size_of[b] for b in block_ids)
        delivered = sum(self.span[b] for b in data)
        self.read.launch(server, data, wire, delivered, kind, spare=spare)
        self.client._log(
            Tags.STRIPE_READ, server=server, kind=kind,
            blocks=len(block_ids), nbytes=round(wire),
        )

    def _launch_repairs(self) -> None:
        """Fire the parity/filler shares of still-unresolved stripes on
        every server not offline: by now a straggler has spent the
        erasure budget, so health avoidance no longer applies."""
        self.repairs_launched = True
        shares = 0
        total = 0.0
        for server in self.smap.server_names:
            if server in self.offline:
                continue
            ids = [b for b in self.repair_share.get(server, [])
                   if self._useful(b) and b not in self.arrived]
            if ids:
                self._launch(server, ids, "repair")
                shares += 1
                total += sum(self.size_of[b] for b in ids)
        if shares:
            self.client._log(Tags.STRIPE_REPAIR, shares=shares, nbytes=round(total))

    def _give_up(self, blocks: Set[int], reason: str) -> None:
        """Deliver-absent: record the loss and stop chasing it."""
        stats = self.read.stats
        total = 0.0
        for b in sorted(blocks):
            self.unresolved.discard(b)
            total += self.span[b]
            if self.owner[b] not in stats.failed_servers:
                stats.failed_servers.append(self.owner[b])
        stats.missing_bytes += total
        self.client._log(Tags.STRIPE_GIVEUP, reason=reason, blocks=len(blocks),
                         nbytes=round(total))

    def _give_up_hopeless(self) -> None:
        """Deliver absent the blocks whose stripe lost two holders."""
        hopeless = set()
        for b in sorted(self.unresolved):
            if self.owner[b] not in self.offline:
                continue
            stripe = self.stripe_of[b]
            holders = [self.parity_id[stripe], *self.siblings[stripe]]
            if any(self.owner[h] in self.offline for h in holders if h != b):
                hopeless.add(b)
        if hopeless:
            self._give_up(hopeless, "no-path")

    def _poll_offline(self) -> None:
        servers = self.client.master.servers
        self.offline = {n for n in self.smap.server_names if not servers[n].online}

    def start(self) -> None:
        client = self.client
        self._poll_offline()
        dead = set(self.offline)
        # Health avoidance spends the single-erasure budget, so it is
        # skipped entirely while any server is outright offline.
        if not self.offline and client.health is not None:
            worst = client.health.worst(list(self.smap.server_names))
            if worst is not None and client.health.should_avoid(
                worst, threshold=AVOID_THRESHOLD
            ):
                dead.add(worst)
                client._log(
                    Tags.HEALTH_AVOID, server=worst,
                    score=round(client.health.score(worst), 6),
                )
        self._give_up_hopeless()
        eager = client.config.stripe.read_policy == "eager"
        for server in self.smap.server_names:
            if server in dead:
                continue
            ids = self.data_share.get(server, [])
            if eager:
                ids = ids + self.repair_share.get(server, [])
            ids = [b for b in ids if self._useful(b)]
            if ids:
                self._launch(server, ids, "eager" if eager else "data")
        if eager:
            self.repairs_launched = True
        elif any(self.owner[b] in dead for b in sorted(self.unresolved)):
            # Some owner will never answer: repair at once, with no
            # straggler timer to wait out.
            self._launch_repairs()
        elif self.unresolved:
            self.straggler = self.env.timeout(STRAGGLER_AFTER)
        self.deadline = self.env.timeout(READ_DEADLINE)
        self._refill()

    def _refill(self) -> None:
        """With nothing in flight, repair; with nothing left to repair,
        give up on the rest."""
        if self.read.in_flight or not self.unresolved:
            return
        if not self.repairs_launched:
            self._launch_repairs()
        if not self.read.in_flight:
            self._give_up(set(self.unresolved), "no-path")

    def done(self) -> bool:
        return not self.unresolved

    def timers(self) -> List["Event"]:
        assert self.deadline is not None
        waits = [self.deadline]
        if self.straggler is not None and not self.repairs_launched:
            waits.insert(0, self.straggler)
        # Liveness recheck: a server crashing mid-transfer stalls its
        # share rather than failing it, so poll long before the deadline.
        if self.recheck is None or self.recheck.processed:
            self.recheck = self.env.timeout(STRAGGLER_AFTER)
        return [e for e in waits if not e.processed] + [self.recheck]

    def accept(self, share: _Share) -> bool:
        """Every arrival counts: its blocks are in."""
        self.arrived.update(share.blocks)
        if self.client.health is not None:
            self.client.health.observe_latency(
                share.server, self.env.now - share.t0, share.wire
            )
        return True

    def wake(self) -> None:
        self._resolve()
        if self.unresolved:
            self._poll_offline()
            if self.offline:
                # A share whose server crashed stalls rather than dying:
                # cancel it, repair around it, and give up at once on blocks
                # whose stripe lost a second holder.
                for share in list(self.read.in_flight.values()):
                    if share.server in self.offline:
                        self.read.tear_down(share)
                self._give_up_hopeless()
                if self.unresolved and not self.repairs_launched:
                    self._launch_repairs()
        straggler = self.straggler
        if self.unresolved and straggler is not None and (
            straggler.processed and not self.repairs_launched
        ):
            self._launch_repairs()
        assert self.deadline is not None
        if self.deadline.processed and self.unresolved:
            self._give_up(set(self.unresolved), "deadline")
        for share in list(self.read.in_flight.values()):
            if not any(self._useful(b) for b in share.blocks):
                self.read.tear_down(share)
        self._refill()

    def _resolve(self) -> None:
        """Mark direct arrivals, then reconstruct what parity allows."""
        stats = self.read.stats
        self.unresolved -= self.arrived
        for b in sorted(self.unresolved):
            stripe = self.stripe_of[b]
            if self.parity_id[stripe] not in self.arrived:
                continue
            siblings = self.siblings[stripe]
            if all(s in self.arrived for s in siblings if s != b):
                self.unresolved.discard(b)
                stats.reconstructions += 1
                stats.reconstructed_bytes += self.span[b]
                self.xor_cpu += self.client.codec.xor_seconds(
                    len(siblings) * self.smap.parity_bytes(stripe)
                )
                self.client._log(
                    Tags.STRIPE_RECONSTRUCT, block=b, stripe=stripe,
                    nbytes=round(self.span[b]),
                )

    def client_cpu(self):
        """The XOR of every reconstruction."""
        return self.xor_cpu, "xor"
