"""The shared render cache: rendered slab textures reused across viewers.

One viewer's back end renders a slab; every other session asking for
the same ``(dataset, timestep, slab)`` key is served the finished
texture from cache, skipping both the DPSS read *and* the render leg.
That changes the per-session frame accounting: a fully warm frame pays
neither L nor R, only the viewer transmit, so the paper's
``To = N*max(L,R) + min(L,R)`` collapses toward the send cost.

Consistency rules (DESIGN.md section 11):

- Entries are immutable once published; keys name a timestep of an
  immutable dataset, so there is no invalidation path.
- Concurrent misses on one key coalesce: the first caller leads (does
  the load + render), later callers wait on an in-flight claim and are
  served when the leader publishes.
- A degraded render (the leader's DPSS read gave up on bytes under
  injected faults) is *abandoned*, never published: partial textures
  must not be served to sessions whose own read might have succeeded.
  Abandoned waiters retry and one of them becomes the new leader.
- Eviction is LRU by size budget; publishing never evicts the entry
  just inserted, and an entry larger than the whole budget is served
  to its waiters but not retained (mirroring the DPSS block cache).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.netlogger.events import Tags
from repro.netlogger.logger import NetLogger
from repro.simcore.env import Environment
from repro.simcore.events import Event
from repro.util.units import MB
from repro.util.validation import check_non_negative

#: cache key: (dataset, timestep, slab position, slab extent), or a
#: tile key (:meth:`repro.backend.tiles.TilePlan.cache_key`)
CacheKey = Tuple[Hashable, ...]


@dataclass(frozen=True)
class CacheConfig:
    """Size budget of the shared render cache; zero means no cache."""

    capacity_bytes: float = 256 * MB

    def __post_init__(self):
        check_non_negative("capacity_bytes", self.capacity_bytes)


@dataclass
class CacheStats:
    """Lookup outcomes and LRU bookkeeping counters.

    ``hits`` counts lookups served from the store plus waiters served
    by a leader's publish; ``misses`` counts lookups that had to do the
    work (leads). ``coalesced`` counts lookups parked behind an
    in-flight lead (their eventual outcome lands in hits, or back in
    misses after an abandon and retry).
    """

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    inserts: int = 0
    evictions: int = 0
    abandons: int = 0
    bytes_cached: float = 0.0

    @property
    def lookups(self) -> int:
        """Resolved lookups (hit or lead)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of resolved lookups served without load + render."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheClaim:
    """Outcome of :meth:`RenderCache.begin` for one lookup.

    ``status`` is ``"hit"`` (texture available now), ``"lead"`` (the
    caller must load + render, then :meth:`~RenderCache.publish` or
    :meth:`~RenderCache.abandon`), or ``"wait"`` (yield ``event``; its
    value is True when the leader published, False when it abandoned
    and the caller should call ``begin`` again).
    """

    status: str
    event: Optional[Event] = None


@dataclass
class _Entry:
    nbytes: float


class RenderCache:
    """LRU texture cache shared by every session's back end.

    Deterministic by construction: pure dictionary bookkeeping driven
    by the simulation's own event order, no clocks or randomness. All
    outcomes are stamped as ``CACHE_*`` NetLogger events.
    """

    def __init__(
        self,
        env: Environment,
        config: Optional[CacheConfig] = None,
        *,
        daemon: Any = None,
    ):
        self.env = env
        self.config = config if config is not None else CacheConfig()
        self.capacity_bytes = float(self.config.capacity_bytes)
        self.stats = CacheStats()
        self.logger = NetLogger(
            "render-cache",
            "cache",
            clock=lambda: env.now,
            daemon=daemon,
        )
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: in-flight leads: key -> events of coalesced waiters
        self._inflight: Dict[CacheKey, List[Event]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    # -- lookup protocol ---------------------------------------------
    def begin(self, key: CacheKey, **fields: Any) -> CacheClaim:
        """Resolve one lookup: hit, coalesced wait, or lead."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.logger.log(
                Tags.CACHE_HIT, nbytes=round(entry.nbytes), **fields
            )
            return CacheClaim("hit")
        if key in self._inflight:
            event = Event(self.env)
            self._inflight[key].append(event)
            self.stats.coalesced += 1
            self.logger.log(Tags.CACHE_WAIT, **fields)
            return CacheClaim("wait", event=event)
        self._inflight[key] = []
        self.stats.misses += 1
        self.logger.log(Tags.CACHE_MISS, **fields)
        return CacheClaim("lead")

    def publish(self, key: CacheKey, nbytes: float, **fields: Any) -> None:
        """A leader finished rendering: insert and serve the waiters."""
        waiters = self._inflight.pop(key)
        self._insert(key, float(nbytes), **fields)
        self.stats.hits += len(waiters)
        for event in waiters:
            event.succeed(True)

    def abandon(self, key: CacheKey, **fields: Any) -> None:
        """A leader's slab came up short: cache nothing, wake waiters.

        Waiters receive False and retry; whoever retries first becomes
        the new leader and issues its own DPSS read.
        """
        waiters = self._inflight.pop(key)
        self.stats.abandons += 1
        self.logger.log(Tags.CACHE_ABANDON, **fields)
        for event in waiters:
            event.succeed(False)

    # -- LRU store ----------------------------------------------------
    def _insert(self, key: CacheKey, nbytes: float, **fields: Any) -> None:
        if nbytes > self.capacity_bytes:
            # Served to the waiters (the texture exists in the leader's
            # memory) but too big to retain -- same guard as the DPSS
            # block cache.
            return
        self._entries[key] = _Entry(nbytes)
        self._entries.move_to_end(key)
        self.stats.bytes_cached += nbytes
        self.stats.inserts += 1
        self.logger.log(Tags.CACHE_INSERT, nbytes=round(nbytes), **fields)
        while self.stats.bytes_cached > self.capacity_bytes:
            old_key, old = self._entries.popitem(last=False)
            self.stats.bytes_cached -= old.nbytes
            self.stats.evictions += 1
            self.logger.log(
                Tags.CACHE_EVICT, nbytes=round(old.nbytes), **fields
            )


class EdgeCacheModel:
    """Byte-budget LRU occupancy model for a shard site's edge cache.

    The sharded serving layer models sessions as fluid transfers, not
    full render pipelines, so its per-site render cache only needs the
    *occupancy* half of :class:`RenderCache`: which working sets are
    resident under an LRU byte budget. ``lookup`` resolves immediately
    -- a hit means the site already holds the profile's rendered
    frames (the session skips the DPSS leg), a miss charges the bytes
    and evicts LRU losers. Coalescing/claims are unnecessary because
    the model inserts at decision time and entries are immutable.

    Counters land in the same :class:`CacheStats` shape the full cache
    uses, so service metrics aggregate both identically.
    """

    def __init__(self, capacity_bytes: float):
        check_non_negative("capacity_bytes", capacity_bytes)
        self.capacity_bytes = float(capacity_bytes)
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def lookup(self, key: CacheKey, nbytes: float) -> bool:
        """True on a resident hit; a miss inserts ``nbytes`` under LRU.

        A zero-capacity model never hits and never stores (the cache
        is off); an entry larger than the whole budget is a miss that
        is not retained, mirroring :meth:`RenderCache._insert`.
        """
        if self.capacity_bytes <= 0:
            self.stats.misses += 1
            return False
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        nbytes = float(nbytes)
        if nbytes > self.capacity_bytes:
            return False
        self._entries[key] = _Entry(nbytes)
        self.stats.bytes_cached += nbytes
        self.stats.inserts += 1
        while self.stats.bytes_cached > self.capacity_bytes:
            _old_key, old = self._entries.popitem(last=False)
            self.stats.bytes_cached -= old.nbytes
            self.stats.evictions += 1
        return False
