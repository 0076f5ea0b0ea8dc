"""DPSS block servers: parallel disk pools plus a RAM block cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.simcore.fluid import FluidResource
from repro.util.units import MB
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.host import Host
    from repro.netsim.topology import Network

#: seconds a block server spends on each request before its first byte
PER_REQUEST_OVERHEAD = 0.002


class DpssServer:
    """One block server: a host, a disk pool, and a block cache.

    "Typical DPSS implementations consist of several low-cost
    workstations as DPSS block servers, each with several disk
    controllers, and several disks on each controller" (section 3.5).
    The disk pool is a fluid resource with aggregate bandwidth
    ``n_disks * disk_rate``; concurrent client streams share it
    max-min, which is precisely the disk-level parallelism claim.

    The RAM cache holds recently served logical blocks: cache hits
    bypass the disk pool entirely (served at NIC speed), modelling the
    "network data cache" behaviour that gives repeat reads their speed.
    """

    def __init__(
        self,
        host: "Host",
        *,
        n_disks: int = 4,
        disk_rate: float = 10 * MB,
        cache_bytes: float = 256 * MB,
    ):
        if n_disks < 1:
            raise ValueError(f"n_disks must be >= 1, got {n_disks}")
        check_positive("disk_rate", disk_rate)
        check_non_negative("cache_bytes", cache_bytes)
        self.host = host
        self.name = host.name
        self.n_disks = n_disks
        self.disk_rate = float(disk_rate)
        self.cache_bytes = float(cache_bytes)
        self.per_request_overhead = PER_REQUEST_OVERHEAD
        self.disks = FluidResource(
            f"disks:{self.name}", n_disks * disk_rate
        )
        # LRU over (dataset, block) -> block bytes.
        self._cache: "OrderedDict[Tuple[str, int], float]" = OrderedDict()
        self._cache_used = 0.0
        self.stats_hits = 0
        self.stats_misses = 0
        #: failure-injection switch: an offline server answers nothing
        self.online = True

    def attach(self, network: "Network") -> None:
        """Register the disk pool with the network's scheduler."""
        network.sched.add_resource(self.disks)

    # -- block cache -----------------------------------------------------
    def cache_lookup(
        self, dataset: str, blocks: Sequence[int], block_size: float
    ) -> Tuple[int, int]:
        """Probe and update the cache for a batch of blocks.

        Returns ``(hits, misses)``; missed blocks are inserted (they
        will be resident once this read completes).
        """
        if not self._cache and block_size > self.cache_bytes:
            # Nothing is resident and no block fits: all miss, at once.
            misses = len(blocks)
            self.stats_misses += misses
            return 0, misses
        hits = 0
        misses = 0
        for block in blocks:
            key = (dataset, block)
            if key in self._cache:
                self._cache.move_to_end(key)
                hits += 1
            else:
                misses += 1
                self._insert(key, block_size)
        self.stats_hits += hits
        self.stats_misses += misses
        return hits, misses

    def _insert(self, key: Tuple[str, int], nbytes: float) -> None:
        if nbytes > self.cache_bytes:
            return  # cannot cache blocks bigger than the cache
        while self._cache_used + nbytes > self.cache_bytes and self._cache:
            _, evicted = self._cache.popitem(last=False)
            self._cache_used -= evicted
        self._cache[key] = nbytes
        self._cache_used += nbytes

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DpssServer({self.name!r}, {self.n_disks} disks @ "
            f"{self.disk_rate / MB:.0f} MB/s)"
        )
