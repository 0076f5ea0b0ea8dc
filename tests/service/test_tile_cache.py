"""Tile-keyed render cache: mixed-size budgets, per-tile coalescing,
and cross-frustum reuse (DESIGN.md section 13)."""

import math

from repro.service import CacheConfig, RenderCache
from repro.simcore import Environment
from repro.volren.tiles import TileGrid


def tile_key(grid: TileGrid, frame: int, tid: int):
    """The backend's tile cache key shape: identifies the dataset,
    timestep, decomposition axis, grid geometry, and tile."""
    return ("tile", "dset", frame, 0, grid.width, grid.height,
            grid.tile_size, tid)


def tile_bytes(grid: TileGrid, tid: int) -> float:
    return float(grid.tile_pixels(tid) * 4)


def make_cache(capacity):
    env = Environment()
    return env, RenderCache(env, CacheConfig(capacity_bytes=capacity))


class TestMixedSizeBudget:
    """Edge tiles are smaller than interior tiles; the LRU budget must
    account exact byte sizes, not tile counts."""

    # 40x24 @ 16: tiles are 16x16 (1024 px), 8x16, 16x8 and 8x8 wide
    GRID = TileGrid(width=40, height=24, tile_size=16)

    def test_exact_budget_with_mixed_tile_sizes_does_not_evict(self):
        grid = self.GRID
        total = sum(tile_bytes(grid, t) for t in grid.all_tiles())
        assert len({tile_bytes(grid, t) for t in grid.all_tiles()}) > 1
        _, cache = make_cache(total)
        for tid in grid.all_tiles():
            cache.begin(tile_key(grid, 0, tid))
            cache.publish(tile_key(grid, 0, tid), tile_bytes(grid, tid))
        assert len(cache) == grid.n_tiles
        assert cache.stats.evictions == 0
        assert cache.stats.bytes_cached == total

    def test_one_byte_over_evicts_lru_tiles_until_within_budget(self):
        grid = self.GRID
        total = sum(tile_bytes(grid, t) for t in grid.all_tiles())
        _, cache = make_cache(total)
        for tid in grid.all_tiles():
            cache.begin(tile_key(grid, 0, tid))
            cache.publish(tile_key(grid, 0, tid), tile_bytes(grid, tid))
        # a frame-1 interior tile (1 kB) displaces the LRU frame-0 tiles
        cache.begin(tile_key(grid, 1, 0))
        cache.publish(tile_key(grid, 1, 0), tile_bytes(grid, 0))
        assert tile_key(grid, 1, 0) in cache
        assert tile_key(grid, 0, 0) not in cache
        assert cache.stats.bytes_cached <= total
        # only as many LRU victims as the budget demanded: tile 0 is
        # 1024 B, so exactly one interior tile makes room
        assert cache.stats.evictions == 1

    def test_small_edge_tile_evicts_at_most_one_victim(self):
        grid = self.GRID
        corner = grid.n_tiles - 1  # 8x8 corner tile, 256 B
        assert tile_bytes(grid, corner) < tile_bytes(grid, 0)
        total = sum(tile_bytes(grid, t) for t in grid.all_tiles())
        _, cache = make_cache(total)
        for tid in grid.all_tiles():
            cache.begin(tile_key(grid, 0, tid))
            cache.publish(tile_key(grid, 0, tid), tile_bytes(grid, tid))
        cache.begin(tile_key(grid, 1, corner))
        cache.publish(tile_key(grid, 1, corner), tile_bytes(grid, corner))
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_cached <= total


class TestSameTileCoalescing:
    """Two sessions racing on the same tile key: one leads, the other
    waits and is served by the publish (or retries after an abandon)."""

    GRID = TileGrid(width=32, height=32, tile_size=16)

    def test_lead_wait_publish_on_one_tile(self):
        grid = self.GRID
        env, cache = make_cache(1 << 20)
        key = tile_key(grid, 0, 2)
        outcomes = []

        def leader():
            claim = cache.begin(key, tile=2)
            assert claim.status == "lead"
            yield env.timeout(1.0)  # the slab render
            cache.publish(key, tile_bytes(grid, 2), tile=2)
            outcomes.append("published")

        def follower():
            claim = cache.begin(key, tile=2)
            assert claim.status == "wait"
            served = yield claim.event
            outcomes.append(served)

        env.process(leader())
        env.process(follower())
        env.run()
        assert outcomes == ["published", True]
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 1
        assert cache.stats.hits == 1

    def test_degraded_lead_abandons_and_waiter_takes_over(self):
        """A degraded slab must never publish partial tiles; the waiter
        retries, leads, and publishes a clean render."""
        grid = self.GRID
        env, cache = make_cache(1 << 20)
        key = tile_key(grid, 0, 1)

        def degraded_leader():
            assert cache.begin(key, tile=1).status == "lead"
            yield env.timeout(1.0)
            cache.abandon(key, tile=1)

        def waiter():
            claim = cache.begin(key, tile=1)
            served = yield claim.event
            assert served is False
            retry = cache.begin(key, tile=1)
            assert retry.status == "lead"
            yield env.timeout(1.0)
            cache.publish(key, tile_bytes(grid, 1), tile=1)

        env.process(degraded_leader())
        env.process(waiter())
        env.run()
        assert cache.stats.abandons == 1
        assert key in cache

    def test_distinct_tiles_do_not_coalesce(self):
        grid = self.GRID
        _, cache = make_cache(1 << 20)
        assert cache.begin(tile_key(grid, 0, 0)).status == "lead"
        assert cache.begin(tile_key(grid, 0, 1)).status == "lead"
        assert cache.stats.coalesced == 0


class TestOverlappingFrusta:
    """Two viewers with partially-overlapping frusta share exactly the
    tiles in the frustum intersection; a warm replay beats the cold
    pass strictly."""

    GRID = TileGrid(width=128, height=64, tile_size=32)  # 4x2 tiles
    FRUSTUM_A = (0.0, 0.0, 0.75, 1.0)
    FRUSTUM_B = (0.25, 0.0, 1.0, 1.0)

    @staticmethod
    def view(cache, grid, frame, frustum):
        for tid in grid.tiles_in_rect(*frustum):
            key = tile_key(grid, frame, tid)
            if cache.begin(key, tile=tid).status == "lead":
                cache.publish(key, tile_bytes(grid, tid))

    def drive(self, cache, frames):
        for frame in range(frames):
            for frustum in (self.FRUSTUM_A, self.FRUSTUM_B):
                self.view(cache, self.GRID, frame, frustum)

    def test_cold_pass_hits_only_the_shared_tiles(self):
        _, cache = make_cache(1 << 24)
        self.drive(cache, frames=2)
        shared = set(self.GRID.tiles_in_rect(*self.FRUSTUM_A)) & set(
            self.GRID.tiles_in_rect(*self.FRUSTUM_B)
        )
        union = set(self.GRID.tiles_in_rect(*self.FRUSTUM_A)) | set(
            self.GRID.tiles_in_rect(*self.FRUSTUM_B)
        )
        assert cache.stats.hits == 2 * len(shared)
        assert cache.stats.misses == 2 * len(union)

    def test_warm_replay_strictly_beats_the_cold_pass(self):
        _, cache = make_cache(1 << 24)
        self.drive(cache, frames=2)
        cold_ratio = cache.stats.hit_ratio
        cold_hits, cold_lookups = cache.stats.hits, cache.stats.lookups
        self.drive(cache, frames=2)  # same frames, warm cache
        warm_hits = cache.stats.hits - cold_hits
        warm_lookups = cache.stats.lookups - cold_lookups
        warm_ratio = warm_hits / warm_lookups
        assert warm_ratio == 1.0
        assert warm_ratio > cold_ratio

    def test_orbiting_frusta_share_cold_and_replay_perfectly(self):
        """PR 6's orbit-cache floor: two viewers orbit a quarter turn
        apart over a 128^2 / 16 px grid; the trailing one hits tiles
        the leading one rendered, and a replayed orbit never misses."""
        grid = TileGrid(width=128, height=128, tile_size=16)
        steps, span = 8, 0.6
        _, cache = make_cache(1 << 24)

        def orbit():
            for step in range(steps):
                for phase in (0.0, math.pi / 2.0):
                    lo = (1.0 - span) * 0.5 * (
                        1.0 + math.cos(2.0 * math.pi * step / steps + phase)
                    )
                    self.view(cache, grid, step, (lo, 0.0, lo + span, 1.0))

        orbit()
        cold_hits, cold_lookups = cache.stats.hits, cache.stats.lookups
        orbit()
        warm_hits = cache.stats.hits - cold_hits
        warm_lookups = cache.stats.lookups - cold_lookups
        assert 0 < cold_hits < cold_lookups
        assert warm_hits == warm_lookups == cold_lookups > 0

    def test_disjoint_frusta_share_nothing(self):
        _, cache = make_cache(1 << 24)
        grid = self.GRID
        for frustum in ((0.0, 0.0, 0.5, 1.0), (0.5, 0.0, 1.0, 1.0)):
            for tid in grid.tiles_in_rect(*frustum):
                key = tile_key(grid, 0, tid)
                if cache.begin(key).status == "lead":
                    cache.publish(key, tile_bytes(grid, tid))
        assert cache.stats.hits == 0
        assert cache.stats.misses == grid.n_tiles
