"""TilePlan: the pure geometry tile mode runs on (who owns which visible
tile, what routing and shipping them costs)."""

import pytest

from repro.backend.tiles import TILE_BATCH_HEADER_BYTES, TilePlan
from repro.config import TileConfig
from repro.protocol import TILE_WIRE_OVERHEAD

#: `_tiny(tiles=TILES_ON)` of test_tiles_mode.py: a 32x32 viewport cut
#: into sixteen 8x8 tiles over eight PEs
SHAPE = (64, 32, 32)
DATASET = "lan-e4500-overlapped-data"


def _plan(n_pes=8, **tiles):
    config = TileConfig(**{"enabled": True, "tile_size": 8, **tiles})
    return TilePlan.build(SHAPE, config, n_pes, DATASET)


@pytest.mark.parametrize("frustum", [None, (0.0, 0.0, 0.75, 1.0)])
@pytest.mark.parametrize("n_pes", [1, 3, 8])
def test_ownership_partitions_the_visible_set(n_pes, frustum):
    plan = _plan(n_pes, frustum=frustum)
    assert len(plan.owned) == len(plan.route_bytes) == n_pes
    owned = [t for tiles in plan.owned for t in tiles]
    assert sorted(owned) == list(plan.visible)
    assert len(set(owned)) == len(owned)
    for rank, tiles in enumerate(plan.owned):
        assert list(tiles) == sorted(tiles)
        assert all(plan.grid.owner_of(t, n_pes) == rank for t in tiles)


def test_route_bytes_are_the_visible_tiles_a_rank_does_not_own():
    plan = _plan(3, frustum=(0.0, 0.0, 0.75, 1.0))
    for rank in range(3):
        others = set(plan.visible) - set(plan.owned[rank])
        assert plan.route_bytes[rank] == 4.0 * sum(
            plan.grid.tile_pixels(t) for t in others
        )
    # parent log, _tiny(tiles=TILES_ON): TILE_ROUTE_START nbytes=3584
    assert set(_plan().route_bytes) == {3584.0}


def test_narrow_frustum_leaves_a_rank_without_tiles():
    plan = _plan(frustum=(0.0, 0.0, 0.2, 0.2))
    assert plan.visible == (0,)
    assert plan.owned[0] == (0,)
    assert plan.owned[5] == ()
    assert plan.route_bytes[0] == 0.0
    # an owner with nothing visible still ships the batch manifest
    assert plan.batch(5, 0, all_full=False) == (
        0, 0, 0, TILE_BATCH_HEADER_BYTES, 0.0
    )


@pytest.mark.parametrize("frame", [0, 1, 2])
def test_all_full_batch_carries_no_references(frame):
    plan = _plan()
    for rank in range(8):
        ntiles, nfull, nref, nbytes, saved = plan.batch(
            rank, frame, all_full=True
        )
        assert (ntiles, nfull, nref, saved) == (2, 2, 0, 0.0)
        assert nbytes == TILE_BATCH_HEADER_BYTES + sum(
            TILE_WIRE_OVERHEAD + plan.tile_bytes(t) for t in plan.owned[rank]
        )


def test_batch_matches_the_parents_tile_send_log():
    """(ntiles, nfull, nref, nbytes) the back end logged as TILE_SEND
    for `_tiny(tiles=TILES_ON)` before the batch loop moved here (rank 0
    additionally carries 5242.88 geometry bytes, added by the back end)."""
    plan = _plan()
    for rank in range(8):
        assert plan.batch(rank, 0, all_full=False)[:4] == (2, 2, 0, 666.0)
    logged_frame_1 = {
        0: (2, 1, 1, 410.0), 1: (2, 2, 0, 666.0), 2: (2, 0, 2, 154.0),
        3: (2, 0, 2, 154.0), 4: (2, 0, 2, 154.0), 5: (2, 1, 1, 410.0),
        6: (2, 1, 1, 410.0), 7: (2, 2, 0, 666.0),
    }
    for rank, expected in logged_frame_1.items():
        ntiles, nfull, nref, nbytes, saved = plan.batch(
            rank, 1, all_full=False
        )
        assert (ntiles, nfull, nref, nbytes) == expected
        assert saved == nref * 8 * 8 * 4.0


def test_cache_key_ignores_frustum_and_pe_count():
    wide, narrow = _plan(8), _plan(3, frustum=(0.0, 0.0, 0.5, 1.0))
    assert wide.cache_key(1, 2) == narrow.cache_key(1, 2)
    assert wide.cache_key(1, 2) != wide.cache_key(1, 3)
    assert wide.cache_key(1, 2) != _plan(tile_size=16).cache_key(1, 2)
