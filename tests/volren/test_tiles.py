"""Tile grid geometry and the change model."""

import numpy as np
import pytest

from repro.volren.tiles import TileGrid, tile_changed


class TestGridGeometry:
    def test_counts_round_up_for_clipped_edges(self):
        grid = TileGrid(width=100, height=70, tile_size=32)
        assert (grid.tiles_x, grid.tiles_y) == (4, 3)
        assert grid.n_tiles == 12

    def test_rects_partition_the_viewport_exactly(self):
        grid = TileGrid(width=100, height=70, tile_size=32)
        covered = np.zeros((grid.height, grid.width), dtype=int)
        for tid in grid.all_tiles():
            x0, y0, x1, y1 = grid.tile_rect(tid)
            assert 0 <= x0 < x1 <= grid.width
            assert 0 <= y0 < y1 <= grid.height
            covered[y0:y1, x0:x1] += 1
        assert np.all(covered == 1)

    def test_edge_tiles_are_clipped(self):
        grid = TileGrid(width=100, height=70, tile_size=32)
        # bottom-right tile: 100 - 96 = 4 wide, 70 - 64 = 6 tall
        assert grid.tile_shape(grid.n_tiles - 1) == (6, 4)
        assert grid.tile_pixels(grid.n_tiles - 1) == 24

    def test_tile_rect_rejects_out_of_range(self):
        grid = TileGrid(width=64, height=64, tile_size=32)
        with pytest.raises(ValueError):
            grid.tile_rect(grid.n_tiles)
        with pytest.raises(ValueError):
            grid.tile_rect(-1)

    def test_degenerate_viewport_and_tile_size_validate(self):
        with pytest.raises(ValueError):
            TileGrid(width=0, height=4)
        with pytest.raises(ValueError):
            TileGrid(width=4, height=4, tile_size=0)

    def test_tile_size_larger_than_viewport_is_one_tile(self):
        grid = TileGrid(width=5, height=3, tile_size=32)
        assert grid.n_tiles == 1
        assert grid.tile_rect(0) == (0, 0, 5, 3)


class TestOwners:
    def test_round_robin_owner_assignment(self):
        grid = TileGrid(width=128, height=128, tile_size=32)  # 16 tiles
        for tid in grid.all_tiles():
            assert grid.owner_of(tid, 4) == tid % 4

    def test_owned_tiles_partition_the_grid(self):
        grid = TileGrid(width=128, height=96, tile_size=32)
        n_owners = 3
        seen = []
        for rank in range(n_owners):
            owned = grid.owned_tiles(rank, n_owners)
            assert all(grid.owner_of(t, n_owners) == rank for t in owned)
            seen.extend(owned)
        assert sorted(seen) == list(grid.all_tiles())

    def test_owner_validation(self):
        grid = TileGrid(width=64, height=64)
        with pytest.raises(ValueError):
            grid.owner_of(0, 0)
        with pytest.raises(ValueError):
            grid.owned_tiles(2, 2)


class TestFrustumRect:
    def test_full_rect_selects_every_tile(self):
        grid = TileGrid(width=100, height=70, tile_size=32)
        assert grid.tiles_in_rect(0.0, 0.0, 1.0, 1.0) == grid.all_tiles()

    def test_half_viewport_selects_left_columns(self):
        grid = TileGrid(width=128, height=64, tile_size=32)  # 4x2 tiles
        assert grid.tiles_in_rect(0.0, 0.0, 0.5, 1.0) == (0, 1, 4, 5)

    def test_partial_tile_overlap_includes_the_tile(self):
        grid = TileGrid(width=128, height=64, tile_size=32)
        # 0.3 * 128 = 38.4 px reaches into the second tile column
        assert grid.tiles_in_rect(0.0, 0.0, 0.3, 1.0) == (0, 1, 4, 5)

    def test_overlapping_frusta_share_tiles(self):
        grid = TileGrid(width=128, height=64, tile_size=32)
        a = set(grid.tiles_in_rect(0.0, 0.0, 0.75, 1.0))
        b = set(grid.tiles_in_rect(0.25, 0.0, 1.0, 1.0))
        assert a & b  # the shared middle columns
        assert a | b == set(grid.all_tiles())

    def test_invalid_rect_raises(self):
        grid = TileGrid(width=64, height=64)
        with pytest.raises(ValueError):
            grid.tiles_in_rect(0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            grid.tiles_in_rect(-0.1, 0.0, 1.0, 1.0)


class TestChangeModel:
    def test_frame_zero_always_changes(self):
        assert tile_changed("d", 0, 5, 0.0)

    def test_extremes(self):
        assert all(tile_changed("d", 3, t, 1.0) for t in range(16))
        assert not any(tile_changed("d", 3, t, 0.0) for t in range(16))

    def test_deterministic_and_fractionally_plausible(self):
        draws = [
            tile_changed("combustion", f, t, 0.3)
            for f in range(1, 30)
            for t in range(30)
        ]
        assert draws == [
            tile_changed("combustion", f, t, 0.3)
            for f in range(1, 30)
            for t in range(30)
        ]
        frac = sum(draws) / len(draws)
        assert 0.2 < frac < 0.4

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            tile_changed("d", 1, 0, 1.5)

