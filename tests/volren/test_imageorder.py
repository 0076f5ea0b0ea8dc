"""Tests for the image-order baseline renderer and its cost analysis."""

import numpy as np
import pytest

from repro.datagen import CombustionConfig, combustion_field
from repro.ibravr.artifacts import ground_truth_frame
from repro.scenegraph import Camera
from repro.volren import TransferFunction
from repro.volren.imageorder import (
    ScreenTile,
    footprint_voxels,
    redistribution_voxels,
    render_tile,
    tile_data_bounds,
    tile_decompose,
    work_imbalance,
)


@pytest.fixture(scope="module")
def volume():
    return combustion_field(0.0, CombustionConfig(shape=(32, 32, 32)))


@pytest.fixture(scope="module")
def tf():
    return TransferFunction.fire()


class TestTiles:
    def test_decompose_covers_viewport(self):
        tiles = tile_decompose(64, 48, 4)
        assert len(tiles) == 4
        assert sum((t.x1 - t.x0) * (t.y1 - t.y0) for t in tiles) == 64 * 48
        assert tiles[0].y0 == 0 and tiles[-1].y1 == 48
        for a, b in zip(tiles, tiles[1:]):
            assert a.y1 == b.y0

    def test_validation(self):
        with pytest.raises(ValueError):
            tile_decompose(0, 10, 1)
        with pytest.raises(ValueError):
            tile_decompose(10, 4, 8)
        with pytest.raises(ValueError):
            ScreenTile(rank=0, x0=0, x1=0, y0=0, y1=4)
        with pytest.raises(ValueError):
            ScreenTile(rank=-1, x0=0, x1=4, y0=0, y1=4)


class TestRendering:
    def test_tiles_reassemble_to_full_frame(self, volume, tf):
        """No ordered recombination needed: tiles paste together into
        exactly the single-renderer ground truth (section 3.2)."""
        camera = Camera.orbit(25.0, 10.0)
        W = H = 48
        full = ground_truth_frame(volume, tf, camera, W, H)
        assembled = np.zeros((H, W, 4), dtype=np.float32)
        for t in tile_decompose(W, H, 4):
            assembled[t.y0:t.y1, t.x0:t.x1] = render_tile(
                volume, tf, camera, t, W, H
            )
        np.testing.assert_allclose(assembled, full, atol=1e-5)

    @pytest.mark.parametrize("empty_axis", [0, 1, 2])
    def test_empty_axis_volume_refused(self, tf, empty_axis):
        shape = [4, 4, 4]
        shape[empty_axis] = 0
        vol = np.zeros(tuple(shape), dtype=np.float32)
        camera = Camera.orbit(0.0, 0.0)
        tile = ScreenTile(rank=0, x0=0, x1=8, y0=0, y1=8)
        with pytest.raises(ValueError, match="empty axis"):
            render_tile(vol, tf, camera, tile, 8, 8)
        with pytest.raises(ValueError, match="empty axis"):
            ground_truth_frame(vol, tf, camera, 8, 8)


class TestDataFootprints:
    def test_footprint_within_volume(self, volume):
        camera = Camera.orbit(30.0, 15.0)
        tiles = tile_decompose(32, 32, 4)
        for tile in tiles:
            lo, hi = tile_data_bounds(camera, tile, volume.shape, 32, 32)
            assert all(0 <= l < h <= s for l, h, s in
                       zip(lo, hi, volume.shape))

    def test_footprints_overlap_across_tiles(self, volume):
        """Data duplication: tile footprints overlap, unlike the
        disjoint object-order slabs. Horizontal screen bands only
        entangle once the view tilts (elevation), so tilt it."""
        camera = Camera.orbit(0.0, 35.0)
        tiles = tile_decompose(32, 32, 4)
        total = sum(
            footprint_voxels(
                tile_data_bounds(camera, t, volume.shape, 32, 32)
            )
            for t in tiles
        )
        assert total > volume.size  # duplicated voxels

    def test_rotation_requires_redistribution(self, volume):
        tiles = tile_decompose(32, 32, 4)
        moved = redistribution_voxels(
            Camera.orbit(0.0, 0.0), Camera.orbit(0.0, 50.0),
            tiles, volume.shape, 32, 32,
        )
        assert moved > 0

    def test_no_view_change_no_redistribution(self, volume):
        tiles = tile_decompose(32, 32, 4)
        moved = redistribution_voxels(
            Camera.orbit(10.0, 5.0), Camera.orbit(10.0, 5.0),
            tiles, volume.shape, 32, 32,
        )
        assert moved == 0

    def test_larger_rotation_moves_more_data(self, volume):
        tiles = tile_decompose(32, 32, 4)
        small = redistribution_voxels(
            Camera.orbit(0, 0), Camera.orbit(0, 10),
            tiles, volume.shape, 32, 32,
        )
        large = redistribution_voxels(
            Camera.orbit(0, 0), Camera.orbit(0, 80),
            tiles, volume.shape, 32, 32,
        )
        assert large >= small


class TestLoadBalance:
    def test_offcenter_object_imbalances_tiles(self, tf):
        """A feature near the top of the screen starves bottom tiles."""
        vol = np.zeros((24, 24, 24), dtype=np.float32)
        vol[:, :, 18:23] = 1.0  # high-z layer -> top of screen
        camera = Camera.orbit(0.0, 0.0)
        tiles = tile_decompose(32, 32, 4)
        ratio = work_imbalance(vol, tf, camera, tiles, 32, 32)
        assert ratio > 1.5

    def test_centered_object_balances_better(self, volume, tf):
        camera = Camera.orbit(0.0, 0.0)
        tiles = tile_decompose(32, 32, 2)
        ratio = work_imbalance(volume, tf, camera, tiles, 32, 32)
        assert ratio < 2.0
