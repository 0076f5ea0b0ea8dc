"""Tests for slab rendering and the ground-truth ray caster."""

import numpy as np
import pytest

from repro.volren import TransferFunction, render_slab, render_view, slab_decompose
from repro.volren.compositing import composite_stack
from repro.volren.raycast import view_direction
from repro.volren.renderer import RenderCostModel, SlabRendering, VolumeRenderer


def box_volume(shape=(16, 16, 16), value=1.0):
    vol = np.zeros(shape, dtype=np.float32)
    vol[4:12, 4:12, 4:12] = value
    return vol


class TestRenderSlab:
    def test_output_shape_per_axis(self):
        vol = np.zeros((8, 10, 12), dtype=np.float32)
        tf = TransferFunction.grayscale()
        img0, _ = render_slab(vol, tf, axis=0)
        img1, _ = render_slab(vol, tf, axis=1)
        img2, _ = render_slab(vol, tf, axis=2)
        assert img0.shape == (10, 12, 4)
        assert img1.shape == (8, 12, 4)
        assert img2.shape == (8, 10, 4)

    def test_empty_volume_is_transparent(self):
        vol = np.zeros((8, 8, 8), dtype=np.float32)
        img, _ = render_slab(vol, TransferFunction.grayscale())
        assert np.allclose(img, 0.0)

    def test_dense_volume_is_opaque_inside(self):
        vol = np.ones((16, 8, 8), dtype=np.float32)
        tf = TransferFunction([(0, 0, 0, 0, 0), (1, 1, 1, 1, 0.9)])
        img, _ = render_slab(vol, tf)
        # 16 slices at alpha .9 saturate: final alpha ~ 1.
        assert img[..., 3].min() > 0.99

    def test_occlusion_depends_on_flip(self):
        """A red layer in front of a green layer swaps with flip."""
        vol = np.zeros((2, 4, 4), dtype=np.float32)
        vol[0] = 0.3  # maps to one color
        vol[1] = 0.9  # maps to another
        tf = TransferFunction(
            [
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (0.3, 1.0, 0.0, 0.0, 1.0),  # opaque red at 0.3
                (0.9, 0.0, 1.0, 0.0, 1.0),  # opaque green at 0.9
            ]
        )
        front_first, _ = render_slab(vol, tf, axis=0, flip=False)
        back_first, _ = render_slab(vol, tf, axis=0, flip=True)
        # Unflipped: slice 0 (red) is in front.
        assert front_first[0, 0, 0] == pytest.approx(1.0, abs=1e-5)
        assert front_first[0, 0, 1] == pytest.approx(0.0, abs=1e-5)
        # Flipped: slice 1 (green) is in front.
        assert back_first[0, 0, 1] == pytest.approx(1.0, abs=1e-5)
        assert back_first[0, 0, 0] == pytest.approx(0.0, abs=1e-5)

    def test_depth_map_locates_structure(self):
        vol = np.zeros((10, 4, 4), dtype=np.float32)
        vol[8] = 1.0  # structure near the far end
        tf = TransferFunction.grayscale()
        _, depth = render_slab(vol, tf, axis=0, return_depth=True)
        assert depth is not None
        assert depth[0, 0] == pytest.approx(8 / 9, abs=1e-6)

    def test_depth_none_when_not_requested(self):
        vol = np.zeros((4, 4, 4), dtype=np.float32)
        _, depth = render_slab(vol, TransferFunction.grayscale())
        assert depth is None

    def test_slab_stack_equals_full_composite(self):
        """Compositing per-slab images equals rendering the whole
        volume: the core identity behind IBRAVR image assembly."""
        vol = box_volume((16, 8, 8), 0.8)
        tf = TransferFunction.fire()
        full, _ = render_slab(vol, tf, axis=0)
        subs = slab_decompose(vol.shape, 4, axis=0)
        parts = [render_slab(s.extract(vol), tf, axis=0)[0] for s in subs]
        stacked = composite_stack(parts, front_to_back=True)
        np.testing.assert_allclose(stacked, full, atol=1e-5)

    def test_validation(self):
        tf = TransferFunction.grayscale()
        with pytest.raises(ValueError):
            render_slab(np.zeros((4, 4)), tf)
        with pytest.raises(ValueError):
            render_slab(np.zeros((4, 4, 4)), tf, axis=5)


class TestRenderView:
    def test_axis_aligned_matches_slab_render_roughly(self):
        vol = box_volume()
        tf = TransferFunction.grayscale()
        view = render_view(
            vol, tf, np.array([1.0, 0.0, 0.0]), image_size=32
        )
        assert view.shape == (32, 32, 4)
        assert view[..., 3].max() > 0.3  # the box is visible

    def test_empty_volume_transparent(self):
        vol = np.zeros((8, 8, 8), dtype=np.float32)
        view = render_view(vol, TransferFunction.grayscale(),
                           np.array([1.0, 0.5, 0.2]), image_size=16)
        assert np.allclose(view, 0.0, atol=1e-6)

    def test_rotation_changes_image(self):
        vol = box_volume()
        vol[4:12, 4:6, 4:12] = 0.3  # asymmetric feature
        tf = TransferFunction.fire()
        a = render_view(vol, tf, view_direction(0, 0), image_size=24)
        b = render_view(vol, tf, view_direction(40, 10), image_size=24)
        assert not np.allclose(a, b, atol=1e-3)

    def test_validation(self):
        vol = np.zeros((4, 4, 4), dtype=np.float32)
        tf = TransferFunction.grayscale()
        with pytest.raises(ValueError):
            render_view(vol, tf, np.zeros(3))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                render_view(vol, tf, [bad, 0.0, 0.0])
        with pytest.raises(ValueError):
            render_view(vol, tf, np.ones(3), image_size=1)
        with pytest.raises(ValueError):
            render_view(vol, tf, np.ones(3), samples_per_voxel=0)

    def test_view_direction_unit(self):
        d = view_direction(33.0, 21.0)
        assert np.linalg.norm(d) == pytest.approx(1.0)


class TestRendererFacade:
    def test_render_produces_slab_rendering(self):
        vol = box_volume()
        subs = slab_decompose(vol.shape, 4)
        r = VolumeRenderer(TransferFunction.fire(), with_depth=True)
        out = r.render(subs[1], subs[1].extract(vol), vol.shape)
        assert isinstance(out, SlabRendering)
        assert out.rank == 1
        assert out.image.shape == (16, 16, 4)
        assert out.depth is not None
        assert out.slab_lo[0] == pytest.approx(0.25)
        assert out.slab_hi[0] == pytest.approx(0.5)
        assert out.texture_bytes == 16 * 16 * 4

    def test_shape_mismatch_rejected(self):
        vol = box_volume()
        subs = slab_decompose(vol.shape, 4)
        r = VolumeRenderer()
        with pytest.raises(ValueError):
            r.render(subs[0], vol, vol.shape)


class TestCostModel:
    def test_linear_in_voxels(self):
        model = RenderCostModel(voxels_per_second=1e6, per_frame_overhead=0.0)
        assert model.cpu_seconds(2e6) == pytest.approx(2.0)

    def test_overhead_added(self):
        model = RenderCostModel(voxels_per_second=1e6, per_frame_overhead=0.5)
        assert model.cpu_seconds(0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RenderCostModel(voxels_per_second=0)
        with pytest.raises(ValueError):
            RenderCostModel(per_frame_overhead=-1)
        with pytest.raises(ValueError):
            RenderCostModel().cpu_seconds(-1)
