"""Tests for IBRAVR: axis selection, slab geometry, compositor, artifacts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import CombustionConfig, combustion_field
from repro.ibravr import (
    AxisChoice,
    IbravrModel,
    artifact_error,
    artifact_sweep,
    best_view_axis,
    off_axis_angle,
    slab_base_quad,
)
from repro.ibravr.slabs import make_slab_quad, slab_quad_mesh
from repro.scenegraph import Camera
from repro.scenegraph.geometry import QuadMesh, TexturedQuad
from repro.volren import TransferFunction, slab_decompose
from repro.volren.renderer import VolumeRenderer
from tests.helpers import solid_texture


def small_volume(shape=(32, 32, 32)):
    return combustion_field(0.0, CombustionConfig(shape=shape))


def renderings_for(vol, n_slabs=4, axis=0, flip=False, with_depth=False):
    subs = slab_decompose(vol.shape, n_slabs, axis=axis)
    r = VolumeRenderer(TransferFunction.fire(), with_depth=with_depth)
    return [
        r.render(s, s.extract(vol), vol.shape, axis=axis, flip=flip)
        for s in subs
    ]


class TestAxis:
    def test_picks_dominant_axis(self):
        assert best_view_axis(np.array([1.0, 0.1, 0.1])).axis == 0
        assert best_view_axis(np.array([0.1, -0.9, 0.1])) == AxisChoice(1, True)
        assert best_view_axis(np.array([0.0, 0.0, 2.0])) == AxisChoice(2, False)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            best_view_axis(np.zeros(3))

    def test_off_axis_angle(self):
        assert off_axis_angle(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(0.0)
        assert off_axis_angle(np.array([1.0, 1.0, 0.0]), 0) == pytest.approx(45.0)
        assert off_axis_angle(np.array([-1.0, 0.0, 0.0]), 0) == pytest.approx(0.0)

    def test_axis_choice_validation(self):
        with pytest.raises(ValueError):
            AxisChoice(axis=5, flip=False)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
        st.floats(min_value=-1, max_value=1),
    )
    def test_best_axis_minimises_off_axis_angle(self, x, y, z):
        d = np.array([x, y, z])
        if np.linalg.norm(d) < 1e-6:
            return
        choice = best_view_axis(d)
        angles = [off_axis_angle(d, a) for a in range(3)]
        assert angles[choice.axis] == pytest.approx(min(angles), abs=1e-9)
        assert angles[choice.axis] <= 54.8  # acos(1/sqrt(3)) bound


class TestSlabGeometry:
    def test_base_quad_is_center_plane(self):
        corners = slab_base_quad((0.25, 0.0, 0.0), (0.5, 1.0, 1.0), axis=0)
        np.testing.assert_allclose(corners[:, 0], 0.375)
        # Covers the full y/z extent.
        assert corners[:, 1].min() == 0.0 and corners[:, 1].max() == 1.0
        assert corners[:, 2].min() == 0.0 and corners[:, 2].max() == 1.0

    def test_base_quad_other_axes(self):
        c1 = slab_base_quad((0, 0.5, 0), (1, 1.0, 1), axis=1)
        np.testing.assert_allclose(c1[:, 1], 0.75)
        c2 = slab_base_quad((0, 0, 0.2), (1, 1, 0.4), axis=2)
        np.testing.assert_allclose(c2[:, 2], 0.3, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            slab_base_quad((0, 0, 0), (1, 1, 1), axis=4)
        with pytest.raises(ValueError):
            slab_base_quad((0.5, 0, 0), (0.5, 1, 1), axis=0)

    def test_make_slab_quad_dispatch(self):
        tex = solid_texture((1, 1, 1, 1))
        plain = make_slab_quad((0, 0, 0), (0.5, 1, 1), 0, tex)
        assert isinstance(plain, TexturedQuad)
        depth = np.random.default_rng(0).random((8, 8))
        meshy = make_slab_quad((0, 0, 0), (0.5, 1, 1), 0, tex, depth_map=depth)
        assert isinstance(meshy, QuadMesh)

    def test_quad_mesh_displacement_bounded_by_thickness(self):
        tex = solid_texture((1, 1, 1, 1))
        depth = np.random.default_rng(1).random((16, 16))
        mesh = slab_quad_mesh((0.0, 0, 0), (0.25, 1, 1), 0, tex, depth)
        # Displaced vertices stay within +-thickness/2 of the plane.
        assert np.abs(mesh.vertices[..., 0] - 0.125).max() <= 0.125 + 1e-9


class TestModel:
    def test_update_and_render(self):
        vol = small_volume()
        model = IbravrModel()
        model.update(renderings_for(vol))
        cam = Camera.orbit(0, 0)
        frame = model.render_frame(cam, 48, 48)
        assert frame.shape == (48, 48, 4)
        assert frame[..., 3].max() > 0.1
        assert model.updates == 1

    def test_texture_bytes_is_squared_payload(self):
        """Viewer payload is O(n^2) per slab vs O(n^3) source."""
        vol = small_volume((32, 32, 32))
        model = IbravrModel()
        model.update(renderings_for(vol, n_slabs=4))
        source_bytes = vol.size * 4
        assert model.texture_bytes == 4 * 32 * 32 * 4
        assert model.texture_bytes < source_bytes / 2

    def test_render_before_update_rejected(self):
        with pytest.raises(RuntimeError):
            IbravrModel().render_frame(Camera.orbit(0, 0))

    def test_empty_update_rejected(self):
        with pytest.raises(ValueError):
            IbravrModel().update([])

    def test_mixed_axes_rejected(self):
        vol = small_volume()
        mixed = renderings_for(vol, 2, axis=0) + renderings_for(vol, 2, axis=1)
        with pytest.raises(ValueError):
            IbravrModel().update(mixed)

    def test_axis_switch_detection(self):
        vol = small_volume()
        model = IbravrModel()
        model.update(renderings_for(vol, axis=0))
        assert {r.axis for r in model._renderings} == {0}
        assert best_view_axis(Camera.orbit(5, 0).forward).axis == 0
        assert best_view_axis(Camera.orbit(80, 0).forward).axis != 0

    def test_overlay_renders_lines(self):
        vol = small_volume()
        model = IbravrModel()
        model.update(renderings_for(vol))
        segs = np.array([[[0.0, 0.5, 0.5], [1.0, 0.5, 0.5]]])
        model.set_overlay(segs)
        frame = model.render_frame(Camera.orbit(20, 10), 48, 48)
        assert frame[..., 3].max() > 0.0

    def test_depth_meshes_used_when_enabled(self):
        vol = small_volume()
        model = IbravrModel(use_depth_meshes=True)
        model.update(renderings_for(vol, with_depth=True))
        kinds = {
            type(n).__name__
            for n, _ in model.root.traverse()
            if type(n).__name__ in ("QuadMesh", "TexturedQuad")
        }
        assert kinds == {"QuadMesh"}


class TestArtifacts:
    @pytest.fixture(scope="class")
    def sharp_volume(self):
        return combustion_field(
            0.0,
            CombustionConfig(shape=(48, 48, 48), n_kernels=4,
                             front_sharpness=10.0),
        )

    def test_error_grows_off_axis(self, sharp_volume):
        tf = TransferFunction.opaque_fire()
        sweep = artifact_sweep(
            sharp_volume, tf, [0.0, 20.0, 40.0], n_slabs=8, image_size=64
        )
        errors = [s.rms_error for s in sweep]
        assert errors[1] > errors[0]
        assert errors[2] > errors[1]

    def test_axis_switching_bounds_error(self, sharp_volume):
        tf = TransferFunction.opaque_fire()
        pinned = artifact_error(
            sharp_volume, tf, 80.0, n_slabs=8, image_size=64
        )
        switched = artifact_error(
            sharp_volume, tf, 80.0, n_slabs=8, image_size=64,
            axis_switching=True,
        )
        assert switched.slab_axis == 1
        assert switched.rms_error < pinned.rms_error

    def test_on_axis_error_small(self, sharp_volume):
        tf = TransferFunction.opaque_fire()
        s = artifact_error(sharp_volume, tf, 0.0, n_slabs=8, image_size=64)
        assert s.rms_error < 0.05
