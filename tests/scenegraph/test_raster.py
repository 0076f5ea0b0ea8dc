"""Tests for the software rasterizer."""

import numpy as np
import pytest

from repro.scenegraph import (
    Camera,
    Group,
    LineSet,
    Texture2D,
    TexturedQuad,
    render,
)
from tests.helpers import solid_texture


def unit_quad_xy(z=0.5):
    """A quad spanning [0,1]^2 at height z, facing +z."""
    return np.array(
        [[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], dtype=float
    )


def front_camera():
    return Camera(position=(0.5, 0.5, 3.0), target=(0.5, 0.5, 0.5),
                  up=(0, 1, 0), extent=1.2)


def test_solid_quad_fills_center():
    root = Group()
    root.add(TexturedQuad(unit_quad_xy(), solid_texture((1, 0, 0, 1))))
    img = render(root, front_camera(), 64, 64)
    assert img[32, 32, 0] == pytest.approx(1.0)
    assert img[32, 32, 3] == pytest.approx(1.0)
    # Corners of the viewport (outside the quad) stay background.
    assert img[0, 0, 3] == 0.0


def test_backfacing_quad_still_drawn():
    """IBRAVR textures must be visible from both sides."""
    cam = Camera(position=(0.5, 0.5, -2.0), target=(0.5, 0.5, 0.5),
                 up=(0, 1, 0), extent=1.2)
    root = Group()
    root.add(TexturedQuad(unit_quad_xy(), solid_texture((0, 1, 0, 1))))
    img = render(root, cam, 32, 32)
    assert img[16, 16, 1] == pytest.approx(1.0)


def test_depth_sorted_alpha_blending():
    root = Group()
    # Far quad green, near quad half-transparent red.
    root.add(TexturedQuad(unit_quad_xy(0.0), solid_texture((0, 1, 0, 1))))
    red = np.zeros((2, 2, 4), np.float32)
    red[...] = [0.5, 0, 0, 0.5]  # premultiplied half red
    root.add(TexturedQuad(unit_quad_xy(1.0), Texture2D(red)))
    img = render(root, front_camera(), 32, 32)
    center = img[16, 16]
    np.testing.assert_allclose(center, [0.5, 0.5, 0.0, 1.0], atol=0.02)


def test_insertion_order_irrelevant():
    def build(order):
        root = Group()
        quads = {
            "far": TexturedQuad(unit_quad_xy(0.0), solid_texture((0, 1, 0, 1))),
            "near": TexturedQuad(
                unit_quad_xy(1.0),
                Texture2D(np.full((2, 2, 4), 0.4, np.float32)),
            ),
        }
        for key in order:
            root.add(quads[key])
        return render(root, front_camera(), 24, 24)

    np.testing.assert_allclose(
        build(["far", "near"]), build(["near", "far"]), atol=1e-6
    )


def test_texture_orientation_on_screen():
    """Texture v=0 row maps to the first corner edge."""
    data = np.zeros((2, 2, 4), np.float32)
    data[0, :] = [1, 0, 0, 1]  # v=0 row red
    data[1, :] = [0, 0, 1, 1]  # v=1 row blue
    root = Group()
    root.add(TexturedQuad(unit_quad_xy(), Texture2D(data)))
    img = render(root, front_camera(), 64, 64)
    # Corner 0 is world (0,0): bottom-left on screen (y up) -> image
    # row near the bottom. v=0 at corner 0 -> red at the bottom.
    bottom = img[52, 32]
    top = img[12, 32]
    assert bottom[0] > bottom[2]  # red dominates at v=0 side
    assert top[2] > top[0]        # blue dominates at v=1 side


def test_lines_drawn_over_quads():
    root = Group()
    root.add(TexturedQuad(unit_quad_xy(0.0), solid_texture((0, 0, 1, 1))))
    segs = np.array([[[0.0, 0.5, 1.0], [1.0, 0.5, 1.0]]])
    root.add(LineSet(segs, (1, 1, 0, 1)))
    img = render(root, front_camera(), 64, 64)
    # Some pixel along the horizontal midline is line-colored.
    midrow = img[31:34, :, :]
    assert (midrow[..., 0] > 0.9).any()


def test_empty_scene_is_background():
    img = render(Group(), front_camera(), 16, 16,
                 background=(0.2, 0.3, 0.4, 1.0))
    np.testing.assert_allclose(img[5, 5], [0.2, 0.3, 0.4, 1.0])


def test_degenerate_quad_ignored():
    root = Group()
    corners = np.zeros((4, 3))  # all corners identical
    root.add(TexturedQuad(corners, solid_texture((1, 0, 0, 1))))
    img = render(root, front_camera(), 16, 16)
    assert np.allclose(img, 0.0)


def test_offscreen_geometry_ignored():
    root = Group()
    far_away = unit_quad_xy() + np.array([100.0, 100.0, 0.0])
    root.add(TexturedQuad(far_away, solid_texture((1, 0, 0, 1))))
    img = render(root, front_camera(), 16, 16)
    assert np.allclose(img, 0.0)


def test_viewport_validation():
    with pytest.raises(ValueError):
        render(Group(), front_camera(), 0, 16)


def test_edge_on_quad_invisible():
    """A quad seen exactly edge-on projects to (almost) nothing."""
    cam = Camera(position=(3.0, 0.5, 0.5), target=(0.5, 0.5, 0.5),
                 up=(0, 0, 1), extent=1.2)
    root = Group()
    root.add(TexturedQuad(unit_quad_xy(0.5), solid_texture((1, 0, 0, 1))))
    img = render(root, cam, 32, 32)
    assert img[..., 3].sum() < 32 * 2  # at most a sliver
