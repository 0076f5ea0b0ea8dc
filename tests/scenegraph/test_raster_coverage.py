"""Each pixel is blended at most once per primitive layer.

A solid texture of alpha 0.5 over a clear background reads alpha 0.5
wherever it was blended once, and 0.75 where it was blended twice.  So
under any camera every pixel must read exactly 0 or 0.5: a flat
``QuadMesh`` may not blend its cells' diagonals or shared edges twice
(the top-left rule), and a ``TexturedQuad`` may not blend its own
diagonal twice (one coverage grid per quad).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenegraph import Camera, Group, QuadMesh, TexturedQuad, render
from tests.helpers import solid_texture

_HALF = solid_texture((0.5, 0.25, 0.0, 0.5))


def _camera_and_size(seed: int):
    rng = np.random.default_rng(seed)
    # elevation at least 20 degrees off the z = 0.5 plane the geometry
    # lies in, so it is never seen edge-on
    elevation = float(rng.choice([-1.0, 1.0]) * rng.uniform(20, 90))
    camera = Camera.orbit(float(rng.uniform(-180, 180)), elevation)
    return camera, int(rng.integers(16, 64)), int(rng.integers(16, 64))


def _assert_single_coverage(node, seed: int) -> None:
    root = Group()
    root.add(node)
    camera, width, height = _camera_and_size(seed)
    alpha = render(root, camera, width, height)[..., 3]
    assert (alpha == 0.5).any()
    twice = (alpha != 0.0) & (alpha != 0.5)
    assert not twice.any(), f"{int(twice.sum())} pixels blended twice"


@pytest.mark.parametrize("seed", range(20))
def test_flat_quad_mesh_blends_each_pixel_once(seed):
    cells = 1 + seed % 5
    gx, gy = np.meshgrid(np.linspace(0.0, 1.0, cells + 1),
                         np.linspace(0.0, 1.0, cells + 1), indexing="ij")
    flat = np.stack([gx, gy, np.full_like(gx, 0.5)], axis=-1)
    _assert_single_coverage(QuadMesh(flat, _HALF), seed)


@pytest.mark.parametrize("seed", range(20))
def test_textured_quad_blends_each_pixel_once(seed):
    corners = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [1.0, 1.0, 0.5],
                        [0.0, 1.0, 0.5]])
    _assert_single_coverage(TexturedQuad(corners, _HALF), seed)


def test_mesh_from_zero_offsets_blends_each_pixel_once():
    # the quad-mesh extension's own constructor, offsets all zero
    corners = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [1.0, 1.0, 0.5],
                        [0.0, 1.0, 0.5]])
    mesh = QuadMesh.from_offsets(corners, np.zeros((6, 6)),
                                 np.array([0.0, 0.0, 1.0]), _HALF)
    for seed in range(5):
        _assert_single_coverage(mesh, 1000 + seed)
