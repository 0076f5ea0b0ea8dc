"""One coverage grid per textured quad vs the per-pixel affine walk.

``raster._raster_quad`` tests the affine ``(u, v)`` of a whole bounding
box at once; ``_raster_quad_scalar`` (``tests/oracles``) walks the same
box one pixel centre at a time.  Framebuffers must agree byte for byte
over random parallelograms and cameras, on screen, partly off it and
seen from behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenegraph import Camera, Group, Texture2D, TexturedQuad, render
from repro.scenegraph import raster
from tests.oracles.scalar_kernels import _raster_quad_scalar

_BACKGROUNDS = [(0.0, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4)]


def _random_quad(rng: np.random.Generator, spread: float) -> np.ndarray:
    """An affine image of the unit square: corner 2 closes it exactly
    as ``corner 1 + corner 3 - corner 0``."""
    origin = rng.normal(scale=spread, size=3)
    edge_u, edge_v = rng.normal(size=(2, 3))
    return np.array([origin, origin + edge_u, origin + edge_u + edge_v,
                     origin + edge_v])


def _scene(seed: int, spread: float) -> Group:
    rng = np.random.default_rng(seed)
    root = Group()
    for _ in range(3):
        data = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9)), 4),
                          dtype=np.float32)
        data *= rng.random(data.shape[:2] + (1,)) < 0.7
        root.add(TexturedQuad(_random_quad(rng, spread), Texture2D(data)))
    return root


def _both(scene, camera, width, height, background):
    vec = render(scene, camera, width, height, background=background)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raster, "_raster_quad", _raster_quad_scalar)
        ref = render(scene, camera, width, height, background=background)
    return vec, ref


@pytest.mark.parametrize("background", _BACKGROUNDS)
@pytest.mark.parametrize("seed", range(6))
def test_quad_grid_bytewise_matches_affine_walk(seed, background):
    rng = np.random.default_rng(100 + seed)
    camera = Camera.orbit(float(rng.uniform(-180, 180)),
                          float(rng.uniform(-80, 80)), target=(0, 0, 0))
    vec, ref = _both(_scene(seed, 0.3), camera, 40, 33, background)
    assert (vec != np.asarray(background, np.float32)).any()
    assert vec.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_partly_offscreen_quads_match(seed):
    # Quads up to a few view extents from the centre: bounding boxes are
    # clipped on every side, and some quads miss the viewport entirely.
    rng = np.random.default_rng(200 + seed)
    camera = Camera.orbit(float(rng.uniform(-180, 180)),
                          float(rng.uniform(-80, 80)), target=(0, 0, 0),
                          extent=1.0)
    vec, ref = _both(_scene(seed, 1.5), camera, 24, 30, (0.0, 0.0, 0.0, 0.0))
    assert vec.tobytes() == ref.tobytes()


def test_viewer_facing_and_back_facing_windings_match():
    square = np.array([[-0.6, -0.4, 0.0], [0.5, -0.4, 0.0], [0.5, 0.7, 0.0],
                       [-0.6, 0.7, 0.0]])
    data = np.random.default_rng(7).random((5, 6, 4), dtype=np.float32)
    for corners in (square, square[::-1]):
        root = Group()
        root.add(TexturedQuad(corners, Texture2D(data)))
        for z in (3.0, -3.0):
            camera = Camera(position=(0.1, 0.2, z), target=(0, 0, 0),
                            up=(0, 1, 0), extent=2.0)
            vec, ref = _both(root, camera, 20, 20, (0.0, 0.0, 0.0, 0.0))
            assert vec.any()
            assert vec.tobytes() == ref.tobytes()
