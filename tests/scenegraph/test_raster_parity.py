"""Grid rasterizer vs the per-pixel oracle.

The bounding-box grid engine (batched edge functions / barycentrics)
must produce *bitwise* identical framebuffers to the per-pixel
reference walk (``tests/oracles/scalar_kernels.py``) across randomized
textured meshes, line overlays and camera angles.  The oracle replaces
only the per-triangle stage: both engines run behind ``render``'s one
projection and one depth sort.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenegraph import (
    Camera,
    Group,
    LineSet,
    QuadMesh,
    Texture2D,
    TexturedQuad,
    render,
)
from repro.scenegraph import raster
from tests.oracles.scalar_kernels import _raster_triangle_scalar


@pytest.fixture
def render_scalar(monkeypatch):
    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(raster, "_raster_triangle", _raster_triangle_scalar)
            return render(*args, **kwargs)

    return run


def _random_scene(seed: int) -> Group:
    rng = np.random.default_rng(seed)
    root = Group()
    n = int(rng.integers(2, 5))
    gx, gy = np.meshgrid(
        np.linspace(-1.0, 1.0, n + 1),
        np.linspace(-1.0, 1.0, n + 1),
        indexing="ij",
    )
    grid = np.stack([gx, gy, 0.25 * rng.random((n + 1, n + 1))], axis=-1)
    tex = Texture2D(rng.random((16, 16, 4), dtype=np.float32))
    root.add(QuadMesh(grid, tex))
    quad = np.array(
        [[-0.8, -0.8, 0.9], [0.8, -0.8, 0.9], [0.8, 0.8, 0.9],
         [-0.8, 0.8, 0.9]]
    ) + rng.normal(scale=0.1, size=(4, 3))
    root.add(TexturedQuad(quad, Texture2D.solid((0.2, 0.6, 1.0, 0.5))))
    root.add(LineSet(rng.random((5, 2, 3)) * 2.0 - 1.0,
                     color=(1.0, 0.3, 0.1, 0.9)))
    return root


def _random_camera(seed: int) -> Camera:
    rng = np.random.default_rng(1000 + seed)
    pos = rng.normal(size=3)
    pos = tuple(pos / np.linalg.norm(pos) * 2.5)
    return Camera(position=pos, target=(0, 0, 0), up=(0, 1, 0), extent=3.0)


@pytest.mark.parametrize("seed", range(4))
def test_grid_engine_bitwise_matches_oracle(seed, render_scalar):
    scene = _random_scene(seed)
    camera = _random_camera(seed)
    vec = render(scene, camera, 48, 40)
    ref = render_scalar(scene, camera, 48, 40)
    assert vec.any(), "scene rendered to an empty framebuffer"
    assert np.array_equal(vec, ref)


def test_partially_offscreen_scene_matches(render_scalar):
    # Clipped bounding boxes exercise the grid edges.
    root = Group()
    quad = np.array(
        [[-3.0, -0.5, 0.0], [1.0, -0.5, 0.0], [1.0, 3.0, 0.0],
         [-3.0, 3.0, 0.0]]
    )
    root.add(TexturedQuad(quad, Texture2D.solid((1.0, 0.4, 0.0, 0.8))))
    camera = Camera(position=(0, 0, 3), target=(0, 0, 0), up=(0, 1, 0),
                    extent=1.5)
    vec = render(root, camera, 32, 32)
    ref = render_scalar(root, camera, 32, 32)
    assert np.array_equal(vec, ref)
