"""Grid rasterizer vs the per-pixel oracle.

The bounding-box grid engine (batched edge functions / barycentrics)
must produce *bitwise* identical framebuffers to the per-pixel
reference walks (``tests/oracles/scalar_kernels.py``) across randomized
textured quads, meshes, line overlays and camera angles.  The oracles
replace only the per-primitive stage: both engines run behind
``render``'s projection and depth sort.
"""

from __future__ import annotations

from typing import Tuple

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from tests.oracles.scalar_kernels import (
    _raster_quad_scalar,
    _raster_triangle_scalar,
)
from tests.helpers import solid_texture


def _patch_oracles(patch) -> None:
    patch.setattr(raster, "_raster_triangle", _raster_triangle_scalar)
    patch.setattr(raster, "_raster_quad", _raster_quad_scalar)


@pytest.fixture
def render_scalar(monkeypatch):
    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            _patch_oracles(patch)
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
    # a random affine image of a square: a parallelogram in general
    # position, as a TexturedQuad must be
    quad = np.array(
        [[-0.8, -0.8, 0.9], [0.8, -0.8, 0.9], [0.8, 0.8, 0.9],
         [-0.8, 0.8, 0.9]]
    ) @ (np.eye(3) + rng.normal(scale=0.1, size=(3, 3))) + rng.normal(
        scale=0.1, size=3
    )
    root.add(TexturedQuad(quad, solid_texture((0.2, 0.6, 1.0, 0.5))))
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
    root.add(TexturedQuad(quad, solid_texture((1.0, 0.4, 0.0, 0.8))))
    camera = Camera(position=(0, 0, 3), target=(0, 0, 0), up=(0, 1, 0),
                    extent=1.5)
    vec = render(root, camera, 32, 32)
    ref = render_scalar(root, camera, 32, 32)
    assert np.array_equal(vec, ref)


# -- sparse textures: the footprint-occupancy skip --------------------------
#
# A pixel whose four-texel footprint is all zero is dropped before any
# texel is read; the oracle samples and blends it.  Equality is held on
# the bytes, not only the values: ``array_equal`` cannot tell -0.0
# from +0.0.

_BACKGROUNDS = [(0.0, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4)]


def _masked_texture(seed: int, shape=(16, 16)) -> np.ndarray:
    """Random texels with a zero block, two zero rows and a zero column."""
    rng = np.random.default_rng(seed)
    data = rng.random(shape + (4,), dtype=np.float32)
    data[4:9, 3:12] = 0.0
    data[12:14] = 0.0
    data[:, 1] = 0.0
    return data


def _sparse_scene(texture: Texture2D, mesh: bool) -> Group:
    """``texture`` in front of a translucent backdrop, so skipped pixels
    lie over a non-empty framebuffer; both overflow a 1.5-extent view."""
    root = Group()
    back = np.array(
        [[-1.2, -1.2, -0.5], [1.2, -1.2, -0.5], [1.2, 1.2, -0.5],
         [-1.2, 1.2, -0.5]]
    )
    root.add(TexturedQuad(back, solid_texture((0.3, 0.2, 0.1, 0.6))))
    if mesh:
        gx, gy = np.meshgrid(
            np.linspace(-1.1, 0.9, 4), np.linspace(-0.9, 1.1, 4), indexing="ij"
        )
        bumps = 0.4 + 0.1 * np.cos(3.0 * gx) * np.sin(2.0 * gy)
        root.add(QuadMesh(np.stack([gx, gy, bumps], axis=-1), texture))
    else:
        front = np.array(
            [[-1.1, -0.9, 0.4], [0.9, -1.0, 0.3], [1.2, 0.8, 0.3],
             [-0.8, 0.9, 0.4]]
        )
        root.add(TexturedQuad(front, texture))
    return root


_SPARSE_CAMERA = Camera(
    position=(0.7, 0.5, 3.0), target=(0, 0, 0), up=(0, 1, 0), extent=1.5
)


def _assert_same_bytes(render_scalar, scene, camera, width, height, background):
    vec = render(scene, camera, width, height, background=background)
    ref = render_scalar(scene, camera, width, height, background=background)
    assert np.array_equal(vec, ref)
    assert vec.tobytes() == ref.tobytes()
    return vec


@pytest.mark.parametrize("background", _BACKGROUNDS)
@pytest.mark.parametrize("mesh", [False, True])
def test_zero_blocks_and_rows_match(mesh, background, render_scalar):
    texture = Texture2D(_masked_texture(11))
    assert not texture.occupancy().all() and texture.occupancy().any()
    scene = _sparse_scene(texture, mesh)
    frame = _assert_same_bytes(
        render_scalar, scene, _SPARSE_CAMERA, 40, 36, background
    )
    assert frame.any()


@pytest.mark.parametrize("background", _BACKGROUNDS)
@pytest.mark.parametrize(
    "texel",
    [(0, 0), (0, 8), (8, 0), (5, 6), (3, 8), (8, 4), (0, 4), (8, 8)],
    ids=lambda t: f"texel{t[0]}-{t[1]}",
)
def test_single_nonzero_texel_matches(texel, background, render_scalar):
    # Corners, edges and interior of a 9x9 texture: every clamp of the
    # footprint (x0 + 1 and y0 + 1 held at size - 1) owns a case.
    data = np.zeros((9, 9, 4), dtype=np.float32)
    data[texel] = (0.9, 0.5, 0.25, 0.75)
    texture = Texture2D(data)
    assert 1 <= texture.occupancy().sum() <= 4
    scene = _sparse_scene(texture, mesh=False)
    _assert_same_bytes(render_scalar, scene, _SPARSE_CAMERA, 36, 36, background)


@pytest.mark.parametrize("background", _BACKGROUNDS)
@pytest.mark.parametrize("mesh", [False, True])
def test_all_zero_texture_leaves_the_framebuffer_alone(
    mesh, background, render_scalar
):
    texture = Texture2D(np.zeros((8, 8, 4), dtype=np.float32))
    assert not texture.occupancy().any()
    scene = _sparse_scene(texture, mesh)
    frame = _assert_same_bytes(
        render_scalar, scene, _SPARSE_CAMERA, 32, 32, background
    )
    backdrop_only = Group()
    backdrop_only.add(scene.children[0])
    alone = render(backdrop_only, _SPARSE_CAMERA, 32, 32, background=background)
    assert frame.tobytes() == alone.tobytes()


@settings(max_examples=12, deadline=None)
@given(
    mask=hnp.arrays(np.bool_, st.tuples(st.integers(1, 6), st.integers(1, 6))),
    seed=st.integers(0, 2**16),
    azimuth=st.floats(-180.0, 180.0),
    elevation=st.floats(-80.0, 80.0),
    width=st.integers(1, 20),
    height=st.integers(1, 20),
    mesh=st.booleans(),
    background=st.sampled_from(_BACKGROUNDS),
)
def test_masked_texture_parity_property(
    mask, seed, azimuth, elevation, width, height, mesh, background
):
    rng = np.random.default_rng(seed)
    data = rng.random(mask.shape + (4,), dtype=np.float32) * mask[..., None]
    scene = _sparse_scene(Texture2D(data), mesh)
    camera = Camera.orbit(azimuth, elevation)
    vec = render(scene, camera, width, height, background=background)
    with pytest.MonkeyPatch.context() as patch:
        _patch_oracles(patch)
        ref = render(scene, camera, width, height, background=background)
    assert vec.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (2, 2), (7, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_occupancy_is_the_brute_force_footprint_test(shape, seed):
    rng = np.random.default_rng(seed)
    h, w = shape
    data = rng.random(shape + (4,), dtype=np.float32)
    data *= rng.random(shape + (1,)) < 0.3
    if seed == 0:
        data[...] = 0.0
        data[h - 1, w - 1, 2] = 0.5  # one channel of the last texel
    occ = Texture2D(data).occupancy()
    assert occ.shape == shape and occ.dtype == np.bool_
    for y0 in range(h):
        for x0 in range(w):
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            footprint = data[[y0, y0, y1, y1], [x0, x1, x0, x1]]
            assert occ[y0, x0] == bool((footprint != 0).any()), (y0, x0)


# -- the occupied-box clip ----------------------------------------------------
#
# A quad draws only the screen image of its texture's occupied box
# (widened by a texel and a pixel).  The cases put that box anywhere:
# a random sub-rectangle, one texel wide along each edge, one texel in
# each corner, and the quad nearly edge-on, where a pixel's (u, v) is
# least certain.

_BOX_KINDS = ["box", "top", "bottom", "left", "right"] + [
    f"corner{r}{c}" for r in (0, 1) for c in (0, 1)
]


@st.composite
def _boxed_texture(draw, kind: str) -> np.ndarray:
    """An (H, W, 4) texture, 2-40 texels a side, zero outside one box."""
    h, w = draw(st.integers(2, 40)), draw(st.integers(2, 40))

    def span(n: int) -> Tuple[int, int]:
        lo = draw(st.integers(0, n - 1))
        return lo, draw(st.integers(lo, n - 1))

    (r0, r1), (c0, c1) = span(h), span(w)
    if kind == "top":
        r0 = r1 = 0
    elif kind == "bottom":
        r0 = r1 = h - 1
    elif kind == "left":
        c0 = c1 = 0
    elif kind == "right":
        c0 = c1 = w - 1
    elif kind.startswith("corner"):
        r0 = r1 = (h - 1) * int(kind[-2])
        c0 = c1 = (w - 1) * int(kind[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = np.zeros((h, w, 4), dtype=np.float32)
    data[r0:r1 + 1, c0:c1 + 1] = rng.uniform(
        0.05, 1.0, (r1 - r0 + 1, c1 - c0 + 1, 4)
    )
    return data


def _edge_on_scene(
    texture: Texture2D, forward: np.ndarray, tilt_deg: float, a: float, b: float
) -> Group:
    """A parallelogram about the orbit target whose plane holds the view
    direction ``forward`` but for ``tilt_deg``, edges at angles ``a``
    and ``b`` in that plane, over a backdrop facing the camera."""
    g = np.cross(forward, (0.3, 0.5, 0.8))
    g /= np.linalg.norm(g)
    across = np.cross(forward, g)
    t = np.deg2rad(tilt_deg)
    e2 = np.cross(across * np.cos(t) + forward * np.sin(t), g)
    d1 = 1.4 * (np.cos(a) * g + np.sin(a) * e2)
    d3 = 1.2 * (np.cos(b) * g + np.sin(b) * e2)
    c0 = np.full(3, 0.5) - (d1 + d3) / 2
    root = Group()
    back = np.full(3, 0.5) + 0.6 * forward
    root.add(TexturedQuad(
        np.array([back - g - across, back + g - across, back + g + across,
                  back - g + across]),
        solid_texture((0.3, 0.2, 0.1, 0.6)),
    ))
    root.add(TexturedQuad(np.array([c0, c0 + d1, c0 + d1 + d3, c0 + d3]),
                          texture))
    return root


@pytest.mark.parametrize("kind", _BOX_KINDS)
@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    azimuth=st.floats(-180.0, 180.0),
    elevation=st.floats(-80.0, 80.0),
    tilt=st.one_of(
        st.just(0.0), st.floats(-1e-11, 1e-11), st.floats(-1e-6, 1e-6),
        st.floats(-8.0, 8.0),
    ),
    angles=st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 3.0)),
    size=st.tuples(st.integers(4, 28), st.integers(4, 28)),
    background=st.sampled_from(_BACKGROUNDS),
)
def test_occupied_box_clip_parity_property(
    kind, data, azimuth, elevation, tilt, angles, size, background
):
    texture = Texture2D(data.draw(_boxed_texture(kind)))
    camera = Camera.orbit(azimuth, elevation)
    a, gap = angles
    scene = _edge_on_scene(texture, camera.forward, tilt, a, a + gap)
    vec = render(scene, camera, *size, background=background)
    with pytest.MonkeyPatch.context() as patch:
        _patch_oracles(patch)
        ref = render(scene, camera, *size, background=background)
    assert vec.tobytes() == ref.tobytes()


def test_occupied_window_is_the_screen_for_an_ill_conditioned_quad():
    def window(d3):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 0.0] + d3, d3])
        det = raster._edge_grid(pts[0], pts[1], pts[3])
        return raster._occupied_window(pts, det, (0, 0, 0, 0), (9, 9), 64, 48)

    # edges 100 pixels long, 1e-13 rad apart: a pixel's (u, v) is not
    # good to a pixel, so nothing may be clipped
    assert window(100.0 * np.array([np.cos(1e-13), np.sin(1e-13)])) == (
        0, 64, 0, 48
    )
    # footprints 0 and 1 of 9 (u, v up to 2 / 8), a pixel either side
    assert window(np.array([0.0, 100.0])) == (-1, 27, -1, 27)
