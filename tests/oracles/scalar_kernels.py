"""Per-pixel / per-sample render kernels: the scalar reference walks.

Until PR 19 these were the ``vectorized=False`` branches of
``repro.volren.raycast.render_slab`` / ``render_view`` and
``repro.scenegraph.raster.render``.  Each performs the same float
operations in the same order as the batched production kernel, one
pixel (or one sample) at a time, so the parity suites
(``tests/volren/test_raycast_parity.py``,
``tests/scenegraph/test_raster_parity.py``) require ``np.array_equal``,
not closeness.

The stages that were never forked -- volume checks and resampling
(``_sample_view``), depth normalisation (``_finish_depth``), primitive
setup (``_bbox``, ``_edge_grid``) -- are imported from production, as
both branches shared them before the move.  The raster walks sample
through ``Texture2D.sample``, so they pin coverage and blending, not the
texture: ``tests/scenegraph/test_texture_sampling.py`` checks that
against a float64 reference.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.scenegraph.raster import _bbox, _edge_grid
from repro.scenegraph.texture import Texture2D
from repro.volren.raycast import (
    _OPACITY_CUTOFF,
    _check_volume,
    _finish_depth,
    _sample_view,
)
from repro.volren.transfer import TransferFunction


def render_slab_scalar(
    volume: np.ndarray,
    tf: TransferFunction,
    *,
    axis: int = 0,
    flip: bool = False,
    return_depth: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``render_slab`` with the per-pixel composite."""
    vol_view = np.moveaxis(_check_volume(volume), axis, 0)
    if flip:
        vol_view = vol_view[::-1]
    return _render_slab_scalar(vol_view, tf, return_depth)


def _render_slab_scalar(
    vol_view: np.ndarray, tf: TransferFunction, return_depth: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-pixel reference composite.

    Same float32 operations in the same order as the production path:
    premultiply, contribution ``(c * a) * T``, running transparency
    ``t *= 1 - a`` per ray.
    """
    n_slices = vol_view.shape[0]
    h, w = vol_view.shape[1:]
    accum = np.zeros((h, w, 4), dtype=np.float32)
    transp = np.ones((h, w), dtype=np.float32)
    depth_num = np.zeros((h, w), dtype=np.float32) if return_depth else None
    depth_den = np.zeros((h, w), dtype=np.float32) if return_depth else None
    one = np.float32(1.0)
    inv_span = 1.0 / max(n_slices - 1, 1)
    for position in range(n_slices):
        rgba = tf(vol_view[position])
        frac = position * inv_span
        for r in range(h):
            for c in range(w):
                a = rgba[r, c, 3]
                t = transp[r, c]
                accum[r, c, :3] += (rgba[r, c, :3] * a) * t
                ca = a * t
                accum[r, c, 3] += ca
                if return_depth:
                    assert depth_num is not None and depth_den is not None
                    depth_num[r, c] += ca * frac
                    depth_den[r, c] += ca
                transp[r, c] = t * (one - a)
    return accum, _finish_depth(depth_num, depth_den, (h, w), return_depth)


def render_view_scalar(
    volume: np.ndarray,
    tf: TransferFunction,
    direction,
    *,
    image_size: int = 128,
    samples_per_voxel: float = 1.0,
    early_exit: bool = True,
) -> np.ndarray:
    """``render_view`` with the per-sample composite loop.

    ``early_exit=False`` composites every sample: the reference that
    shows production's (unconditional) early exit changes no bit when
    the skipped samples contribute exactly zero.
    """
    color, alpha = _sample_view(
        volume, tf, direction, image_size, samples_per_voxel
    )
    return _composite_view_scalar(color, alpha, early_exit)[0]


def _composite_view_scalar(
    color: np.ndarray, alpha: np.ndarray, early_exit: bool
) -> Tuple[np.ndarray, int]:
    """Reference per-sample composite loop."""
    h, w, n_samples = alpha.shape
    accum = np.zeros((h, w, 4), dtype=np.float32)
    transparency = np.ones((h, w, 1), dtype=np.float32)
    visited = n_samples
    for s in range(n_samples):
        a = alpha[:, :, s, None]
        pre = color[:, :, s, :] * a
        accum[..., :3] += transparency * pre
        accum[..., 3:] += transparency * a
        transparency *= 1.0 - a
        if early_exit and float(transparency.max()) < _OPACITY_CUTOFF:
            visited = s + 1
            break
    return accum, visited


def _blend_pixel_scalar(
    frame: np.ndarray, x: int, y: int, u: float, v: float, texture: Texture2D
) -> None:
    texel = texture.sample(np.array([u]), np.array([v]))[0]
    dest = frame[y, x]
    alpha = texel[3:4]
    frame[y, x] = texel + dest * (1.0 - alpha)


def _edge_weight_scalar(a, b, area: float, pt: np.ndarray):
    """``(inside, w)`` of one pixel centre for edge ``a``-``b``: ``E``
    evaluated from the lexicographically smaller endpoint, and a centre
    exactly on the edge kept only if the edge is left or top."""
    if (b[0], b[1]) < (a[0], a[1]):
        a, b, area = b, a, -area
    w = _edge_grid(a, b, pt) / area
    dx, dy = b[0] - a[0], b[1] - a[1]
    owns = -dy * area > 0 or (dy == 0 and dx * area > 0)
    return (w >= 0 if owns else w > 0), w


def _raster_triangle_scalar(
    frame: np.ndarray,
    proj: np.ndarray,
    uvs: np.ndarray,
    texture: Texture2D,
) -> None:
    """Per-pixel reference rasterizer.

    Drop-in for ``repro.scenegraph.raster._raster_triangle``: the parity
    tests ``monkeypatch.setattr`` it there so both engines run behind
    one projection and one depth sort.
    """
    height, width = frame.shape[:2]
    p0, p1, p2 = proj[:, :2]
    area = _edge_grid(p0, p1, p2)
    lo_x, hi_x, lo_y, hi_y = _bbox(proj[:, :2], width, height)
    if abs(area) < 1e-12:
        return
    if lo_x >= hi_x or lo_y >= hi_y:
        return

    for y in range(lo_y, hi_y):
        for x in range(lo_x, hi_x):
            pt = np.array([x + 0.5, y + 0.5])
            in0, w0 = _edge_weight_scalar(p1, p2, area, pt)
            in1, w1 = _edge_weight_scalar(p2, p0, area, pt)
            in2, w2 = _edge_weight_scalar(p0, p1, area, pt)
            if not (in0 and in1 and in2):
                continue
            u = w0 * uvs[0, 0] + w1 * uvs[1, 0] + w2 * uvs[2, 0]
            v = w0 * uvs[0, 1] + w1 * uvs[1, 1] + w2 * uvs[2, 1]
            _blend_pixel_scalar(frame, x, y, u, v, texture)


def _raster_quad_scalar(
    frame: np.ndarray, proj: np.ndarray, texture: Texture2D
) -> None:
    """Per-pixel reference for ``repro.scenegraph.raster._raster_quad``:
    at each pixel centre of the box, ``u`` and ``v`` from the affine map
    on corners 0, 1 and 3, and the pixel blended once if both are in
    ``[0, 1]``."""
    height, width = frame.shape[:2]
    p0, p1, _, p3 = proj[:, :2]
    det = _edge_grid(p0, p1, p3)
    lo_x, hi_x, lo_y, hi_y = _bbox(proj[:, :2], width, height)
    if abs(det) < 1e-12:
        return
    span = abs(det)
    for y in range(lo_y, hi_y):
        for x in range(lo_x, hi_x):
            pt = np.array([x + 0.5, y + 0.5])
            eu = _edge_grid(p0, p3, pt)
            ev = _edge_grid(p0, p1, pt)
            # u = eu / -det and v = ev / det, each in [0, 1]
            if not 0.0 <= (eu if det < 0 else -eu) <= span:
                continue
            if not 0.0 <= (ev if det > 0 else -ev) <= span:
                continue
            _blend_pixel_scalar(frame, x, y, eu / -det, ev / det, texture)
