"""Software rasterizer: textured triangles + lines with alpha blending.

Renders a scene graph through a :class:`~repro.scenegraph.camera.Camera`
into a premultiplied RGBA framebuffer. Semi-transparent textured quads
are depth-sorted and painted back-to-front (exactly how the IBRAVR
viewer composites slab textures on graphics hardware); line sets draw
on top, as the AMR grid overlay does.

After one setup stage (traversal, a single batched projection of every
triangle vertex and line endpoint, the painter's depth sort) each
triangle is rasterised over its clipped bounding box.  An edge function
over the box is a column ``(b0 - a0) * (ys - a1)`` minus a row
``(b1 - a1) * (xs - a0)``: :func:`_edge_grid`'s two products and one
subtraction per pixel.  Inside is ``E / area >= 0`` on all three edges
over the whole box; only inside pixels get a float64 ``(u, v)``, and of
those only the ones whose bilinear footprint has a non-zero texel are
sampled -- the rest sample to exactly ``0`` and ``0 + dest * (1 - 0)``
is ``dest`` (:mod:`repro.scenegraph.texture` has the one caveat, a
``-0.0`` destination).  Texels arrive channel-planar ``(4, N)``, so the
float32 blend runs over the long axis, through flat frame indices.

The per-pixel walk this replaced lives in
``tests/oracles/scalar_kernels.py``; the parity tests swap it in for
:func:`_raster_triangle` behind the same setup stage and require
byte-equal framebuffers: both apply the same float64 edge/barycentric
and float32 texture/blend operations per pixel (the oracle blends the
empty footprints too), and each triangle touches a pixel at most once,
so within-triangle ordering cannot matter.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.scenegraph.camera import Camera
from repro.scenegraph.geometry import LineSet, QuadMesh, TexturedQuad
from repro.scenegraph.node import Node, transform_points
from repro.scenegraph.texture import Texture2D


def render(
    scene: Node,
    camera: Camera,
    width: int = 256,
    height: int = 256,
    *,
    background=(0.0, 0.0, 0.0, 0.0),
) -> np.ndarray:
    """Rasterize ``scene`` into an (H, W, 4) premultiplied RGBA image."""
    if width < 1 or height < 1:
        raise ValueError("viewport must be at least 1x1")
    frame = np.empty((height, width, 4), dtype=np.float32)
    frame[...] = np.asarray(background, dtype=np.float32)

    worlds: List[np.ndarray] = []
    uv_list: List[np.ndarray] = []
    textures: List[Texture2D] = []
    lines: List[Tuple[np.ndarray, np.ndarray]] = []

    for node, matrix in scene.traverse():
        if isinstance(node, (TexturedQuad, QuadMesh)):
            for verts, uvs in node.triangles():
                worlds.append(transform_points(matrix, verts))
                uv_list.append(uvs)
                textures.append(node.texture)
        elif isinstance(node, LineSet) and node.n_segments:
            pts = node.segments.reshape(-1, 3)
            world = transform_points(matrix, pts).reshape(-1, 2, 3)
            lines.append((world, node.color))

    if worlds:
        # One projection call for every vertex: the test oracle must
        # see identical screen coordinates (batched matvecs are not
        # guaranteed bit-stable across batch sizes, so per-triangle
        # calls could not serve as a shared reference).
        flat = np.concatenate(worlds, axis=0)
        projs = camera.project(flat, width, height).reshape(-1, 3, 3)
        depths = camera.view_depth(flat).reshape(-1, 3).mean(axis=1)
        # Painter's algorithm: farthest first so nearer quads blend over.
        order = np.argsort(-depths, kind="stable")
        for i in order:
            _raster_triangle(frame, projs[i], uv_list[i], textures[i])

    for world_segments, color in lines:
        endpoints = camera.project(
            world_segments.reshape(-1, 3), width, height
        )[:, :2].reshape(-1, 2, 2)
        _raster_lines(frame, endpoints, color)

    return frame


def _triangle_bbox(
    proj: np.ndarray, width: int, height: int
) -> Tuple[float, int, int, int, int]:
    """Signed area and clipped integer bounding box of one triangle."""
    p0, p1, p2 = proj[:, :2]
    area = _edge_grid(p0, p1, p2)
    lo_x = max(int(np.floor(min(p0[0], p1[0], p2[0]))), 0)
    hi_x = min(int(np.ceil(max(p0[0], p1[0], p2[0]))) + 1, width)
    lo_y = max(int(np.floor(min(p0[1], p1[1], p2[1]))), 0)
    hi_y = min(int(np.ceil(max(p0[1], p1[1], p2[1]))) + 1, height)
    return area, lo_x, hi_x, lo_y, hi_y


def _raster_triangle(
    frame: np.ndarray,
    proj: np.ndarray,
    uvs: np.ndarray,
    texture: Texture2D,
) -> None:
    height, width = frame.shape[:2]
    area, lo_x, hi_x, lo_y, hi_y = _triangle_bbox(proj, width, height)
    if abs(area) < 1e-12 or lo_x >= hi_x or lo_y >= hi_y:
        return  # degenerate in screen space, or wholly off it
    xs = np.arange(lo_x, hi_x) + 0.5
    ys = (np.arange(lo_y, hi_y) + 0.5)[:, None]
    inside, u, v = _inside_uv(proj[:, :2], area, uvs, xs, ys)
    kept, texels = texture.sample_occupied(u, v)
    if not kept.size:
        return  # nothing inside, or every footprint empty
    # Flat frame index of each kept pixel of the bounding box.
    rows, cols = np.divmod(inside.take(kept), hi_x - lo_x)
    pixel = (rows + lo_y) * width + (cols + lo_x)
    pixels = frame.reshape(-1, 4)
    out = np.empty_like(texels)
    np.multiply(pixels.take(pixel, axis=0).T, 1.0 - texels[3], out=out)
    out += texels
    pixels[pixel] = out.T


def _inside_uv(
    pts: np.ndarray, area: float, uvs: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``ys`` x ``xs`` grid indices of the inside pixels and their
    float64 (u, v); returning releases the full-box grids."""
    p0, p1, p2 = pts
    # Dividing by the *signed* area normalises the barycentrics: inside
    # is w >= 0 for either winding (quads show from both sides).
    w0 = _edge_rows_cols(p1, p2, xs, ys)
    w0 /= area
    w1 = _edge_rows_cols(p2, p0, xs, ys)
    w1 /= area
    w2 = _edge_rows_cols(p0, p1, xs, ys)
    w2 /= area
    inside = np.flatnonzero((w0 >= 0) & (w1 >= 0) & (w2 >= 0))
    w0, w1, w2 = (w.ravel().take(inside) for w in (w0, w1, w2))
    u = w0 * uvs[0, 0] + w1 * uvs[1, 0] + w2 * uvs[2, 0]
    v = w0 * uvs[0, 1] + w1 * uvs[1, 1] + w2 * uvs[2, 1]
    return inside, u, v


def _raster_lines(
    frame: np.ndarray,
    endpoints: np.ndarray,
    color: np.ndarray,
) -> None:
    height, width = frame.shape[:2]
    pre = color.astype(np.float32).copy()
    pre[:3] *= pre[3]
    for pa, pb in endpoints:
        length = float(np.hypot(*(pb - pa)))
        n = max(int(np.ceil(length)) * 2, 2)
        ts = np.linspace(0.0, 1.0, n)
        xs = np.round(pa[0] + (pb[0] - pa[0]) * ts).astype(int)
        ys = np.round(pa[1] + (pb[1] - pa[1]) * ts).astype(int)
        ok = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        if not ok.any():
            continue
        # Deduplicate pixels so alpha doesn't double-accumulate.
        flat = np.unique(ys[ok].astype(np.int64) * width + xs[ok])
        yy = flat // width
        xx = flat % width
        dest = frame[yy, xx]
        frame[yy, xx] = pre + dest * (1.0 - pre[3])


def _edge_grid(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return (b[0] - a[0]) * (pts[..., 1] - a[1]) - (b[1] - a[1]) * (
        pts[..., 0] - a[0]
    )


def _edge_rows_cols(
    a: np.ndarray, b: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """:func:`_edge_grid` over the grid of column ``ys`` x row ``xs``."""
    return (b[0] - a[0]) * (ys - a[1]) - (b[1] - a[1]) * (xs - a[0])
