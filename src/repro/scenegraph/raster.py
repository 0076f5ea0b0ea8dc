"""Software rasterizer: textured triangles + lines with alpha blending.

Renders a scene graph through a :class:`~repro.scenegraph.camera.Camera`
into a premultiplied RGBA framebuffer. Semi-transparent textured quads
are depth-sorted and painted back-to-front (exactly how the IBRAVR
viewer composites slab textures on graphics hardware); line sets draw
on top, as the AMR grid overlay does.

After one setup stage (traversal, a single batched projection of every
triangle vertex and line endpoint, the painter's depth sort) each
triangle's edge functions and barycentric interpolation are evaluated
as array ops over its bounding-box pixel grid.  The per-pixel walk this
replaced lives in ``tests/oracles/scalar_kernels.py``; the parity tests
swap it in for :func:`_raster_triangle` behind the same setup stage
and require bitwise-equal framebuffers: both apply the same
float64 edge/barycentric expressions and the same float32 texture/blend
operations per pixel, and each triangle touches a pixel at most once,
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
    if abs(area) < 1e-12:
        return  # degenerate in screen space
    if lo_x >= hi_x or lo_y >= hi_y:
        return
    p0, p1, p2 = proj[:, :2]

    xs = np.arange(lo_x, hi_x) + 0.5
    ys = np.arange(lo_y, hi_y) + 0.5
    PX, PY = np.meshgrid(xs, ys)
    pts = np.stack([PX, PY], axis=-1)

    # Dividing by the *signed* area normalises the barycentrics, so
    # inside is w >= 0 for either winding (quads are visible from both
    # sides, like textures on glass panes).
    w0 = _edge_grid(p1, p2, pts) / area
    w1 = _edge_grid(p2, p0, pts) / area
    w2 = _edge_grid(p0, p1, pts) / area
    inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
    if not inside.any():
        return

    u = w0 * uvs[0, 0] + w1 * uvs[1, 0] + w2 * uvs[2, 0]
    v = w0 * uvs[0, 1] + w1 * uvs[1, 1] + w2 * uvs[2, 1]
    texels = texture.sample(u[inside], v[inside])

    region = frame[lo_y:hi_y, lo_x:hi_x]
    dest = region[inside]
    alpha = texels[:, 3:4]
    region[inside] = texels + dest * (1.0 - alpha)


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
