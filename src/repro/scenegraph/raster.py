"""Software rasterizer: textured quads, meshes and lines with alpha blending.

Renders a scene graph through a :class:`~repro.scenegraph.camera.Camera`
into a premultiplied RGBA framebuffer. Semi-transparent textured quads
are depth-sorted and painted back-to-front (exactly how the IBRAVR
viewer composites slab textures on graphics hardware); line sets draw
on top, as the AMR grid overlay does.

One setup stage comes first: traversal, one projection call for the
distinct vertices of every node (a vertex that mesh cells share is one
screen point), and the painter's sort of every primitive by its mean
view depth.  Then each primitive is rasterised over its clipped
bounding box, where an edge function is a column ``(b0 - a0) * (ys -
a1)`` minus a row ``(b1 - a1) * (xs - a0)``: :func:`_edge_rows_cols`'s
one subtraction per pixel.

- A :class:`TexturedQuad` is one primitive.  The camera is
  orthographic, so the quad projects to a parallelogram and ``(u, v)``
  are affine in screen space: ``u = E(p0, p3) / -det`` and ``v = E(p0,
  p1) / det`` with ``det = E(p0, p1)`` at ``p3``.  A pixel is inside
  when both lie in ``[0, 1]``, tested on the numerators against
  ``|det|`` (division is monotonic, so the quotients then do too).
- A :class:`QuadMesh` cell is two triangles.  Inside is ``E / area >=
  0`` on all three edges, except that a pixel centre exactly on an edge
  belongs to one side only (the top-left rule, :func:`_edge_weight`):
  the two triangles along a shared edge evaluate it identically, so
  every pixel of a flat mesh is blended once.

Only inside pixels get a float64 ``(u, v)``, and of those only the ones
whose bilinear footprint has a non-zero texel are sampled -- the rest
sample to exactly ``0`` and ``0 + dest * (1 - 0)`` is ``dest``
(:mod:`repro.scenegraph.texture` has the one caveat, a ``-0.0``
destination).  A quad first narrows its box to the screen image of the
texture's occupied box, so the pixels that could only sample an empty
footprint are never computed.  Texels arrive as ``(N, 4)`` RGBA, and the
float32 blend (:func:`_blend`, shared by both primitives) gathers and
scatters frame pixels as 16-byte items through flat frame indices.

The per-pixel walks this replaced live in
``tests/oracles/scalar_kernels.py``; the parity tests swap them in for
:func:`_raster_quad` and :func:`_raster_triangle` behind the same setup
stage and require byte-equal framebuffers: both apply the same float64
edge / coverage and float32 texture / blend operations per pixel (the
oracle blends the empty footprints too), and each primitive touches a
pixel at most once, so within-primitive ordering cannot matter.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

from repro.scenegraph.camera import Camera
from repro.scenegraph.geometry import LineSet, QuadMesh, TexturedQuad
from repro.scenegraph.node import Node, transform_points
from repro.scenegraph.texture import Texture2D, scale_rows


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
    _as_items(frame)[...] = _as_items(np.asarray(background, dtype=np.float32))

    # each drawable with the index of its first vertex
    nodes: List[Tuple[Union[TexturedQuad, QuadMesh], int]] = []
    worlds: List[np.ndarray] = []
    lines: List[Tuple[np.ndarray, np.ndarray]] = []
    n_vertices = 0
    for node, matrix in scene.traverse():
        if isinstance(node, (TexturedQuad, QuadMesh)):
            verts = (
                node.corners
                if isinstance(node, TexturedQuad)
                else node.vertices.reshape(-1, 3)
            )
            nodes.append((node, n_vertices))
            worlds.append(transform_points(matrix, verts))
            n_vertices += len(verts)
        elif isinstance(node, LineSet) and node.n_segments:
            pts = node.segments.reshape(-1, 3)
            world = transform_points(matrix, pts).reshape(-1, 2, 3)
            lines.append((world, node.color))

    if nodes:
        # One projection call for every distinct vertex: the test
        # oracles must see identical screen coordinates (batched
        # matvecs are not guaranteed bit-stable across batch sizes), and
        # the triangles around a mesh vertex must share its one point.
        projs = camera.project(np.concatenate(worlds), width, height)
        depths: List[float] = []
        draws: list = []
        for node, first in nodes:
            if isinstance(node, TexturedQuad):
                proj = projs[first:first + 4]
                depths.append(proj[:, 2].mean())
                draws.append((_raster_quad, (proj, node.texture)))
                continue
            for indices, uvs in node.triangles():
                proj = projs[indices + first]
                depths.append(proj[:, 2].mean())
                draws.append((_raster_triangle, (proj, uvs, node.texture)))
        # Painter's algorithm: farthest first so nearer ones blend over.
        for i in np.argsort(-np.asarray(depths), kind="stable"):
            kernel, args = draws[i]
            kernel(frame, *args)

    for world_segments, color in lines:
        endpoints = camera.project(
            world_segments.reshape(-1, 3), width, height
        )[:, :2].reshape(-1, 2, 2)
        _raster_lines(frame, endpoints, color)

    return frame


def _bbox(
    pts: np.ndarray, width: int, height: int
) -> Tuple[int, int, int, int]:
    """Clipped integer bounding box ``lo_x, hi_x, lo_y, hi_y`` of screen
    points ``(N, 2)``."""
    lo_x = max(int(np.floor(pts[:, 0].min())), 0)
    hi_x = min(int(np.ceil(pts[:, 0].max())) + 1, width)
    lo_y = max(int(np.floor(pts[:, 1].min())), 0)
    hi_y = min(int(np.ceil(pts[:, 1].max())) + 1, height)
    return lo_x, hi_x, lo_y, hi_y


def _pixel_centres(
    lo_x: int, hi_x: int, lo_y: int, hi_y: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row ``xs`` and column ``ys`` of the box's pixel centres."""
    return np.arange(lo_x, hi_x) + 0.5, (np.arange(lo_y, hi_y) + 0.5)[:, None]


def _raster_quad(frame: np.ndarray, proj: np.ndarray, texture: Texture2D) -> None:
    height, width = frame.shape[:2]
    p0, p1, _, p3 = proj[:, :2]
    det = _edge_grid(p0, p1, p3)
    box = texture.occupied_box()
    if abs(det) < 1e-12 or box is None:
        return  # degenerate in screen space, or nothing to draw
    lo_x, hi_x, lo_y, hi_y = _bbox(proj[:, :2], width, height)
    occ_lo_x, occ_hi_x, occ_lo_y, occ_hi_y = _occupied_window(
        proj[:, :2], det, box, texture.shape, width, height
    )
    lo_x, hi_x = max(lo_x, occ_lo_x), min(hi_x, occ_hi_x)
    lo_y, hi_y = max(lo_y, occ_lo_y), min(hi_y, occ_hi_y)
    if lo_x >= hi_x or lo_y >= hi_y:
        return  # wholly off screen
    xs, ys = _pixel_centres(lo_x, hi_x, lo_y, hi_y)
    eu = _edge_rows_cols(p0, p3, xs, ys)  # u = eu / -det
    ev = _edge_rows_cols(p0, p1, xs, ys)  # v = ev / det
    span = abs(det)
    u_lo, u_hi = (0.0, span) if det < 0 else (-span, 0.0)
    v_lo, v_hi = (-span, 0.0) if det < 0 else (0.0, span)
    inside = (eu >= u_lo) & (eu <= u_hi)
    inside &= ev >= v_lo
    inside &= ev <= v_hi
    inside = np.flatnonzero(inside)
    u = eu.ravel().take(inside)
    u /= -det
    v = ev.ravel().take(inside)
    v /= det
    _blend(frame, inside, lo_x, hi_x, lo_y, u, v, texture)


def _occupied_window(
    pts: np.ndarray,
    det: float,
    box: Tuple[int, int, int, int],
    shape: Tuple[int, int],
    width: int,
    height: int,
) -> Tuple[int, int, int, int]:
    """The pixel box outside which the quad on screen corners ``pts``,
    ``p0 + u * d1 + v * d3``, can only sample empty footprints of a
    texture of ``shape``: the screen image of the occupied ``box``,
    widened by one texel in ``(u, v)`` and one pixel on screen.

    A pixel's float ``(u, v)`` is off by about ``eps * reach * |d1| *
    |d3| / |det|`` pixels on screen; where that could approach a pixel
    (a quad seen nearly edge-on along its skew), the window is the
    whole screen.
    """
    p0 = pts[0]
    d1, d3 = pts[1] - p0, pts[3] - p0
    len1, len3 = float(np.hypot(*d1)), float(np.hypot(*d3))
    reach = float(np.abs(p0).max()) + width + height + len1 + len3
    if abs(det) * 2.0**40 < len1 * len3 * reach:
        return 0, width, 0, height
    u_lo, u_hi = _texel_span(box[2], box[3], shape[1])
    v_lo, v_hi = _texel_span(box[0], box[1], shape[0])
    corners = p0 + np.outer([u_lo, u_hi, u_lo, u_hi], d1)
    corners += np.outer([v_lo, v_lo, v_hi, v_hi], d3)
    lo_x, hi_x, lo_y, hi_y = _bbox(corners, width, height)
    return lo_x - 1, hi_x + 1, lo_y - 1, hi_y + 1


def _texel_span(first: int, last: int, size: int) -> Tuple[float, float]:
    """The texture coordinates, clipped to ``[0, 1]``, whose footprints
    start at texels ``first`` .. ``last`` of ``size``, widened by one
    texel each way."""
    if size == 1:
        return 0.0, 1.0
    return max((first - 1) / (size - 1), 0.0), min((last + 2) / (size - 1), 1.0)


def _raster_triangle(
    frame: np.ndarray,
    proj: np.ndarray,
    uvs: np.ndarray,
    texture: Texture2D,
) -> None:
    height, width = frame.shape[:2]
    area = _edge_grid(*proj[:, :2])
    lo_x, hi_x, lo_y, hi_y = _bbox(proj[:, :2], width, height)
    if abs(area) < 1e-12 or lo_x >= hi_x or lo_y >= hi_y:
        return  # degenerate in screen space, or wholly off it
    xs, ys = _pixel_centres(lo_x, hi_x, lo_y, hi_y)
    inside, u, v = _inside_uv(proj[:, :2], area, uvs, xs, ys)
    _blend(frame, inside, lo_x, hi_x, lo_y, u, v, texture)


def _blend(
    frame: np.ndarray,
    inside: np.ndarray,
    lo_x: int,
    hi_x: int,
    lo_y: int,
    u: np.ndarray,
    v: np.ndarray,
    texture: Texture2D,
) -> None:
    """Sample ``texture`` at the covered pixels -- flat indices
    ``inside`` into the box from ``(lo_y, lo_x)``, ``hi_x - lo_x`` wide
    -- and blend the samples over the frame."""
    kept, texels = texture.sample_occupied(u, v)
    if not kept.size:
        return  # nothing inside, or every footprint empty
    # box index ``at = r * box_width + c`` is frame pixel ``at + r *
    # (width - box_width) + lo_y * width + lo_x``: one division, no divmod
    at = inside.take(kept)
    pixel = at // (hi_x - lo_x)
    pixel *= frame.shape[1] - (hi_x - lo_x)
    pixel += at
    pixel += lo_y * frame.shape[1] + lo_x
    # gathered and scattered as one 16-byte item per pixel: a bit copy,
    # and far cheaper than moving (N, 4) rows through a fancy index
    items = _as_items(frame)
    out = items.take(pixel).view(np.float32).reshape(-1, 4)
    scale_rows(out, 1.0 - texels[:, 3])
    out += texels
    items[pixel] = _as_items(out)


def _as_items(rgba: np.ndarray) -> np.ndarray:
    """A C-contiguous float32 array of RGBA (last axis 4) as one
    16-byte item per pixel."""
    return rgba.view(np.complex128).reshape(-1)


def _inside_uv(
    pts: np.ndarray, area: float, uvs: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``ys`` x ``xs`` grid indices of the inside pixels and their
    float64 (u, v); returning releases the full-box grids."""
    p0, p1, p2 = pts
    # Dividing by the *signed* area normalises the barycentrics: inside
    # is w >= 0 for either winding (quads show from both sides).
    in0, w0 = _edge_weight(p1, p2, area, xs, ys)
    in1, w1 = _edge_weight(p2, p0, area, xs, ys)
    in2, w2 = _edge_weight(p0, p1, area, xs, ys)
    in0 &= in1
    in0 &= in2
    inside = np.flatnonzero(in0)
    w0, w1, w2 = (w.ravel().take(inside) for w in (w0, w1, w2))
    u = w0 * uvs[0, 0] + w1 * uvs[1, 0] + w2 * uvs[2, 0]
    v = w0 * uvs[0, 1] + w1 * uvs[1, 1] + w2 * uvs[2, 1]
    return inside, u, v


def _edge_weight(
    a: np.ndarray, b: np.ndarray, area: float, xs: np.ndarray, ys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Which grid pixels lie on the inside of edge ``a``-``b``, and the
    barycentric weight ``w = E(a, b) / area`` over the grid.

    Both triangles along an edge evaluate ``E`` from its
    lexicographically smaller endpoint (the other one negates ``area``,
    exactly), so their weights are zero at the same pixels.  Such a
    pixel belongs to the triangle for which the edge is *left* (``w``
    rises with x) or *top* (horizontal, ``w`` rises with y, which points
    down the screen): for the other triangle ``w`` falls that way.
    """
    if (b[0], b[1]) < (a[0], a[1]):
        a, b, area = b, a, -area
    w = _edge_rows_cols(a, b, xs, ys)
    w /= area
    dx, dy = b[0] - a[0], b[1] - a[1]
    owns = -dy * area > 0 or (dy == 0 and dx * area > 0)
    return (w >= 0) if owns else (w > 0), w


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
