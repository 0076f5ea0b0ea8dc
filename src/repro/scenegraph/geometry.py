"""Drawable leaf nodes: textured quads, quad meshes, line sets."""

from __future__ import annotations

import numpy as np

from repro.scenegraph.node import Node
from repro.scenegraph.texture import Texture2D


class TexturedQuad(Node):
    """A parallelogram carrying a 2-D texture.

    ``corners`` is (4, 3): the vertices in order around the boundary,
    with texture coordinates ``[(0,0), (1,0), (1,1), (0,1)][i]`` at
    corner i, so ``(u, v)`` is affine over the quad: corner 0 plus ``u``
    times the edge to corner 1 plus ``v`` times the edge to corner 3.
    Corner 2 must close the parallelogram (corner 0 + corner 2 = corner
    1 + corner 3); anything else is refused, since no affine map
    carries that texture onto it.  This is the base IBRAVR primitive:
    "a single quadrilateral representing the center of the slab is
    used as the base geometry" (section 3.3), a rectangle.
    """

    def __init__(
        self, corners: np.ndarray, texture: Texture2D, name: str = ""
    ):
        super().__init__(name)
        corners = np.asarray(corners, dtype=np.float64)
        if corners.shape != (4, 3):
            raise ValueError(f"corners must be (4, 3), got {corners.shape}")
        skew = np.abs(corners[0] + corners[2] - corners[1] - corners[3]).max()
        if skew > 1e-9 * max(1.0, np.abs(corners).max()):
            raise ValueError(
                "corners must form a parallelogram (corner 0 + corner 2 == "
                f"corner 1 + corner 3), off by {skew:.3g}"
            )
        self.corners = corners
        self.texture = texture


class QuadMesh(Node):
    """A regular grid of vertices with one texture: the IBRAVR
    quad-mesh depth extension ("replace the single quadrilateral with a
    quadrilateral mesh using offsets from the base plane for each point
    in the quad mesh", section 3.3).

    ``vertices`` is (R, C, 3); texture coordinates are uniform over
    the grid.
    """

    def __init__(self, vertices: np.ndarray, texture: Texture2D, name: str = ""):
        super().__init__(name)
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 3 or vertices.shape[2] != 3:
            raise ValueError(f"vertices must be (R, C, 3), got {vertices.shape}")
        if vertices.shape[0] < 2 or vertices.shape[1] < 2:
            raise ValueError("quad mesh needs at least 2x2 vertices")
        self.vertices = vertices
        self.texture = texture

    def triangles(self):
        """The mesh as (vertex indices, uv) triangles, two per cell;
        indices are into ``vertices.reshape(-1, 3)``, so a vertex that
        cells share is one point however many triangles use it."""
        rows, cols = self.vertices.shape[:2]
        us = np.linspace(0.0, 1.0, cols)
        vs = np.linspace(0.0, 1.0, rows)
        out = []
        for r in range(rows - 1):
            for c in range(cols - 1):
                i00 = r * cols + c
                i01, i10, i11 = i00 + 1, i00 + cols, i00 + cols + 1
                uv00 = (us[c], vs[r])
                uv01 = (us[c + 1], vs[r])
                uv10 = (us[c], vs[r + 1])
                uv11 = (us[c + 1], vs[r + 1])
                out.append(
                    (np.array([i00, i01, i11]), np.array([uv00, uv01, uv11]))
                )
                out.append(
                    (np.array([i00, i11, i10]), np.array([uv00, uv11, uv10]))
                )
        return out

    @classmethod
    def from_offsets(
        cls,
        base_corners: np.ndarray,
        offsets: np.ndarray,
        normal: np.ndarray,
        texture: Texture2D,
        *,
        amplitude: float = 0.1,
        name: str = "",
    ) -> "QuadMesh":
        """Build a mesh by displacing a base quad along its normal.

        ``offsets`` is an (R, C) map in [0, 1] (e.g. the renderer's
        opacity-weighted depth); ``amplitude`` scales world
        displacement. This realises the paper's elevation/offset-map
        extension.
        """
        base_corners = np.asarray(base_corners, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        if base_corners.shape != (4, 3):
            raise ValueError("base_corners must be (4, 3)")
        if offsets.ndim != 2:
            raise ValueError("offsets must be 2-D")
        normal = np.asarray(normal, dtype=np.float64)
        norm = np.linalg.norm(normal)
        if norm == 0:
            raise ValueError("normal must be non-zero")
        normal = normal / norm
        rows, cols = offsets.shape
        # Bilinear interpolation of the base quad's surface.
        s = np.linspace(0.0, 1.0, cols)[None, :, None]
        t = np.linspace(0.0, 1.0, rows)[:, None, None]
        c0, c1, c2, c3 = base_corners
        surface = (
            (1 - s) * (1 - t) * c0
            + s * (1 - t) * c1
            + s * t * c2
            + (1 - s) * t * c3
        )
        displaced = surface + (offsets[..., None] - 0.5) * amplitude * normal
        return cls(displaced, texture, name=name)


class LineSet(Node):
    """Colored line segments: the AMR grid overlay geometry.

    ``segments`` is (N, 2, 3); one RGBA color for the whole set.
    """

    def __init__(
        self,
        segments: np.ndarray,
        color=(1.0, 1.0, 1.0, 1.0),
        name: str = "",
    ):
        super().__init__(name)
        segments = np.asarray(segments, dtype=np.float64)
        if segments.ndim != 3 or segments.shape[1:] != (2, 3):
            raise ValueError(f"segments must be (N, 2, 3), got {segments.shape}")
        color = np.asarray(color, dtype=np.float32)
        if color.shape != (4,):
            raise ValueError("color must be RGBA")
        self.segments = segments
        self.color = color

    @property
    def n_segments(self) -> int:
        return len(self.segments)
