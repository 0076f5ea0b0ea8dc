"""Slab geometry: base quads and offset quad meshes.

Maps the back end's slab decomposition into the viewer's textured
geometry. Corner ordering matches the texture layout produced by
:func:`repro.volren.raycast.render_slab` (rows/cols over the two
non-view axes), so a texture lands on its quad without flips.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.scenegraph.geometry import QuadMesh, TexturedQuad
from repro.scenegraph.texture import Texture2D

#: image-plane axes for each slab axis (must match raycast._PLANE_AXES)
_PLANE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def slab_base_quad(
    slab_lo: Tuple[float, float, float],
    slab_hi: Tuple[float, float, float],
    axis: int,
) -> np.ndarray:
    """Corners (4, 3) of the quad at the slab's center plane.

    "A single quadrilateral representing the center of the slab is
    used as the base geometry" (section 3.3). Corner i carries texture
    coordinate [(0,0), (1,0), (1,1), (0,1)][i] with u across columns
    (second plane axis) and v across rows (first plane axis).
    """
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    lo = np.asarray(slab_lo, dtype=np.float64)
    hi = np.asarray(slab_hi, dtype=np.float64)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("slab_lo/slab_hi must be 3-vectors")
    if np.any(hi <= lo):
        raise ValueError(f"empty slab lo={slab_lo} hi={slab_hi}")
    center = (lo[axis] + hi[axis]) / 2.0
    rows_ax, cols_ax = _PLANE_AXES[axis]

    def corner(row_val: float, col_val: float) -> np.ndarray:
        p = np.empty(3)
        p[axis] = center
        p[rows_ax] = row_val
        p[cols_ax] = col_val
        return p

    return np.array(
        [
            corner(lo[rows_ax], lo[cols_ax]),  # uv (0, 0)
            corner(lo[rows_ax], hi[cols_ax]),  # uv (1, 0)
            corner(hi[rows_ax], hi[cols_ax]),  # uv (1, 1)
            corner(hi[rows_ax], lo[cols_ax]),  # uv (0, 1)
        ]
    )


#: vertices per side of a depth-extension slab mesh
MESH_RESOLUTION = 16


def slab_quad_mesh(
    slab_lo: Tuple[float, float, float],
    slab_hi: Tuple[float, float, float],
    axis: int,
    texture: Texture2D,
    depth_map: np.ndarray,
    *,
    name: str = "",
) -> QuadMesh:
    """The quad-mesh depth extension: displace the base quad by the
    renderer's opacity-weighted depth map, adding "a depth component to
    each of the IBR images" (section 3.3), on a
    :data:`MESH_RESOLUTION`-square vertex mesh.
    """
    corners = slab_base_quad(slab_lo, slab_hi, axis)
    lo = np.asarray(slab_lo, dtype=np.float64)
    hi = np.asarray(slab_hi, dtype=np.float64)
    thickness = float(hi[axis] - lo[axis])
    normal = np.zeros(3)
    normal[axis] = 1.0
    depth = np.asarray(depth_map, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError("depth_map must be 2-D")
    # Downsample the offset map to the mesh resolution.
    r_idx = np.linspace(0, depth.shape[0] - 1, MESH_RESOLUTION).round().astype(int)
    c_idx = np.linspace(0, depth.shape[1] - 1, MESH_RESOLUTION).round().astype(int)
    offsets = depth[np.ix_(r_idx, c_idx)]
    return QuadMesh.from_offsets(
        corners, offsets, normal, texture, amplitude=thickness, name=name
    )


def make_slab_quad(
    slab_lo: Tuple[float, float, float],
    slab_hi: Tuple[float, float, float],
    axis: int,
    texture: Texture2D,
    *,
    depth_map: Optional[np.ndarray] = None,
    name: str = "",
):
    """Build the geometry node for one slab texture.

    A plain :class:`TexturedQuad` without a depth map, the quad-mesh
    extension with one.
    """
    if depth_map is None:
        return TexturedQuad(slab_base_quad(slab_lo, slab_hi, axis), texture, name)
    return slab_quad_mesh(slab_lo, slab_hi, axis, texture, depth_map, name=name)
