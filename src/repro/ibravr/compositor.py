"""Viewer-side IBRAVR model: slab textures -> scene graph -> frames.

This is the "object database" of Figure 1 as Visapult builds it: the
amount of data held here is O(n^2) per slab versus the O(n^3) source
volume (footnote 5), which is what lets a desktop viewer stay
interactive.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ibravr.slabs import make_slab_quad
from repro.scenegraph.camera import Camera
from repro.scenegraph.geometry import LineSet
from repro.scenegraph.node import Group
from repro.scenegraph.raster import render as raster_render
from repro.scenegraph.texture import Texture2D
from repro.volren.renderer import SlabRendering

#: RGBA of the AMR grid overlay lines (Figure 3)
OVERLAY_COLOR = (0.4, 1.0, 0.4, 0.9)


class IbravrModel:
    """Holds the current set of slab renderings and composes frames.

    ``use_depth_meshes`` enables the quad-mesh extension when the
    renderings carry depth maps. An optional line-set overlay renders
    AMR grid geometry on top (Figure 3).
    """

    def __init__(self, *, use_depth_meshes: bool = False):
        self.use_depth_meshes = use_depth_meshes
        self.root = Group("ibravr-root")
        self._slab_group = Group("slabs")
        self._overlay_group = Group("overlay")
        self.root.add(self._slab_group)
        self.root.add(self._overlay_group)
        self._renderings: List[SlabRendering] = []
        self.updates = 0

    @property
    def texture_bytes(self) -> int:
        """Total wire size of textures held (the O(n^2) payload)."""
        return sum(r.texture_bytes for r in self._renderings)

    def update(self, renderings: Sequence[SlabRendering]) -> None:
        """Replace slab textures with a new timestep's renderings."""
        renderings = list(renderings)
        if not renderings:
            raise ValueError("need at least one slab rendering")
        axes = {r.axis for r in renderings}
        if len(axes) != 1:
            raise ValueError(f"mixed slab axes in one update: {axes}")
        self._renderings = sorted(renderings, key=lambda r: r.rank)
        self._slab_group.children = []
        for r in self._renderings:
            texture = Texture2D(r.image)
            depth = r.depth if self.use_depth_meshes else None
            node = make_slab_quad(
                r.slab_lo,
                r.slab_hi,
                r.axis,
                texture,
                depth_map=depth,
                name=f"slab-{r.rank}",
            )
            self._slab_group.add(node)
        self.updates += 1

    def set_overlay(self, segments: np.ndarray) -> None:
        """Install AMR grid line geometry over the volume rendering."""
        self._overlay_group.children = []
        if len(segments):
            self._overlay_group.add(
                LineSet(segments, OVERLAY_COLOR, name="amr-grid")
            )

    def render_frame(
        self, camera: Camera, width: int = 256, height: int = 256
    ) -> np.ndarray:
        """Compose the current textures into a frame (premultiplied RGBA)."""
        if not self._renderings:
            raise RuntimeError("no slab renderings received yet")
        return raster_render(self.root, camera, width, height)

