"""A compact scene graph with a software rasterizer.

Stands in for the OpenRM scene graph the paper's viewer embeds: "a set
of specialized data structures and associated services that provide
management of displayable data and rendering services" (section 3.1).
It supports the primitive classes the paper lists -- textured
quads/meshes for IBRAVR imagery, line sets for AMR grid geometry --
plus cameras. The live viewer's scene-graph access control lives with
its threads, in :mod:`repro.live.sync`.
"""

from repro.scenegraph.node import Group, Node
from repro.scenegraph.geometry import LineSet, QuadMesh, TexturedQuad
from repro.scenegraph.texture import Texture2D
from repro.scenegraph.camera import Camera
from repro.scenegraph.raster import render

__all__ = [
    "Group",
    "Node",
    "LineSet",
    "QuadMesh",
    "TexturedQuad",
    "Texture2D",
    "Camera",
    "render",
]
