"""A compact scene graph with a software rasterizer.

Stands in for the OpenRM scene graph the paper's viewer embeds: "a set
of specialized data structures and associated services that provide
management of displayable data and rendering services" (section 3.1).
It supports the primitive classes the paper lists -- textured
quads/meshes for IBRAVR imagery, line sets for AMR grid geometry --
plus cameras and semaphore-protected asynchronous updates (one render
thread, many I/O threads).
"""

from repro.scenegraph.node import Group, Node
from repro.scenegraph.geometry import LineSet, QuadMesh, TexturedQuad
from repro.scenegraph.texture import Texture2D
from repro.scenegraph.camera import Camera
from repro.scenegraph.raster import render
from repro.scenegraph.locks import SceneLock

__all__ = [
    "Group",
    "Node",
    "LineSet",
    "QuadMesh",
    "TexturedQuad",
    "Texture2D",
    "Camera",
    "render",
    "SceneLock",
]
