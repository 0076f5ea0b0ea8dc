"""Scene graph nodes and the point transform the rasterizer applies."""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np


class Node:
    """Base scene graph node: a name, children, and a local transform."""

    def __init__(self, name: str = ""):
        self.name = name
        self.children: List["Node"] = []
        self.visible = True

    def add(self, child: "Node") -> "Node":
        """Append a child; returns the child for chaining."""
        if child is self:
            raise ValueError("a node cannot be its own child")
        self.children.append(child)
        return child

    def remove(self, child: "Node") -> None:
        """Remove a direct child."""
        self.children.remove(child)

    def local_matrix(self) -> np.ndarray:
        """This node's local 4x4 transform (identity by default)."""
        return np.eye(4)

    def traverse(
        self, parent_matrix: Optional[np.ndarray] = None
    ) -> Iterator[tuple]:
        """Depth-first traversal yielding (node, world_matrix) pairs.

        Invisible subtrees are pruned, mirroring scene graph culling.
        """
        if not self.visible:
            return
        matrix = (
            self.local_matrix()
            if parent_matrix is None
            else parent_matrix @ self.local_matrix()
        )
        yield self, matrix
        for child in self.children:
            yield from child.traverse(matrix)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r}, children={len(self.children)})"


class Group(Node):
    """A pure grouping node."""


def transform_points(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 matrix to an (N, 3) array of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {points.shape}")
    homo = np.hstack([points, np.ones((len(points), 1))])
    out = homo @ matrix.T
    w = out[:, 3:4]
    return out[:, :3] / np.where(np.abs(w) < 1e-15, 1.0, w)
