"""Adaptive mesh refinement hierarchy and grid geometry.

The combustion simulations the paper renders are AMR codes; Visapult
overlays "vector geometry (line segments) representing the adaptive
grid created and used by the combustion simulation" on the volume
rendering (Figure 3). This module derives a nested box hierarchy from
any scalar field (refining where the field gradient is strong, i.e. at
the flame front) and emits the wireframe line segments the viewer
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class AMRBox:
    """One refined region: a level and an axis-aligned voxel box.

    ``lo``/``hi`` are inclusive/exclusive voxel bounds in level-0
    (coarse) index space, so boxes at all levels share a coordinate
    system and can be drawn together.
    """

    level: int
    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))


def _gradient_magnitude(field: np.ndarray) -> np.ndarray:
    gx, gy, gz = np.gradient(field.astype(np.float64))
    return np.sqrt(gx * gx + gy * gy + gz * gz)


def refine_boxes(
    field: np.ndarray,
    threshold: float,
    *,
    block: int = 8,
) -> List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]]:
    """Find blocks whose max gradient exceeds ``threshold``.

    The field is tiled into ``block``-sized chunks; chunks above the
    threshold become candidate refinement boxes (merged greedily along
    the x axis to keep the count reasonable, which mirrors how real
    AMR codes coalesce tagged cells into patches).
    """
    if field.ndim != 3:
        raise ValueError(f"field must be 3-D, got ndim={field.ndim}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    grad = _gradient_magnitude(field)
    nx, ny, nz = field.shape
    tagged = []
    for ix in range(0, nx, block):
        for iy in range(0, ny, block):
            for iz in range(0, nz, block):
                chunk = grad[ix : ix + block, iy : iy + block, iz : iz + block]
                if chunk.max() > threshold:
                    tagged.append(
                        (
                            (ix, iy, iz),
                            (
                                min(ix + block, nx),
                                min(iy + block, ny),
                                min(iz + block, nz),
                            ),
                        )
                    )
    # Merge boxes adjacent along x with identical y/z extents; sort so
    # x-adjacent boxes with the same y/z are consecutive.
    merged: List[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = []
    for box in sorted(tagged, key=lambda b: (b[0][1], b[0][2], b[0][0])):
        if merged:
            (plo, phi) = merged[-1]
            (lo, hi) = box
            if (
                plo[1:] == lo[1:]
                and phi[1:] == hi[1:]
                and phi[0] == lo[0]
            ):
                merged[-1] = (plo, (hi[0], phi[1], phi[2]))
                continue
        merged.append(box)
    return merged


def build_amr_hierarchy(
    field: np.ndarray,
    *,
    max_level: int = 2,
) -> List[AMRBox]:
    """Build a nested AMR hierarchy over ``field``.

    Level 0 is the whole domain; each deeper level tags blocks whose
    gradient magnitude exceeds a progressively higher threshold
    (normalised to the field's maximum gradient), producing the nested
    patch structure real AMR combustion codes emit. The deepest level
    tags at half the maximum gradient, each level above at half the
    threshold below it, in blocks of 8 halved per level (at least 2).
    """
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    grad_max = float(_gradient_magnitude(field).max())
    boxes = [AMRBox(0, (0, 0, 0), tuple(field.shape))]
    if grad_max == 0.0:
        return boxes
    for level in range(1, max_level + 1):
        thr = grad_max * 0.5 * (2.0 ** (level - 1) / 2.0**max_level)
        level_block = max(8 // (2 ** (level - 1)), 2)
        for lo, hi in refine_boxes(field, thr, block=level_block):
            boxes.append(AMRBox(level, lo, hi))
    return boxes


def grid_line_segments(
    boxes: Sequence[AMRBox], shape: Tuple[int, int, int]
) -> np.ndarray:
    """Wireframe edges for a set of AMR boxes.

    Returns an (n_segments, 2, 3) float32 array of world coordinates in
    [0, 1]^3 -- the "vector geometry (line segments) representing the
    adaptive grid" the viewer renders alongside the volume.
    """
    if not boxes:
        return np.zeros((0, 2, 3), dtype=np.float32)
    scale = np.asarray(shape, dtype=np.float64)
    segments = []
    # The 12 edges of a box, as index pairs into the 8 corners.
    edges = [
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
        (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
    ]
    for box in boxes:
        lo = np.asarray(box.lo, dtype=np.float64) / scale
        hi = np.asarray(box.hi, dtype=np.float64) / scale
        corners = np.array(
            [
                [lo[0], lo[1], lo[2]],
                [hi[0], lo[1], lo[2]],
                [lo[0], hi[1], lo[2]],
                [hi[0], hi[1], lo[2]],
                [lo[0], lo[1], hi[2]],
                [hi[0], lo[1], hi[2]],
                [lo[0], hi[1], hi[2]],
                [hi[0], hi[1], hi[2]],
            ]
        )
        for a, b in edges:
            segments.append([corners[a], corners[b]])
    return np.asarray(segments, dtype=np.float32)
