"""Image-order parallel volume rendering: the contrasted baseline.

Section 3.2: "Image order algorithms, on the other hand, assign some
region of screen space to each processor. The resulting images
produced by each processor do not overlap, so recombination is not
subject to an ordered image composition step. Depending upon the view,
image order algorithms require some amount of data duplication across
the processors, so do not scale as well with data size ... In some
views, there may be some processors with little or no work. In
addition, as the model moves, the source volume data required at a
given processor will change, requiring data redistribution as a
function of model and view orientation."

This module implements that baseline for real -- screen tiles rendered
by orthographic ray casting -- plus the analysis quantities of the
paper's comparison: per-tile data footprints, view-driven
redistribution volume, and load imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.scenegraph.camera import Camera
from repro.volren.raycast import _check_volume, trilinear
from repro.volren.transfer import TransferFunction


@dataclass(frozen=True)
class ScreenTile:
    """One PE's region of screen space: [x0, x1) x [y0, y1) pixels."""

    rank: int
    x0: int
    x1: int
    y0: int
    y1: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("empty tile")

    @property
    def n_pixels(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def tile_decompose(width: int, height: int, n: int) -> List[ScreenTile]:
    """Split the viewport into ``n`` near-equal horizontal bands."""
    if width < 1 or height < 1:
        raise ValueError("viewport must be at least 1x1")
    if n < 1 or n > height:
        raise ValueError(f"cannot cut {height} rows into {n} tiles")
    edges = np.linspace(0, height, n + 1).round().astype(int)
    return [
        ScreenTile(rank=i, x0=0, x1=width, y0=int(edges[i]),
                   y1=int(edges[i + 1]))
        for i in range(n)
    ]


def _tile_ray_geometry(
    camera: Camera, tile: ScreenTile, width: int, height: int
):
    """World-space origins of a tile's pixel rays plus the ray dir."""
    r, u, f = camera.basis()
    aspect = width / height
    half_h = camera.extent / 2.0
    half_w = half_h * aspect
    xs = (np.arange(tile.x0, tile.x1) + 0.5) / width * 2.0 - 1.0
    ys = 1.0 - (np.arange(tile.y0, tile.y1) + 0.5) / height * 2.0
    X, Y = np.meshgrid(xs * half_w, ys * half_h)
    origins = (
        np.asarray(camera.target)[None, None, :]
        + X[..., None] * r
        + Y[..., None] * u
    )
    return origins, f


def render_tile(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    tile: ScreenTile,
    width: int,
    height: int,
    *,
    samples_per_voxel: float = 1.0,
) -> np.ndarray:
    """Ray-cast one screen tile of the full volume.

    Unlike the object-order path there is no compositing order issue:
    each tile owns its pixels outright.
    """
    volume = _check_volume(volume)
    origins, f = _tile_ray_geometry(camera, tile, width, height)
    max_dim = max(volume.shape)
    half_extent = np.sqrt(3.0) / 2.0
    n_samples = max(int(np.sqrt(3.0) * max_dim * samples_per_voxel), 2)
    ts = np.linspace(-half_extent, half_extent, n_samples)
    step_voxels = (ts[1] - ts[0]) * max_dim

    h, w = origins.shape[:2]
    accum = np.zeros((h, w, 4), dtype=np.float32)
    transparency = np.ones((h, w, 1), dtype=np.float32)
    shape = np.asarray(volume.shape, dtype=np.float64)
    vol32 = volume.astype(np.float32)
    for t in ts:
        pos = origins + t * f
        inside = np.all((pos >= 0.0) & (pos <= 1.0), axis=-1)
        if not inside.any():
            continue
        idx = pos * shape[None, None, :] - 0.5
        scalars = trilinear(vol32, idx)
        scalars = np.where(inside, scalars, 0.0)
        rgba = tf(scalars)
        alpha = 1.0 - np.power(
            np.clip(1.0 - rgba[..., 3], 1e-7, 1.0), step_voxels
        )
        a = alpha[..., None].astype(np.float32)
        accum[..., :3] += transparency * rgba[..., :3] * a
        accum[..., 3:] += transparency * a
        transparency *= 1.0 - a
        if float(transparency.max()) < 1e-4:
            break
    return accum


def tile_data_bounds(
    camera: Camera,
    tile: ScreenTile,
    volume_shape: Tuple[int, int, int],
    width: int,
    height: int,
) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Voxel AABB a tile's rays traverse: the PE's data footprint.

    The tile's rays sweep a parallelepiped (the tile rectangle
    extruded along the view direction); its axis-aligned bounding box
    clipped to the volume is the data this PE must hold for this view.
    """
    origins, f = _tile_ray_geometry(camera, tile, width, height)
    corners = np.array(
        [
            origins[0, 0], origins[0, -1], origins[-1, 0], origins[-1, -1],
        ]
    )
    half_extent = np.sqrt(3.0) / 2.0
    swept = np.vstack(
        [corners + half_extent * f, corners - half_extent * f]
    )
    lo_w = np.clip(swept.min(axis=0), 0.0, 1.0)
    hi_w = np.clip(swept.max(axis=0), 0.0, 1.0)
    shape = np.asarray(volume_shape)
    lo = np.floor(lo_w * shape).astype(int)
    hi = np.ceil(hi_w * shape).astype(int)
    hi = np.maximum(hi, lo + 1)
    hi = np.minimum(hi, shape)
    lo = np.minimum(lo, hi - 1)
    return tuple(int(v) for v in lo), tuple(int(v) for v in hi)


def footprint_voxels(bounds) -> int:
    """Voxel count of a data footprint box."""
    lo, hi = bounds
    return int(np.prod([h - l for l, h in zip(lo, hi)]))


def redistribution_voxels(
    old_camera: Camera,
    new_camera: Camera,
    tiles: List[ScreenTile],
    volume_shape: Tuple[int, int, int],
    width: int,
    height: int,
) -> int:
    """Voxels that must move when the view changes.

    For each tile, the new footprint's voxels outside the old
    footprint must be fetched -- "requiring data redistribution as a
    function of model and view orientation". Object-order partitions
    pay zero here, whatever the view does.
    """
    total = 0
    for tile in tiles:
        old_lo, old_hi = tile_data_bounds(
            old_camera, tile, volume_shape, width, height
        )
        new_lo, new_hi = tile_data_bounds(
            new_camera, tile, volume_shape, width, height
        )
        inter_lo = [max(a, b) for a, b in zip(old_lo, new_lo)]
        inter_hi = [min(a, b) for a, b in zip(old_hi, new_hi)]
        inter = int(
            np.prod([max(h - l, 0) for l, h in zip(inter_lo, inter_hi)])
        )
        new_total = footprint_voxels((new_lo, new_hi))
        total += new_total - inter
    return total


def work_imbalance(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    tiles: List[ScreenTile],
    width: int,
    height: int,
) -> float:
    """Max-to-mean ratio of per-tile rendering work.

    Work is estimated as the opacity mass a tile's pixels accumulate:
    empty tiles ("processors with little or no work") pull the mean
    down and the ratio up.
    """
    works = []
    for tile in tiles:
        img = render_tile(
            volume, tf, camera, tile, width, height,
            samples_per_voxel=0.5,
        )
        works.append(float(img[..., 3].sum()) + 1e-9)
    mean = float(np.mean(works))
    return float(np.max(works)) / mean if mean > 0 else 1.0
