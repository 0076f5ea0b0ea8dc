"""Slab domain decomposition (Figure 4).

The Visapult back end partitions the source volume across PEs. The
IBRAVR pipeline requires the *slab* decomposition: one image per slab
becomes one viewer texture. Figure 4's shaft and block alternatives
are not modelled; ablation A2 compares slabs against the image-order
tiles of :mod:`repro.volren.imageorder` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class SubVolume:
    """A PE's share of the domain: inclusive-lo/exclusive-hi voxel box."""

    rank: int
    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty subvolume lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def n_voxels(self) -> int:
        s = self.shape
        return s[0] * s[1] * s[2]

    def extract(self, volume: np.ndarray) -> np.ndarray:
        """Slice this subvolume out of the full array."""
        if tuple(volume.shape) < self.hi:
            raise ValueError(
                f"volume shape {volume.shape} smaller than box hi {self.hi}"
            )
        sl = tuple(slice(l, h) for l, h in zip(self.lo, self.hi))
        return volume[sl]

    def center(self, shape: Tuple[int, int, int]) -> Tuple[float, float, float]:
        """Subvolume center in normalised [0, 1]^3 world coordinates."""
        return tuple(
            (l + h) / 2.0 / s for l, h, s in zip(self.lo, self.hi, shape)
        )


def _axis_splits(extent: int, n: int) -> List[Tuple[int, int]]:
    """Split ``extent`` cells into ``n`` near-equal contiguous ranges."""
    edges = np.linspace(0, extent, n + 1).round().astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(n)]


def slab_decompose(
    shape: Tuple[int, int, int], n: int, *, axis: int = 0
) -> List[SubVolume]:
    """Slabs perpendicular to ``axis``: the IBRAVR partitioning."""
    _validate(shape, n)
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if n > shape[axis]:
        raise ValueError(
            f"cannot cut {shape[axis]} cells into {n} slabs along axis {axis}"
        )
    out = []
    for rank, (lo_a, hi_a) in enumerate(_axis_splits(shape[axis], n)):
        lo = [0, 0, 0]
        hi = list(shape)
        lo[axis], hi[axis] = lo_a, hi_a
        out.append(SubVolume(rank, tuple(lo), tuple(hi)))
    return out


def _validate(shape: Tuple[int, int, int], n: int) -> None:
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ValueError(f"bad shape {shape}")
    if n < 1:
        raise ValueError(f"need at least one part, got {n}")
