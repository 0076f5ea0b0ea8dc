"""Fixed-size screen tiles: grid, IDs, owners, and a change model.

The Distributed FrameBuffer design (Usher et al., PAPERS.md) replaces
whole per-PE slab images with fixed-size screen tiles: every tile has
a deterministic *owner* rank, per-PE fragments are routed to owners,
and each owner depth-composites only its own tiles. This module is the
pure-geometry core of that design; :class:`repro.backend.tiles.TilePlan`
routes the tiles:

- :class:`TileGrid` -- a row-major grid of ``tile_size`` x ``tile_size``
  tiles over a ``width`` x ``height`` viewport (edge tiles may be
  smaller), with integer tile IDs and deterministic owner assignment;
- ``TILE_HASH_BYTES`` -- the width of the content digest a tile
  reference carries on the wire;
- :func:`tile_changed` -- a deterministic, RNG-free model of which
  tiles change between timesteps, so the simulated back end can
  exercise delta transmission without touching the seeded random
  streams that pin ULM byte parity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Digest width (bytes) of tile content hashes on the wire.
TILE_HASH_BYTES = 16


@dataclass(frozen=True)
class TileGrid:
    """A row-major grid of fixed-size screen tiles.

    Tile IDs run 0..n_tiles-1, left to right then top to bottom.
    Interior tiles are ``tile_size`` x ``tile_size``; tiles on the
    right/bottom edge are clipped to the viewport.
    """

    width: int
    height: int
    tile_size: int = 32

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"viewport must be at least 1x1, got "
                f"{self.width}x{self.height}"
            )
        if self.tile_size < 1:
            raise ValueError(
                f"tile_size must be >= 1, got {self.tile_size}"
            )

    @property
    def tiles_x(self) -> int:
        """Number of tile columns."""
        return -(-self.width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows."""
        return -(-self.height // self.tile_size)

    @property
    def n_tiles(self) -> int:
        """Total tile count."""
        return self.tiles_x * self.tiles_y

    def tile_rect(self, tile_id: int) -> Tuple[int, int, int, int]:
        """Pixel rect ``(x0, y0, x1, y1)`` of a tile, half-open."""
        if not 0 <= tile_id < self.n_tiles:
            raise ValueError(
                f"tile_id {tile_id} out of range [0, {self.n_tiles})"
            )
        ty, tx = divmod(tile_id, self.tiles_x)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        return (
            x0,
            y0,
            min(x0 + self.tile_size, self.width),
            min(y0 + self.tile_size, self.height),
        )

    def tile_shape(self, tile_id: int) -> Tuple[int, int]:
        """``(rows, cols)`` pixel shape of a tile."""
        x0, y0, x1, y1 = self.tile_rect(tile_id)
        return (y1 - y0, x1 - x0)

    def tile_pixels(self, tile_id: int) -> int:
        """Pixel count of a tile."""
        rows, cols = self.tile_shape(tile_id)
        return rows * cols

    def owner_of(self, tile_id: int, n_owners: int) -> int:
        """Deterministic owner rank of a tile (round-robin by ID)."""
        if n_owners < 1:
            raise ValueError(f"n_owners must be >= 1, got {n_owners}")
        if not 0 <= tile_id < self.n_tiles:
            raise ValueError(
                f"tile_id {tile_id} out of range [0, {self.n_tiles})"
            )
        return tile_id % n_owners

    def owned_tiles(self, rank: int, n_owners: int) -> Tuple[int, ...]:
        """All tile IDs owned by ``rank`` under round-robin assignment."""
        if n_owners < 1:
            raise ValueError(f"n_owners must be >= 1, got {n_owners}")
        if not 0 <= rank < n_owners:
            raise ValueError(
                f"rank {rank} out of range [0, {n_owners})"
            )
        return tuple(range(rank, self.n_tiles, n_owners))

    def tiles_in_rect(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> Tuple[int, ...]:
        """Tile IDs overlapping a fractional viewport rect.

        Coordinates are fractions of the viewport in [0, 1]; the rect
        models a viewer frustum so partially-overlapping viewers can
        share tile renders through the cache.
        """
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ValueError(
                f"rect must satisfy 0 <= lo < hi <= 1, got "
                f"({x0}, {y0}, {x1}, {y1})"
            )
        px0 = int(np.floor(x0 * self.width))
        py0 = int(np.floor(y0 * self.height))
        px1 = min(int(np.ceil(x1 * self.width)), self.width)
        py1 = min(int(np.ceil(y1 * self.height)), self.height)
        tx0 = px0 // self.tile_size
        ty0 = py0 // self.tile_size
        tx1 = min((px1 - 1) // self.tile_size, self.tiles_x - 1)
        ty1 = min((py1 - 1) // self.tile_size, self.tiles_y - 1)
        return tuple(
            ty * self.tiles_x + tx
            for ty in range(ty0, ty1 + 1)
            for tx in range(tx0, tx1 + 1)
        )

    def all_tiles(self) -> Tuple[int, ...]:
        """All tile IDs in row-major order."""
        return tuple(range(self.n_tiles))


def _change_draw(dataset: str, frame: int, tile_id: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (frame, tile)."""
    h = hashlib.blake2b(
        f"{dataset}:{frame}:{tile_id}".encode("utf-8"), digest_size=8
    )
    return int.from_bytes(h.digest(), "big") / 2.0**64


def tile_changed(
    dataset: str, frame: int, tile_id: int, change_fraction: float
) -> bool:
    """Whether a tile's content changed going into ``frame``.

    Frame 0 always changes (there is no prior content to reference).
    Later frames change with probability ``change_fraction``, decided
    by a hash of (dataset, frame, tile) -- deterministic and RNG-free,
    so enabling tiles never perturbs the seeded simulation streams.
    """
    if not 0.0 <= change_fraction <= 1.0:
        raise ValueError(
            f"change_fraction must be in [0, 1], got {change_fraction}"
        )
    if frame <= 0:
        return True
    if change_fraction >= 1.0:
        return True
    return _change_draw(dataset, frame, tile_id) < change_fraction

