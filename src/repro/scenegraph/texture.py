"""2-D textures with bilinear sampling.

A sample reads a 2x2 *footprint* of texels.  Where all four are zero in
every channel the sample is exactly ``0`` and compositing it is the
identity, ``0 + dest * (1 - 0) == dest``, so the rasteriser drops such
pixels (:meth:`Texture2D.sample_occupied`) and the frame is bit for bit
what blending leaves -- except that blending turns a ``-0.0``
destination (a ``-0.0`` background, a negative texel) into ``+0.0``,
which a byte digest can see and ``np.array_equal`` cannot.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class Texture2D:
    """A premultiplied RGBA float texture with bilinear sampling.

    ``data`` is (H, W, 4) float32 in [0, 1]. Sampling coordinates are
    (u, v) in [0, 1]^2 with u across columns, v across rows; values
    clamp at the edges (GL_CLAMP_TO_EDGE semantics).  ``data`` is not
    to be written after the first sample: occupancy is computed once.
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError(f"texture must be (H, W, 4), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("texture must be at least 1x1")
        self.data = data
        self._occupancy: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """(H, W) pixel dimensions."""
        return self.data.shape[0], self.data.shape[1]

    @property
    def nbytes_rgba8(self) -> int:
        """Wire size when shipped as 8-bit RGBA."""
        return self.data.shape[0] * self.data.shape[1] * 4

    def occupancy(self) -> np.ndarray:
        """(H, W) bool: whether any texel of the footprint whose top-left
        is ``[y0, x0]`` (edge clamps as in :meth:`sample`) is non-zero."""
        if self._occupancy is None:
            texel = self.data.any(axis=2)
            row = texel | np.concatenate([texel[:, 1:], texel[:, -1:]], axis=1)
            self._occupancy = row | np.concatenate([row[1:], row[-1:]], axis=0)
        return self._occupancy

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bilinear sample at arrays of (u, v); returns (..., 4)."""
        u, v = np.broadcast_arrays(
            np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
        )
        planar = self._bilinear(*self._texel_coords(u.ravel(), v.ravel()))
        return np.ascontiguousarray(planar.T).reshape(u.shape + (4,))

    def sample_occupied(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rasteriser's sample (1-D float64 ``u``, ``v``): drops the
        all-zero footprints before reading a texel; returns the indices
        ``kept`` and their planar texels, ``sample(u[kept], v[kept]).T``."""
        x, y, x0, y0 = self._texel_coords(u, v)
        occupied = self.occupancy().ravel().take(y0 * self.shape[1] + x0)
        kept = np.flatnonzero(occupied)
        x, y, x0, y0 = (a.take(kept) for a in (x, y, x0, y0))
        return kept, self._bilinear(x, y, x0, y0)

    def _texel_coords(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h, w = self.shape
        # Map to continuous pixel coordinates, texel centers at +0.5.
        x = np.clip(u, 0.0, 1.0) * (w - 1)
        y = np.clip(v, 0.0, 1.0) * (h - 1)
        return x, y, np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)

    def _bilinear(
        self, x: np.ndarray, y: np.ndarray, x0: np.ndarray, y0: np.ndarray
    ) -> np.ndarray:
        """The one interpolation body: ``(4, N)`` float32 from 1-D
        coordinates, float64 weights and lerps over the contiguous axis."""
        h, w = self.shape
        fx = x - x0
        fy = y - y0
        gx = 1 - fx
        right = np.minimum(x0 + 1, w - 1) - x0
        i00 = y0 * w + x0
        i10 = i00 + (np.minimum(y0 + 1, h - 1) - y0) * w
        texels = self.data.reshape(-1, 4)
        top = np.empty((4, x.size))
        bot = np.empty_like(top)
        tmp = np.empty_like(top)
        for dst, left in ((top, i00), (bot, i10)):
            # interleaved rows gathered, their transposed product planar
            np.multiply(texels.take(left, axis=0).T, gx, out=dst)
            np.multiply(texels.take(left + right, axis=0).T, fx, out=tmp)
            dst += tmp
        top *= 1 - fy
        bot *= fy
        top += bot
        return top.astype(np.float32)

    @classmethod
    def solid(
        cls, rgba: Sequence[float], shape: Tuple[int, int] = (2, 2)
    ) -> "Texture2D":
        """Uniform single-color texture."""
        data = np.empty(shape + (4,), dtype=np.float32)
        data[...] = np.asarray(rgba, dtype=np.float32)
        return cls(data)
