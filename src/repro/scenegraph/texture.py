"""2-D textures with bilinear sampling.

A sample reads a 2x2 *footprint* of texels.  Where all four are zero in
every channel the sample is exactly ``0`` and compositing it is the
identity, ``0 + dest * (1 - 0) == dest``, so the rasteriser drops such
pixels (:meth:`Texture2D.sample_occupied`) and the frame is bit for bit
what blending leaves -- except that blending turns a ``-0.0``
destination (a ``-0.0`` background, a negative texel) into ``+0.0``,
which a byte digest can see and ``np.array_equal`` cannot.

Texels are held channel-planar, one contiguous float32 row of ``H * W``
per channel, and the lerps run in float32 in the form ``a + (b - a) *
f``: a footprint whose four texels agree samples to exactly their
value, and the result is within a few float32 ulps of a float64 lerp.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Texture2D:
    """A premultiplied RGBA float texture with bilinear sampling.

    ``data`` is (H, W, 4) float32 in [0, 1]; the texture keeps one
    channel-planar ``(4, H * W)`` float32 copy of it.  Sampling
    coordinates are (u, v) in [0, 1]^2 with u across columns, v across
    rows; values clamp at the edges (GL_CLAMP_TO_EDGE semantics).
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError(f"texture must be (H, W, 4), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("texture must be at least 1x1")
        self._shape = (data.shape[0], data.shape[1])
        #: ``(4, H * W)`` float32, row ``c`` the texels of channel ``c``
        self.planes = np.ascontiguousarray(
            data.reshape(-1, 4).T, dtype=np.float32
        )
        self._occupancy: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """(H, W) pixel dimensions."""
        return self._shape

    def occupancy(self) -> np.ndarray:
        """(H, W) bool: whether any texel of the footprint whose top-left
        is ``[y0, x0]`` (edge clamps as in :meth:`sample`) is non-zero."""
        if self._occupancy is None:
            texel = self.planes.any(axis=0).reshape(self._shape)
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
        occupied = self.occupancy().ravel().take(y0 * self._shape[1] + x0)
        kept = np.flatnonzero(occupied)
        x, y, x0, y0 = (a.take(kept) for a in (x, y, x0, y0))
        return kept, self._bilinear(x, y, x0, y0)

    def _texel_coords(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        h, w = self._shape
        # Map to continuous pixel coordinates, texel centers at +0.5.
        x = np.clip(u, 0.0, 1.0) * (w - 1)
        y = np.clip(v, 0.0, 1.0) * (h - 1)
        return x, y, np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)

    def _bilinear(
        self, x: np.ndarray, y: np.ndarray, x0: np.ndarray, y0: np.ndarray
    ) -> np.ndarray:
        """The one interpolation body: ``(4, N)`` float32 from 1-D
        coordinates, gathered per channel and lerped in float32."""
        h, w = self._shape
        fx = (x - x0).astype(np.float32)
        fy = (y - y0).astype(np.float32)
        i00 = y0 * w + x0
        i01 = np.minimum(x0 + 1, w - 1) - x0
        i01 += i00
        below = (np.minimum(y0 + 1, h - 1) - y0) * w
        top = self._lerp(i00, i01, fx)
        i00 += below
        i01 += below
        bot = self._lerp(i00, i01, fx)
        bot -= top
        bot *= fy
        top += bot
        return top

    def _lerp(self, left: np.ndarray, right: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``a + (b - a) * f`` per channel, ``a`` and ``b`` the texels
        at flat indices ``left`` and ``right``."""
        a = self.planes.take(left, axis=1)
        b = self.planes.take(right, axis=1)
        b -= a
        b *= f
        b += a
        return b
