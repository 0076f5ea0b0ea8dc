"""2-D textures with bilinear sampling.

A sample reads a 2x2 *footprint* of texels.  Where all four are zero in
every channel the sample is exactly ``0`` and compositing it is the
identity, ``0 + dest * (1 - 0) == dest``, so the rasteriser drops such
pixels (:meth:`Texture2D.sample_occupied`) and the frame is bit for bit
what blending leaves -- except that blending turns a ``-0.0``
destination (a ``-0.0`` background, a negative texel) into ``+0.0``,
which a byte digest can see and ``np.array_equal`` cannot.

Texels are held as RGBA *items*: each texel's four float32 channels
are one 16-byte ``complex128`` element, so one ``take`` fetches a whole
texel.  The lerps run in float32 on ``(N, 4)`` in the form ``a + (b -
a) * f``: a footprint whose four texels agree samples to exactly their
value, and the result is within a few float32 ulps of a float64 lerp.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Texture2D:
    """A premultiplied RGBA float texture with bilinear sampling.

    ``data`` is (H, W, 4) float32 in [0, 1]; the texture keeps one
    float32 copy of it as ``H * W`` RGBA items.  Sampling coordinates
    are (u, v) in [0, 1]^2 with u across columns, v across rows; values
    clamp at the edges (GL_CLAMP_TO_EDGE semantics).
    """

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data)
        if data.ndim != 3 or data.shape[2] != 4:
            raise ValueError(f"texture must be (H, W, 4), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("texture must be at least 1x1")
        self._shape = (data.shape[0], data.shape[1])
        texels = np.array(data, dtype=np.float32, order="C").reshape(-1, 4)
        #: ``(H * W,)`` complex128, item ``y * W + x`` the RGBA of texel
        #: ``[y, x]``
        self._items = texels.view(np.complex128).reshape(-1)
        # The occupancy and the occupied box are filled here, never
        # lazily: the live viewer renders from its own thread.  A
        # texel's four ``!= 0`` flags are read as one int32.
        texel = (texels != 0).view(np.int32).reshape(self._shape) != 0
        row = texel | np.concatenate([texel[:, 1:], texel[:, -1:]], axis=1)
        self._occupancy = row | np.concatenate([row[1:], row[-1:]], axis=0)
        rows = np.flatnonzero(self._occupancy.any(axis=1))
        cols = np.flatnonzero(self._occupancy.any(axis=0))
        self._occupied_box: Optional[Tuple[int, int, int, int]] = (
            (int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1]))
            if rows.size
            else None
        )

    @property
    def shape(self) -> Tuple[int, int]:
        """(H, W) pixel dimensions."""
        return self._shape

    def occupancy(self) -> np.ndarray:
        """(H, W) bool: whether any texel of the footprint whose top-left
        is ``[y0, x0]`` (edge clamps as in :meth:`sample`) is non-zero."""
        return self._occupancy

    def occupied_box(self) -> Optional[Tuple[int, int, int, int]]:
        """``(first_row, last_row, first_col, last_col)`` of the occupied
        footprints (inclusive), or ``None`` when every sample is 0."""
        return self._occupied_box

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bilinear sample at arrays of (u, v); returns (..., 4)."""
        u, v = np.broadcast_arrays(
            np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
        )
        texels = self._bilinear(*self._texel_coords(u.ravel(), v.ravel()))
        return texels.reshape(u.shape + (4,))

    def sample_occupied(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The rasteriser's sample (1-D float64 ``u``, ``v``): drops the
        all-zero footprints before reading a texel; returns the indices
        ``kept`` and their ``(N, 4)`` texels, ``sample(u[kept], v[kept])``."""
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
        """The one interpolation body: ``(N, 4)`` float32 from 1-D
        coordinates, one item gather per footprint corner, lerped in
        float32."""
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
        scale_rows(bot, fy)
        top += bot
        return top

    def _lerp(self, left: np.ndarray, right: np.ndarray, f: np.ndarray) -> np.ndarray:
        """``a + (b - a) * f`` on ``(N, 4)``, ``a`` and ``b`` the texels
        at flat indices ``left`` and ``right``."""
        a = self._texels(left)
        b = self._texels(right)
        b -= a
        scale_rows(b, f)
        b += a
        return b

    def _texels(self, index: np.ndarray) -> np.ndarray:
        """``(N, 4)`` float32: the texels at flat indices ``index``."""
        return self._items.take(index).view(np.float32).reshape(-1, 4)


def scale_rows(rgba: np.ndarray, f: np.ndarray) -> None:
    """``rgba[i] *= f[i]`` on ``(N, 4)`` float32, one strided column at
    a time: broadcasting ``f[:, None]`` runs a length-4 inner loop per
    row, about twice as slow."""
    for channel in range(4):
        rgba[:, channel] *= f
