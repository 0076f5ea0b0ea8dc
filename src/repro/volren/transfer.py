"""Transfer functions mapping scalar values to color and opacity."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class TransferFunction:
    """Piecewise-linear RGBA transfer function on normalised scalars.

    Control points are ``(value, r, g, b, alpha)`` with ``value`` in
    [0, 1] and channels in [0, 1]; lookups interpolate linearly and
    clamp outside the range.
    """

    def __init__(self, points: Sequence[Tuple[float, float, float, float, float]]):
        pts = sorted(points, key=lambda p: p[0])
        if len(pts) < 2:
            raise ValueError("need at least two control points")
        arr = np.asarray(pts, dtype=np.float64)
        if arr.shape[1] != 5:
            raise ValueError("control points must be (value, r, g, b, a)")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("all control-point components must be in [0, 1]")
        self._values = arr[:, 0]
        self._rgba = arr[:, 1:]
        if len(np.unique(self._values)) != len(self._values):
            raise ValueError("control-point values must be distinct")

    def __call__(self, scalars: np.ndarray) -> np.ndarray:
        """Map an array of scalars to RGBA; output shape = input + (4,)."""
        shape = np.shape(scalars)
        out = np.empty(shape + (4,), dtype=np.float32)
        self.planar(scalars, np.moveaxis(out, -1, 0), np.empty(shape))
        return out

    def planar(
        self, scalars: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """:meth:`__call__` into caller-owned buffers, one plane per
        channel: ``out`` is ``(4,) + scalars.shape`` float32, ``scratch``
        ``scalars.shape`` float64 (left holding the clamped scalars)."""
        scratch[...] = scalars
        np.clip(scratch, 0.0, 1.0, out=scratch)
        for c in range(4):
            out[c] = np.interp(scratch, self._values, self._rgba[:, c])

    def opacity(self, scalars: np.ndarray) -> np.ndarray:
        """Alpha channel only (used by opacity-weighted compositing)."""
        s = np.clip(np.asarray(scalars, dtype=np.float64), 0.0, 1.0)
        return np.interp(s, self._values, self._rgba[:, 3]).astype(np.float32)

    # -- presets ---------------------------------------------------------
    @classmethod
    def grayscale(cls, max_alpha: float = 0.8) -> "TransferFunction":
        """Linear gray ramp with linear opacity."""
        return cls(
            [
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (1.0, 1.0, 1.0, 1.0, max_alpha),
            ]
        )

    @classmethod
    def fire(cls) -> "TransferFunction":
        """Black-red-orange-yellow-white: the classic combustion map."""
        return cls(
            [
                (0.00, 0.0, 0.0, 0.0, 0.00),
                (0.25, 0.5, 0.0, 0.0, 0.05),
                (0.50, 1.0, 0.3, 0.0, 0.25),
                (0.75, 1.0, 0.7, 0.1, 0.55),
                (1.00, 1.0, 1.0, 0.8, 0.85),
            ]
        )

    @classmethod
    def opaque_fire(cls) -> "TransferFunction":
        """High-opacity fire map with a sharp front.

        Used by the IBRAVR artifact experiments: strong occlusion makes
        the slab-gap striping visible, as in the paper's Figure 6.
        """
        return cls(
            [
                (0.00, 0.0, 0.0, 0.0, 0.00),
                (0.45, 0.8, 0.1, 0.0, 0.00),
                (0.55, 1.0, 0.5, 0.0, 0.75),
                (1.00, 1.0, 1.0, 0.8, 0.95),
            ]
        )

    @classmethod
    def cool(cls) -> "TransferFunction":
        """Blue-cyan-white map suited to density data."""
        return cls(
            [
                (0.00, 0.0, 0.0, 0.1, 0.00),
                (0.35, 0.0, 0.2, 0.7, 0.10),
                (0.70, 0.1, 0.6, 0.9, 0.40),
                (1.00, 0.9, 1.0, 1.0, 0.80),
            ]
        )
