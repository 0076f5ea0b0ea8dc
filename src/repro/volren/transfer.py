"""Transfer functions mapping scalar values to color and opacity."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


#: table entries per unit scalar: knots and lookups snap to multiples of
#: ``1 / TABLE_STEPS``
TABLE_STEPS = 4096


class TransferFunction:
    """Piecewise-linear RGBA transfer function on normalised scalars.

    Control points are ``(value, r, g, b, alpha)`` with ``value`` in
    [0, 1] and channels in [0, 1].  Each value snaps to the nearest
    multiple of ``1 / TABLE_STEPS``, and the function is tabulated once
    at the ``TABLE_STEPS + 1`` multiples (linear between knots, held
    flat outside them).  A lookup reads the entry at
    ``round(clip(s, 0, 1) * TABLE_STEPS)``: a scalar on a snapped knot
    reads that knot's colour exactly, and any other reads the snapped
    function at the nearest multiple, half a step times its slope away
    at most.  NaN reads entry 0.
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
        entries = np.rint(arr[:, 0] * TABLE_STEPS)
        clash = np.flatnonzero(np.diff(entries) == 0)
        if clash.size:
            i = clash[0]
            raise ValueError(
                f"control-point values {arr[i, 0]} and {arr[i + 1, 0]} snap "
                f"to the same table entry {int(entries[i])}/{TABLE_STEPS}"
            )
        grid = np.arange(TABLE_STEPS + 1) / TABLE_STEPS
        #: ``(4, TABLE_STEPS + 1)`` float32, one row per channel
        self._table = np.array(
            [np.interp(grid, entries / TABLE_STEPS, arr[:, c]) for c in range(1, 5)],
            dtype=np.float32,
        )
        #: the same with colour premultiplied by opacity, ``(r * a, g * a,
        #: b * a, a)``: each ``c * a`` is one float32 product
        self._premultiplied = self._table.copy()
        self._premultiplied[:3] *= self._table[3]

    def __call__(self, scalars: np.ndarray) -> np.ndarray:
        """Map an array of scalars to RGBA; output shape = input + (4,)."""
        shape = np.shape(scalars)
        out = np.empty(shape + (4,), dtype=np.float32)
        self.planar(scalars, np.moveaxis(out, -1, 0))
        return out

    def planar(self, scalars: np.ndarray, out: np.ndarray) -> None:
        """:meth:`__call__` into a caller-owned buffer, one plane per
        channel: ``out`` is ``(4,) + scalars.shape`` float32."""
        self._table.take(self._entries(scalars), axis=1, out=out, mode="clip")

    def premultiplied(self, scalars: np.ndarray, out: np.ndarray) -> None:
        """:meth:`planar` with colour premultiplied by opacity: ``out[:3]``
        reads ``c * a``, the float32 product of the entry's colour and
        opacity, and ``out[3]`` reads ``a``."""
        self._premultiplied.take(
            self._entries(scalars), axis=1, out=out, mode="clip"
        )

    @staticmethod
    def _entries(scalars: np.ndarray) -> np.ndarray:
        """Table index of each scalar.  ``s * TABLE_STEPS`` is exact in
        float32 (a power-of-two scale), so float32 input stays float32."""
        s = np.asarray(scalars)
        work = np.result_type(s.dtype, np.float32)
        x = np.multiply(s, TABLE_STEPS, out=np.empty(s.shape, work), dtype=work)
        np.fmax(x, 0.0, out=x)  # fmax / fmin, unlike clip, send NaN to 0
        np.fmin(x, TABLE_STEPS, out=x)
        np.rint(x, out=x)
        return x.astype(np.intp)

    # -- presets ---------------------------------------------------------
    @classmethod
    def grayscale(cls) -> "TransferFunction":
        """Linear gray ramp with linear opacity up to 0.8."""
        return cls(
            [
                (0.0, 0.0, 0.0, 0.0, 0.0),
                (1.0, 1.0, 1.0, 1.0, 0.8),
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
