"""The transfer function's 12-bit table against a per-scalar reference.

The reference does what the table stands for, one scalar at a time and
without the table: snap the knots to multiples of 1/4096, round the
clamped scalar to the nearest multiple, and ``np.interp`` on the
snapped knots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.volren import TransferFunction
from repro.volren.transfer import TABLE_STEPS

_PRESETS = {
    "grayscale": [(0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0, 0.8)],
    "fire": [
        (0.00, 0.0, 0.0, 0.0, 0.00),
        (0.25, 0.5, 0.0, 0.0, 0.05),
        (0.50, 1.0, 0.3, 0.0, 0.25),
        (0.75, 1.0, 0.7, 0.1, 0.55),
        (1.00, 1.0, 1.0, 0.8, 0.85),
    ],
    # knots off the 1/4096 grid, and not spanning [0, 1]
    "off_grid": [
        (0.1234, 0.2, 0.9, 0.4, 0.0),
        (0.45, 0.8, 0.1, 0.0, 0.3),
        (0.55001, 1.0, 0.5, 0.0, 0.75),
        (0.9, 0.1, 1.0, 0.8, 0.95),
    ],
}


def _reference(points, scalar: float) -> np.ndarray:
    pts = sorted(points)
    knots = [round(p[0] * TABLE_STEPS) / TABLE_STEPS for p in pts]
    s = round(min(max(float(scalar), 0.0), 1.0) * TABLE_STEPS) / TABLE_STEPS
    return np.array(
        [np.interp(s, knots, [p[c] for p in pts]) for c in range(1, 5)],
        dtype=np.float32,
    )


def _scalars(points) -> np.ndarray:
    rng = np.random.default_rng(5)
    knots = [p[0] for p in points]
    return np.concatenate([
        rng.uniform(-0.5, 1.5, 300),
        [-1e30, -1.0, -1e-9, -0.0, 0.0, 1.0, 1.0 + 1e-9, 7.0, 1e30],
        knots,
        np.nextafter(knots, 2.0),
        np.arange(0, TABLE_STEPS + 1, 97) / TABLE_STEPS,
        (np.arange(0, TABLE_STEPS, 211) + 0.5) / TABLE_STEPS,  # ties
    ])


@pytest.mark.parametrize("name", sorted(_PRESETS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_table_matches_per_scalar_reference(name, dtype):
    points = _PRESETS[name]
    tf = TransferFunction(points)
    scalars = _scalars(points).astype(dtype)
    got = tf(scalars)
    want = np.array([_reference(points, s) for s in scalars])
    assert np.array_equal(got, want)


def test_scalar_on_a_knot_reads_the_knots_colour():
    points = _PRESETS["off_grid"]
    tf = TransferFunction(points)
    for value, *rgba in points:
        snapped = round(value * TABLE_STEPS) / TABLE_STEPS
        assert np.array_equal(tf(np.array([snapped]))[0],
                              np.asarray(rgba, dtype=np.float32))


def test_integer_and_nan_scalars():
    tf = TransferFunction(_PRESETS["fire"])
    # integers clamp as numbers, never wrap in a narrow dtype
    ints = np.array([0, 1, 2, 255], dtype=np.uint8)
    assert np.array_equal(tf(ints), tf(np.array([0.0, 1.0, 1.0, 1.0])))
    assert np.array_equal(tf(np.array([np.nan])), tf(np.array([0.0])))


def test_knots_that_snap_together_are_refused():
    with pytest.raises(ValueError, match="same table entry"):
        TransferFunction([(0.0, 0, 0, 0, 0), (0.5, 1, 1, 1, 1),
                          (0.5 + 0.4 / TABLE_STEPS, 0, 0, 0, 0)])
    # half a step apart, on either side of a tie: distinct entries
    TransferFunction([(0.0, 0, 0, 0, 0), (0.5, 1, 1, 1, 1),
                      (0.5 + 0.6 / TABLE_STEPS, 0, 0, 0, 0)])
