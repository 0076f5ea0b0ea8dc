"""Float32 channel-planar bilinear sampling vs a float64 reference.

The reference reads the texture's (H, W, 4) texels one sample at a
time, with GL_CLAMP_TO_EDGE clamps and the four-term float64 weighted
sum.  ``Texture2D`` gathers per channel and lerps in float32, so the two
agree to float32 rounding, and exactly wherever the footprint is flat.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.scenegraph import Texture2D


def _reference(data: np.ndarray, u: float, v: float) -> np.ndarray:
    h, w = data.shape[:2]
    x = min(max(u, 0.0), 1.0) * (w - 1)
    y = min(max(v, 0.0), 1.0) * (h - 1)
    x0, y0 = math.floor(x), math.floor(y)
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    d = data.astype(np.float64)
    return (
        d[y0, x0] * (1 - fx) * (1 - fy)
        + d[y0, x1] * fx * (1 - fy)
        + d[y1, x0] * (1 - fx) * fy
        + d[y1, x1] * fx * fy
    )


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 3), (9, 16)])
@pytest.mark.parametrize("seed", range(3))
def test_bilinear_matches_float64_reference(shape, seed):
    rng = np.random.default_rng(seed)
    data = rng.random(shape + (4,), dtype=np.float32)
    u = np.concatenate([rng.uniform(-0.2, 1.2, 200), [0.0, 1.0, 0.5]])
    v = np.concatenate([rng.uniform(-0.2, 1.2, 200), [1.0, 0.0, 0.5]])
    got = Texture2D(data).sample(u, v)
    assert got.dtype == np.float32 and got.shape == (len(u), 4)
    want = np.array([_reference(data, a, b) for a, b in zip(u, v)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_flat_footprint_samples_exactly():
    # a + (b - a) * f: four equal texels give their value, not an ulp off
    tex = Texture2D.solid((0.5, 0.25, 0.1, 0.3), shape=(5, 7))
    u, v = np.random.default_rng(3).random((2, 500))
    got = tex.sample(u, v)
    assert (got == np.float32([0.5, 0.25, 0.1, 0.3])).all()


def test_planes_are_one_float32_copy():
    data = np.random.default_rng(4).random((3, 5, 4))  # float64, interleaved
    tex = Texture2D(data)
    assert tex.planes.shape == (4, 15) and tex.planes.dtype == np.float32
    assert tex.planes.flags.c_contiguous
    np.testing.assert_array_equal(
        tex.planes, data.astype(np.float32).reshape(-1, 4).T
    )
