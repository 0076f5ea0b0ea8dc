"""Small builders shared by the test suites."""

import numpy as np

from repro.scenegraph.texture import Texture2D


def solid_texture(rgba, shape=(2, 2)) -> Texture2D:
    """A uniform single-color texture of ``shape`` (H, W)."""
    data = np.empty(tuple(shape) + (4,), dtype=np.float32)
    data[...] = np.asarray(rgba, dtype=np.float32)
    return Texture2D(data)


#: control points of a blue-cyan-white transfer function
COOL_POINTS = [
    (0.00, 0.0, 0.0, 0.1, 0.00),
    (0.35, 0.0, 0.2, 0.7, 0.10),
    (0.70, 0.1, 0.6, 0.9, 0.40),
    (1.00, 0.9, 1.0, 1.0, 0.80),
]
