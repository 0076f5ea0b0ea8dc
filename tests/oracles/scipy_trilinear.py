"""The trilinear sampler the ray casters used before ``trilinear``:
``scipy.ndimage.map_coordinates`` at ``order=1`` with a zero constant
border, which pulled scipy into every ``import repro``.

``tests/volren/test_trilinear.py`` runs it beside
``repro.volren.raycast.trilinear`` and demands identical bits.
"""

import numpy as np
from scipy.ndimage import map_coordinates


def scipy_trilinear(volume, coords):
    """``trilinear(volume, coords)`` by ``map_coordinates``:
    ``coords`` has shape ``(..., 3)``, the result ``coords.shape[:-1]``."""
    coords = np.asarray(coords, dtype=np.float64)
    return map_coordinates(
        volume, np.moveaxis(coords, -1, 0), order=1, mode="constant", cval=0.0
    )
