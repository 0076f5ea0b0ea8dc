"""The IBRAVR slab kernel: back-end payloads and the viewer's rebuild."""

import numpy as np
import pytest

from repro.datagen import CombustionConfig, combustion_field
from repro.ibravr import render_payloads, rendering_from_payloads
from repro.protocol import decode_message, encode_message
from repro.volren import TransferFunction, slab_decompose
from repro.volren.renderer import VolumeRenderer


def over_the_wire(msg):
    return decode_message(*encode_message(msg))


@pytest.mark.parametrize("axis,flip", [(0, False), (1, True)])
def test_pair_round_trips(axis, flip):
    shape = (24, 24, 24)
    volume = combustion_field(0.5, CombustionConfig(shape=shape))
    renderer = VolumeRenderer(TransferFunction.fire(), with_depth=True)
    grid = np.arange(12, dtype=np.float32).reshape(2, 2, 3)
    for sub in slab_decompose(shape, 3, axis=axis):
        voxels = sub.extract(volume)
        direct = renderer.render(sub, voxels, shape, axis=axis, flip=flip)
        light, heavy = render_payloads(
            renderer, sub, voxels, shape, 7, axis=axis, flip=flip, grid=grid
        )
        light, heavy = over_the_wire(light), over_the_wire(heavy)
        rendering = rendering_from_payloads(light, heavy)

        # The wire texture is the renderer's image in 8 bits, and the
        # viewer's image is exactly that texture over 255.
        assert heavy.texture.dtype == np.uint8
        assert np.abs(heavy.texture / 255.0 - direct.image).max() <= 1 / 255
        assert rendering.image.dtype == np.float32
        assert rendering.image.tobytes() == (
            heavy.texture.astype(np.float32) / 255.0
        ).tobytes()
        assert (light.rank, light.frame, heavy.frame) == (sub.rank, 7, 7)
        assert (rendering.rank, rendering.axis, rendering.flip) == (
            sub.rank, axis, flip
        )
        assert rendering.slab_lo == direct.slab_lo
        assert rendering.slab_hi == direct.slab_hi
        assert rendering.depth.tobytes() == direct.depth.tobytes()
        assert heavy.grid.tobytes() == grid.tobytes()


@pytest.mark.parametrize("size", [128, 48])
@pytest.mark.parametrize("axis", [0, 1])
def test_slab_center_from_the_wire_is_the_volume_center(size, axis):
    """On the shapes the ``live_render`` benchmark renders every term is
    exact, so the center a viewer derives from the light payload's
    extents equals ``sub.center(shape)``."""
    shape = (size,) * 3
    renderer = VolumeRenderer(TransferFunction.fire())
    for sub in slab_decompose(shape, 8, axis=axis):
        voxels = np.zeros(sub.shape, dtype=np.float32)
        light, heavy = render_payloads(
            renderer, sub, voxels, shape, 0, axis=axis
        )
        rendering = rendering_from_payloads(
            over_the_wire(light), over_the_wire(heavy)
        )
        assert rendering.slab_center == sub.center(shape)
