"""The IBRAVR slab kernel: one PE's slab to the wire and back.

The back end renders its slab and quantises the texture to the RGBA8
form the protocol ships (:func:`render_payloads`); the viewer turns the
light/heavy pair it received back into a slab rendering for the model
(:func:`rendering_from_payloads`). The live pipeline carries the pair
over sockets between the two calls; nothing else happens in between.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.protocol.messages import HeavyPayload, LightPayload
from repro.volren.decomposition import SubVolume
from repro.volren.renderer import SlabRendering, VolumeRenderer


def render_payloads(
    renderer: VolumeRenderer,
    sub: SubVolume,
    voxels: np.ndarray,
    full_shape: Tuple[int, int, int],
    frame: int,
    *,
    axis: int = 0,
    flip: bool = False,
    grid: Optional[np.ndarray] = None,
) -> Tuple[LightPayload, HeavyPayload]:
    """Render ``sub``'s voxels and quantise the texture to 8 bits.

    Returns the light payload (slab metadata) and the heavy payload
    (texture, the renderer's depth map, and ``grid`` line segments if
    given) for PE ``sub.rank`` at timestep ``frame``.
    """
    rendering = renderer.render(sub, voxels, full_shape, axis=axis, flip=flip)
    height, width = rendering.image.shape[:2]
    light = LightPayload(
        rank=sub.rank,
        frame=frame,
        tex_height=height,
        tex_width=width,
        axis=axis,
        flip=flip,
        slab_lo=rendering.slab_lo,
        slab_hi=rendering.slab_hi,
    )
    texture8 = np.clip(rendering.image * 255.0, 0, 255).astype(np.uint8)
    heavy = HeavyPayload(
        rank=sub.rank,
        frame=frame,
        texture=texture8,
        depth=rendering.depth,
        grid=grid,
    )
    return light, heavy


def rendering_from_payloads(
    light: LightPayload, heavy: HeavyPayload
) -> SlabRendering:
    """The viewer's slab rendering, from what crossed the wire only.

    The slab center is the midpoint of the light payload's extents:
    a viewer has no volume shape to take it from.
    """
    return SlabRendering(
        rank=heavy.rank,
        image=heavy.texture.astype(np.float32) / 255.0,
        depth=heavy.depth,
        axis=light.axis,
        flip=light.flip,
        slab_center=tuple(
            (lo + hi) / 2.0 for lo, hi in zip(light.slab_lo, light.slab_hi)
        ),
        slab_lo=light.slab_lo,
        slab_hi=light.slab_hi,
    )
