"""Software volume rendering: the Visapult back end's compute kernel.

The back end is "a parallelized software volume rendering engine that
uses a domain-decomposed partitioning" (section 3.0). This package
provides:

- :mod:`~repro.volren.transfer` -- scalar -> RGBA transfer functions;
- :mod:`~repro.volren.compositing` -- Porter-Duff *over* compositing
  (the ordered recombination step of object-order parallel volume
  rendering, section 3.2);
- :mod:`~repro.volren.decomposition` -- the slab domain decomposition
  (Figure 4);
- :mod:`~repro.volren.imageorder` -- the image-order screen-tile
  baseline of section 3.2;
- :mod:`~repro.volren.tiles` -- the fixed screen-tile grid and
  tile-change model behind tile-routed delivery;
- :mod:`~repro.volren.raycast` -- axis-aligned slab rendering (the
  IBRAVR source-image generator) and an arbitrary-angle ground-truth
  ray caster used to quantify IBR artifacts;
- :mod:`~repro.volren.renderer` -- a per-PE renderer facade with a
  calibrated compute-cost model.
"""

from repro.volren.transfer import TransferFunction
from repro.volren.compositing import composite_over, composite_stack
from repro.volren.decomposition import SubVolume, slab_decompose
from repro.volren.imageorder import (
    ScreenTile,
    redistribution_voxels,
    render_tile,
    tile_data_bounds,
    tile_decompose,
    work_imbalance,
)
from repro.volren.raycast import render_slab, render_view
from repro.volren.renderer import RenderCostModel, VolumeRenderer
from repro.volren.tiles import TileGrid, tile_changed

__all__ = [
    "TransferFunction",
    "composite_over",
    "composite_stack",
    "SubVolume",
    "slab_decompose",
    "render_slab",
    "render_view",
    "ScreenTile",
    "redistribution_voxels",
    "render_tile",
    "tile_data_bounds",
    "tile_decompose",
    "work_imbalance",
    "RenderCostModel",
    "VolumeRenderer",
    "TileGrid",
    "tile_changed",
]
