"""IBR-assisted volume rendering (Mueller et al., as used by Visapult).

The viewer-side half of the paper's "novel form of volume
visualization": slab textures produced by the back end are mapped onto
geometry derived from the slab decomposition and rendered in depth
order with alpha blending; the model can then be rotated interactively
without re-rendering the volume (section 3.3).

Components:

- :mod:`~repro.ibravr.axis` -- per-frame best-view-axis selection, the
  Visapult extension that bounds artifacts by re-slabbing along X, Y
  or Z as the user rotates;
- :mod:`~repro.ibravr.slabs` -- slab base quads / offset quad meshes;
- :mod:`~repro.ibravr.payloads` -- the slab kernel: one PE's slab
  rendered and quantised into its light/heavy wire payloads, and the
  viewer's slab rendering rebuilt from them;
- :mod:`~repro.ibravr.compositor` -- assemble slab renderings into a
  scene graph and produce final frames via the software rasterizer;
- :mod:`~repro.ibravr.artifacts` -- the off-axis artifact metric used
  to reproduce the ~16 degree acceptability cone (Figure 6).
"""

from repro.ibravr.axis import AxisChoice, best_view_axis, off_axis_angle
from repro.ibravr.slabs import slab_base_quad, slab_quad_mesh
from repro.ibravr.payloads import render_payloads, rendering_from_payloads
from repro.ibravr.compositor import IbravrModel
from repro.ibravr.artifacts import artifact_error, artifact_sweep

__all__ = [
    "AxisChoice",
    "best_view_axis",
    "off_axis_angle",
    "slab_base_quad",
    "slab_quad_mesh",
    "render_payloads",
    "rendering_from_payloads",
    "IbravrModel",
    "artifact_error",
    "artifact_sweep",
]
