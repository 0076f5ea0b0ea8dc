"""Quantifying IBRAVR's off-axis artifacts (Figure 6).

"As the model rotates away from an axis-aligned view, the artifacts
become more pronounced. [Mueller et al.] reports that objects viewed
within a cone of about sixteen degrees will appear to be relatively
free of visual artifacts." We reproduce this by comparing the IBRAVR
composite against a ground-truth ray casting of the full volume along
the same camera rays, sweeping the rotation angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.ibravr.axis import best_view_axis
from repro.ibravr.compositor import IbravrModel
from repro.scenegraph.camera import Camera
from repro.volren.decomposition import slab_decompose
from repro.volren.imageorder import ScreenTile, render_tile
from repro.volren.renderer import VolumeRenderer
from repro.volren.transfer import TransferFunction


def ground_truth_frame(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    width: int,
    height: int,
) -> np.ndarray:
    """Ray-cast the full volume through ``camera``'s pixel rays.

    The whole viewport as one image-order tile, so the output is
    pixel-aligned with the rasterized IBRAVR frame.
    """
    return render_tile(
        volume, tf, camera, ScreenTile(0, 0, width, 0, height), width, height
    )


@dataclass(frozen=True)
class ArtifactSample:
    """Error of one view angle."""

    angle_deg: float
    rms_error: float
    slab_axis: int


def _render_ibravr_frame(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    n_slabs: int,
    width: int,
    height: int,
    *,
    axis_switching: bool,
) -> Tuple[np.ndarray, int]:
    choice = best_view_axis(camera.forward)
    axis = choice.axis if axis_switching else 0
    # Composite order always follows the camera side; "axis switching
    # disabled" (as in Figure 6's right image) only pins the slab axis.
    flip = bool(camera.forward[axis] < 0)
    subs = slab_decompose(volume.shape, n_slabs, axis=axis)
    renderer = VolumeRenderer(tf)
    renderings = [
        renderer.render(
            sub, sub.extract(volume), volume.shape, axis=axis, flip=flip
        )
        for sub in subs
    ]
    model = IbravrModel()
    model.update(renderings)
    return model.render_frame(camera, width, height), axis


def artifact_error(
    volume: np.ndarray,
    tf: TransferFunction,
    angle_deg: float,
    *,
    n_slabs: int = 8,
    image_size: int = 96,
    axis_switching: bool = False,
) -> ArtifactSample:
    """RMS image error of IBRAVR vs ground truth at one rotation.

    The camera orbits in the x-y plane: ``angle_deg = 0`` views along
    the slab axis (x); larger angles rotate off-axis, exactly the
    Figure 6 experiment.
    """
    camera = Camera.orbit(angle_deg, 0.0)
    ibr, axis = _render_ibravr_frame(
        volume, tf, camera, n_slabs, image_size, image_size,
        axis_switching=axis_switching,
    )
    gt = ground_truth_frame(volume, tf, camera, image_size, image_size)
    diff = ibr - gt
    rms = float(np.sqrt(np.mean(diff * diff)))
    return ArtifactSample(angle_deg=angle_deg, rms_error=rms, slab_axis=axis)


def artifact_sweep(
    volume: np.ndarray,
    tf: TransferFunction,
    angles_deg: Sequence[float],
    *,
    n_slabs: int = 8,
    image_size: int = 96,
    axis_switching: bool = False,
) -> List[ArtifactSample]:
    """Error at each angle; the Figure 6 curve."""
    return [
        artifact_error(
            volume,
            tf,
            a,
            n_slabs=n_slabs,
            image_size=image_size,
            axis_switching=axis_switching,
        )
        for a in angles_deg
    ]
