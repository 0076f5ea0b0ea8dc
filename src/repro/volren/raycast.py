"""Ray casting: axis-aligned slab rendering and ground-truth views.

:func:`render_slab` is the back end's kernel: an orthographic,
axis-aligned front-to-back composite through a slab of voxels,
producing the 2-D texture the viewer maps onto slab geometry. IBRAVR
source images "are obtained by volume rendering the slab of data"
(section 3.3).

:func:`render_view` is an arbitrary-angle orthographic ray caster used
as ground truth when quantifying IBRAVR's off-axis artifacts
(Figure 6); it resamples the volume with :func:`trilinear` along
view-aligned rays.

Both kernels walk their samples front to back once, carrying an
accumulator and a per-ray transparency in float32: ``accum += (c * a)
* t`` and ``a * t``, then ``t *= 1 - a``.  That is the per-pixel walk of
``tests/oracles/scalar_kernels.py``, which the parity tests compare
against bit for bit: each pixel sees the same operations in the same
order, a whole slice at a time.  :func:`render_slab` keeps one slice in
flight -- the transfer function's premultiplied table (elementwise, so
indifferent to batching) fills a channel-planar ``(4, H, W)`` buffer
with ``(c * a, a)``, every update runs over contiguous planes, and no
array is larger than one slice however deep the slab.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from repro.volren.transfer import TransferFunction

#: image-plane axes for each view axis (view along axis -> rows, cols)
_PLANE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

#: early-exit threshold: stop once every ray is this close to opaque
_OPACITY_CUTOFF = 1e-4


def _check_volume(volume: np.ndarray) -> np.ndarray:
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got ndim={volume.ndim}")
    if 0 in volume.shape:
        raise ValueError(f"volume has an empty axis, got shape={volume.shape}")
    return volume


def trilinear(volume: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear samples of a float 3-D ``volume`` at ``coords``.

    ``coords`` has shape ``(..., 3)`` in voxel index units; the result
    has shape ``coords.shape[:-1]`` and the volume's dtype.  The bits
    are those of ``map_coordinates(order=1, mode="constant",
    cval=0.0)``, the ``ndimage`` call kept as the oracle in
    ``tests/oracles``:

    - a point with any coordinate non-finite or outside ``[0, n - 1]``
      samples ``0.0``;
    - per axis, ``w0 = 1 - (c - floor(c))`` and ``w1 = 1 - w0`` (not
      ``c - floor(c)``, which differs in the last bit below one half),
      and the upper neighbour index is clamped to ``n - 1``, where its
      weight is 0;
    - the eight corners add ``v * wi * wj * wk`` (the corner's weight on
      axes 0, 1, 2) left to right into a float64 sum that starts at
      ``0.0``, in C order (axis 2 fastest), and the sum is cast to the
      volume's dtype.
    """
    coords = np.asarray(coords, dtype=np.float64)
    inside = np.ones(coords.shape[:-1], dtype=bool)
    corners = []
    for axis, n in enumerate(volume.shape):
        c = coords[..., axis]
        on_axis = (c >= 0.0) & (c <= n - 1)  # False for NaN
        inside &= on_axis
        c = np.where(on_axis, c, 0.0)
        base = np.floor(c)
        w0 = 1.0 - (c - base)
        lo = base.astype(np.intp)
        corners.append(((lo, w0), (np.minimum(lo + 1, n - 1), 1.0 - w0)))
    total = np.zeros(inside.shape)
    for (i, wi), (j, wj), (k, wk) in itertools.product(*corners):
        total += volume[i, j, k] * wi * wj * wk
    total[~inside] = 0.0
    return total.astype(volume.dtype)


def render_slab(
    volume: np.ndarray,
    tf: TransferFunction,
    *,
    axis: int = 0,
    flip: bool = False,
    return_depth: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Composite a slab front-to-back along an axis.

    Returns ``(image, depth)`` where ``image`` is a premultiplied RGBA
    float32 array over the two non-view axes and ``depth`` (when
    requested) is the opacity-weighted mean slice index in [0, 1] --
    the offset map of the paper's quad-mesh IBRAVR extension
    (section 3.3), else ``None``.

    ``flip=True`` views the slab from the negative side of ``axis``.
    """
    volume = _check_volume(volume)
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    vol_view = np.moveaxis(volume, axis, 0)
    if flip:
        vol_view = vol_view[::-1]
    n_slices = vol_view.shape[0]
    out_shape = vol_view.shape[1:]

    rgba = np.empty((4,) + out_shape, dtype=np.float32)
    alpha = rgba[3]
    one_minus_alpha = np.empty(out_shape, dtype=np.float32)
    accum = np.zeros((4,) + out_shape, dtype=np.float32)
    transp = np.ones(out_shape, dtype=np.float32)
    depth_num = np.zeros(out_shape, dtype=np.float32) if return_depth else None
    depth_den = np.zeros(out_shape, dtype=np.float32) if return_depth else None
    inv_span = 1.0 / max(n_slices - 1, 1)
    for position in range(n_slices):
        tf.premultiplied(vol_view[position], rgba)  # (c * a, a)
        # taken before ``alpha`` (a plane of ``rgba``) becomes a * t
        np.subtract(1.0, alpha, out=one_minus_alpha)
        rgba *= transp
        accum += rgba
        if depth_num is not None and depth_den is not None:
            depth_num += alpha * (position * inv_span)
            depth_den += alpha
        transp *= one_minus_alpha
    image = np.ascontiguousarray(np.moveaxis(accum, 0, -1))
    return image, _finish_depth(depth_num, depth_den, out_shape, return_depth)


def _finish_depth(
    depth_num: Optional[np.ndarray],
    depth_den: Optional[np.ndarray],
    out_shape: Tuple[int, ...],
    return_depth: bool,
) -> Optional[np.ndarray]:
    if not return_depth:
        return None
    assert depth_num is not None and depth_den is not None
    depth = np.zeros(out_shape, dtype=np.float32)
    hit = depth_den > 1e-12
    depth[hit] = depth_num[hit] / depth_den[hit]
    return depth


def view_direction(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Unit view direction from azimuth/elevation about the +x axis.

    ``azimuth = elevation = 0`` looks along +x (the slab axis used in
    the artifact experiments); azimuth rotates in the x-y plane,
    elevation lifts toward +z.
    """
    az = np.deg2rad(azimuth_deg)
    el = np.deg2rad(elevation_deg)
    d = np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )
    return d / np.linalg.norm(d)


def render_view(
    volume: np.ndarray,
    tf: TransferFunction,
    direction: np.ndarray,
    *,
    image_size: int = 128,
    samples_per_voxel: float = 1.0,
) -> np.ndarray:
    """Ground-truth orthographic render along an arbitrary direction.

    The image plane is perpendicular to ``direction``, centered on the
    volume, sized to circumscribe it. Opacity is corrected for sample
    spacing so results are comparable across step sizes.  Compositing
    stops once every ray's transparency has dropped below the opacity
    cutoff.
    """
    color, alpha = _sample_view(
        volume, tf, direction, image_size, samples_per_voxel
    )
    return _composite_view(color, alpha)[0]


def _sample_view(
    volume: np.ndarray,
    tf: TransferFunction,
    direction: np.ndarray,
    image_size: int,
    samples_per_voxel: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-ray sample stacks, front first: straight RGB (H, W, S, 3)
    and spacing-corrected float32 opacity (H, W, S)."""
    volume = _check_volume(volume)
    if image_size < 2:
        raise ValueError("image_size must be >= 2")
    if samples_per_voxel <= 0:
        raise ValueError("samples_per_voxel must be > 0")
    d = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(d)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError(f"direction must be finite and non-zero, got {d}")
    d = d / norm

    # Orthonormal basis (u, v) spanning the image plane.
    helper = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(helper, d)) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(helper, d)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)

    half_extent = np.sqrt(3.0) / 2.0  # circumscribes the unit cube
    coords_1d = np.linspace(-half_extent, half_extent, image_size)
    max_dim = max(volume.shape)
    n_samples = max(int(np.sqrt(3.0) * max_dim * samples_per_voxel), 2)
    ts = np.linspace(-half_extent, half_extent, n_samples)
    step_voxels = (ts[1] - ts[0]) * max_dim  # sample spacing in voxels

    center = np.array([0.5, 0.5, 0.5])
    # World positions: center + r*u + c*v + t*d, front (small t) first.
    pos = (
        center
        + coords_1d[:, None, None, None] * u
        + coords_1d[None, :, None, None] * v
        + ts[None, None, :, None] * d
    )
    shape = np.asarray(volume.shape, dtype=np.float64)
    idx = pos * shape[None, None, None, :] - 0.5
    scalars = trilinear(volume.astype(np.float32), idx)
    # Mask samples outside the unit cube so padding never contributes.
    inside = np.all((pos >= 0.0) & (pos <= 1.0), axis=-1)
    scalars = np.where(inside, scalars, 0.0)

    rgba = tf(scalars)  # (H, W, S, 4), straight alpha
    # Opacity correction: control points define opacity per voxel step.
    # float32 throughout the composite, as in the test oracle.
    alpha = (
        1.0 - np.power(np.clip(1.0 - rgba[..., 3], 1e-7, 1.0), step_voxels)
    ).astype(np.float32)
    return rgba[..., :3], alpha


def _composite_view(
    color: np.ndarray, alpha: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Front-to-back composite; returns ``(image, samples visited)``."""
    n_samples = alpha.shape[2]
    accum = np.zeros(alpha.shape[:2] + (4,), dtype=np.float32)
    transp = np.ones(alpha.shape[:2], dtype=np.float32)
    for s in range(n_samples):
        a = alpha[:, :, s]
        accum[..., :3] += (color[:, :, s, :] * a[..., None]) * transp[..., None]
        accum[..., 3] += transp * a
        transp *= 1.0 - a
        # transparency never rises: the remaining samples add < cutoff
        if float(transp.max()) < _OPACITY_CUTOFF:
            return accum, s + 1
    return accum, n_samples
