"""Ray casting: axis-aligned slab rendering and ground-truth views.

:func:`render_slab` is the back end's kernel: an orthographic,
axis-aligned front-to-back composite through a slab of voxels,
producing the 2-D texture the viewer maps onto slab geometry. IBRAVR
source images "are obtained by volume rendering the slab of data"
(section 3.3).

:func:`render_view` is an arbitrary-angle orthographic ray caster used
as ground truth when quantifying IBRAVR's off-axis artifacts
(Figure 6); it resamples the volume with trilinear interpolation along
view-aligned rays.

Both kernels batch the transfer-function evaluation and express the
front-to-back composite through ``cumprod`` transparencies.  The
sample-by-sample walks they replaced live in
``tests/oracles/scalar_kernels.py`` as the reference the parity tests
compare against, bit for bit: ``cumprod``/repeated in-place adds are
strict left folds, the transfer function is elementwise (``np.interp``)
and therefore indifferent to batching, and transparency uses the
product form ``T_k = prod_{j<k} (1 - alpha_j)`` in both.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import map_coordinates

from repro.volren.transfer import TransferFunction

#: image-plane axes for each view axis (view along axis -> rows, cols)
_PLANE_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

#: early-exit threshold: stop once every ray is this close to opaque
_OPACITY_CUTOFF = 1e-4

#: transfer-function evaluation chunk, in scalars: big enough to
#: amortise the call, small enough that the float64 temporaries inside
#: :class:`TransferFunction` stay cache-resident
_TF_CHUNK_SCALARS = 1 << 20


def _check_volume(volume: np.ndarray) -> np.ndarray:
    volume = np.asarray(volume)
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got ndim={volume.ndim}")
    return volume


def _tf_stack(vol_view: np.ndarray, tf: TransferFunction) -> np.ndarray:
    """Evaluate ``tf`` over a (slices, H, W) view into a float32 stack.

    Chunked along the slice axis: one giant call would drag ~50 MB of
    float64 temporaries through the cache for a 128^3 volume, while
    per-slice calls pay the Python/ufunc overhead n times.  Chunking
    changes nothing numerically -- the transfer function is elementwise.
    """
    n, h, w = vol_view.shape
    rgba = np.empty((n, h, w, 4), dtype=np.float32)
    chunk = max(1, _TF_CHUNK_SCALARS // max(h * w, 1))
    for k in range(0, n, chunk):
        rgba[k : k + chunk] = tf(vol_view[k : k + chunk])
    return rgba


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

    rgba = _tf_stack(vol_view, tf)
    alpha = rgba[..., 3]
    # Premultiply in place -- the stack is ours, no defensive copy.
    rgba[..., :3] *= alpha[..., None]

    # Front-to-back transparency by cumulative product: T_k is the
    # transparency *before* sample k (ones-prefixed, exclusive cumprod).
    # multiply.accumulate is a strict left fold, so T matches the
    # oracle's running ``t *= 1 - a`` bit for bit.
    t_before = np.empty_like(alpha)
    t_before[0] = 1.0
    np.cumprod(1.0 - alpha[:-1], axis=0, out=t_before[1:])

    contrib = rgba
    contrib *= t_before[..., None]

    accum = np.zeros(out_shape + (4,), dtype=np.float32)
    depth_num = np.zeros(out_shape, dtype=np.float32) if return_depth else None
    depth_den = np.zeros(out_shape, dtype=np.float32) if return_depth else None
    inv_span = 1.0 / max(n_slices - 1, 1)
    for position in range(n_slices):
        accum += contrib[position]
        if return_depth:
            assert depth_num is not None and depth_den is not None
            ca = contrib[position, ..., 3]
            depth_num += ca * (position * inv_span)
            depth_den += ca
    return accum, _finish_depth(depth_num, depth_den, out_shape, return_depth)


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
    if norm == 0:
        raise ValueError("direction must be non-zero")
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
    R, C, T = np.meshgrid(coords_1d, coords_1d, ts, indexing="ij")
    pos = (
        center[None, None, None, :]
        + R[..., None] * u
        + C[..., None] * v
        + T[..., None] * d
    )
    shape = np.asarray(volume.shape, dtype=np.float64)
    idx = pos * shape[None, None, None, :] - 0.5
    scalars = map_coordinates(
        volume.astype(np.float32),
        [idx[..., 0], idx[..., 1], idx[..., 2]],
        order=1,
        mode="constant",
        cval=0.0,
    )
    # Mask samples outside the unit cube so padding never contributes.
    inside = np.all((pos >= 0.0) & (pos <= 1.0), axis=-1)
    scalars = np.where(inside, scalars, 0.0)

    rgba = tf(scalars)  # (H, W, S, 4), straight alpha
    # Opacity correction: control points define opacity per voxel step.
    # float32 throughout the composite so the test oracle's running
    # transparency and the cumprod here round identically.
    alpha = (
        1.0 - np.power(np.clip(1.0 - rgba[..., 3], 1e-7, 1.0), step_voxels)
    ).astype(np.float32)
    return rgba[..., :3], alpha


def _composite_view(
    color: np.ndarray, alpha: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Front-to-back composite; returns ``(image, samples visited)``."""
    n_samples = alpha.shape[2]
    # Exclusive cumprod: transparency *before* each sample, per ray.
    t_before = np.empty_like(alpha)
    t_before[:, :, 0] = 1.0
    np.cumprod(1.0 - alpha[:, :, :-1], axis=2, out=t_before[:, :, 1:])

    # Early exit: stop *after* accumulating sample s once
    # max(T_{s+1}) < cutoff; T is nonincreasing per ray, so the
    # image-wide max is nonincreasing and the mask has one edge.
    visited = n_samples
    t_after = t_before[:, :, 1:].max(axis=(0, 1)).astype(np.float64)
    below = np.flatnonzero(t_after < _OPACITY_CUTOFF)
    if below.size:
        visited = int(below[0]) + 1

    contrib_rgb = color[:, :, :visited, :] * alpha[:, :, :visited, None]
    contrib_rgb *= t_before[:, :, :visited, None]
    contrib_a = t_before[:, :, :visited] * alpha[:, :, :visited]

    accum = np.zeros(alpha.shape[:2] + (4,), dtype=np.float32)
    for s in range(visited):
        accum[..., :3] += contrib_rgb[:, :, s, :]
        accum[..., 3] += contrib_a[:, :, s]
    return accum, visited
