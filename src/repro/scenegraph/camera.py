"""Cameras: look-at view transforms and orthographic projection."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Camera:
    """An orthographic look-at camera.

    ``extent`` is the world-space height visible in the image; the
    width scales by the viewport aspect ratio at render time. A viewer
    rotates the model by orbiting this camera (:meth:`orbit`); IBRAVR
    needs only direction changes, not perspective.
    """

    def __init__(
        self,
        position=(0.5, 0.5, 3.0),
        target=(0.5, 0.5, 0.5),
        up=(0.0, 1.0, 0.0),
        extent: float = 1.6,
    ):
        self.position = np.asarray(position, dtype=np.float64)
        self.target = np.asarray(target, dtype=np.float64)
        self.up = np.asarray(up, dtype=np.float64)
        if extent <= 0:
            raise ValueError(f"extent must be > 0, got {extent}")
        self.extent = float(extent)
        if np.allclose(self.position, self.target):
            raise ValueError("camera position equals target")

    @property
    def forward(self) -> np.ndarray:
        """Unit vector from camera toward target."""
        f = self.target - self.position
        return f / np.linalg.norm(f)

    def basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(right, true_up, forward) orthonormal camera axes."""
        f = self.forward
        up = self.up / np.linalg.norm(self.up)
        if abs(np.dot(f, up)) > 0.999:
            up = np.array([1.0, 0.0, 0.0])
        r = np.cross(f, up)
        r /= np.linalg.norm(r)
        u = np.cross(r, f)
        return r, u, f

    def view_depth(self, points: np.ndarray) -> np.ndarray:
        """Distance along the view direction (for painter sorting)."""
        points = np.asarray(points, dtype=np.float64)
        return (points - self.position) @ self.forward

    def project(
        self, points: np.ndarray, width: int, height: int
    ) -> np.ndarray:
        """World points -> pixel coordinates (x, y) plus view depth.

        Returns (N, 3): pixel x (0..width), pixel y (0..height, y down)
        and depth. Points project orthographically onto the camera
        plane through the target.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {points.shape}")
        r, u, f = self.basis()
        rel = points - self.target
        x_cam = rel @ r
        y_cam = rel @ u
        depth = self.view_depth(points)
        aspect = width / height
        half_h = self.extent / 2.0
        half_w = half_h * aspect
        px = (x_cam / half_w * 0.5 + 0.5) * width
        py = (0.5 - y_cam / half_h * 0.5) * height
        return np.stack([px, py, depth], axis=1)

    @classmethod
    def orbit(
        cls,
        azimuth_deg: float,
        elevation_deg: float,
        *,
        target=(0.5, 0.5, 0.5),
        distance: float = 3.0,
        extent: float = 1.6,
    ) -> "Camera":
        """Camera orbiting ``target``; azimuth/elevation like a trackball.

        ``azimuth = elevation = 0`` looks down the -x axis toward the
        target (i.e. the +x face of the unit cube fills the view).
        """
        az = np.deg2rad(azimuth_deg)
        el = np.deg2rad(elevation_deg)
        direction = np.array(
            [
                np.cos(el) * np.cos(az),
                np.cos(el) * np.sin(az),
                np.sin(el),
            ]
        )
        position = np.asarray(target) + distance * direction
        return cls(position=position, target=target, up=(0, 0, 1), extent=extent)
