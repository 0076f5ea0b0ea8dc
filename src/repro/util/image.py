"""Minimal image output: a PPM writer for examples and debugging.

PPM is a header-plus-raw-bytes format writable without any imaging
dependency; every image viewer (and ImageMagick) reads it.
"""

from __future__ import annotations

import numpy as np


def rgba_to_rgb(image: np.ndarray, background=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Composite a premultiplied RGBA float image onto a background.

    Returns an (H, W, 3) uint8 array.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[2] != 4:
        raise ValueError(f"image must be (H, W, 4), got {image.shape}")
    bg = np.asarray(background, dtype=np.float32)
    if bg.shape != (3,):
        raise ValueError("background must be RGB")
    alpha = image[..., 3:4]
    rgb = image[..., :3] + bg[None, None, :] * (1.0 - alpha)
    return (np.clip(rgb, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def save_ppm(path: str, image: np.ndarray, background=(0.0, 0.0, 0.0)) -> str:
    """Write an RGBA float (premultiplied) or RGB uint8 image as PPM."""
    image = np.asarray(image)
    if image.ndim == 3 and image.shape[2] == 4:
        rgb = rgba_to_rgb(image, background)
    elif image.ndim == 3 and image.shape[2] == 3 and image.dtype == np.uint8:
        rgb = image
    else:
        raise ValueError(
            "expected (H, W, 4) float RGBA or (H, W, 3) uint8 RGB, "
            f"got {image.dtype} {image.shape}"
        )
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(rgb).tobytes())
    return path
