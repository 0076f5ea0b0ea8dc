"""Porter-Duff *over* compositing for premultiplied RGBA images.

Object-order parallel volume rendering requires an ordered
recombination step: "Recombination consists of image compositing using
alpha blending, and must occur in a prescribed order (back-to-front or
front-to-back)" (section 3.2, citing Porter & Duff).

All functions here operate on **premultiplied-alpha** float images of
shape (H, W, 4). Premultiplication makes *over* associative, which is
what lets slab images be composited pairwise in any grouping as long
as the order is respected.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _check_image(img: np.ndarray, name: str) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 4:
        raise ValueError(f"{name} must be (H, W, 4), got {img.shape}")
    return img.astype(np.float32, copy=False)


def composite_over(front: np.ndarray, back: np.ndarray) -> np.ndarray:
    """``front over back`` for premultiplied RGBA images."""
    front = _check_image(front, "front")
    back = _check_image(back, "back")
    if front.shape != back.shape:
        raise ValueError(
            f"image shapes differ: {front.shape} vs {back.shape}"
        )
    alpha_f = front[..., 3:4]
    return front + back * (1.0 - alpha_f)


def composite_stack(
    images: Sequence[np.ndarray], *, front_to_back: bool = True
) -> np.ndarray:
    """Composite an ordered stack of premultiplied RGBA images.

    ``images[0]`` is nearest the eye when ``front_to_back`` is True,
    farthest otherwise. Both orders produce identical results (the
    *over* operator is associative); the flag only declares how the
    sequence is ordered.
    """
    if not images:
        raise ValueError("empty image stack")
    seq = list(images) if front_to_back else list(images)[::-1]
    out = _check_image(seq[0], "images[0]").copy()
    for img in seq[1:]:
        out = composite_over(out, img)
    return out

