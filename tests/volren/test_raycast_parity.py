"""Production render kernels vs their scalar oracles.

The batched transfer-function/cumprod paths in ``render_slab`` and
``render_view`` must be *bitwise* identical to the per-pixel reference
walks in ``tests/oracles/scalar_kernels.py`` -- not merely close.
Early exit is an opacity-threshold mask in production and a loop break
in the oracle; both must leave the image untouched relative to the
no-early-exit composite.
"""

import numpy as np
import pytest

from repro.volren import TransferFunction, render_slab, render_view
from repro.volren.raycast import _composite_view, _sample_view
from tests.oracles.scalar_kernels import (
    render_slab_scalar,
    render_view_scalar,
)


def _random_volume(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape, dtype=np.float32)


def _visited(vol, tf, direction, image_size):
    """``(samples visited, n_samples)`` of production's composite."""
    color, alpha = _sample_view(vol, tf, direction, image_size, 1.0)
    return _composite_view(color, alpha)[1], alpha.shape[2]


class TestRenderSlabParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_identical_random_volumes(self, seed):
        vol = _random_volume((9, 13, 11), seed)
        tf = TransferFunction.fire()
        vec_img, vec_depth = render_slab(vol, tf, return_depth=True)
        ref_img, ref_depth = render_slab_scalar(vol, tf, return_depth=True)
        assert np.array_equal(vec_img, ref_img)
        assert np.array_equal(vec_depth, ref_depth)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("flip", [False, True])
    def test_bitwise_identical_every_axis_and_flip(self, axis, flip):
        vol = _random_volume((8, 10, 12), 77)
        tf = TransferFunction.grayscale()
        vec_img, _ = render_slab(vol, tf, axis=axis, flip=flip)
        ref_img, _ = render_slab_scalar(vol, tf, axis=axis, flip=flip)
        assert np.array_equal(vec_img, ref_img)

    def test_opaque_volume_parity(self):
        # Saturating opacity exercises the early-out masking paths.
        vol = np.ones((12, 8, 8), dtype=np.float32)
        tf = TransferFunction([(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)])
        vec_img, vec_depth = render_slab(vol, tf, return_depth=True)
        ref_img, ref_depth = render_slab_scalar(vol, tf, return_depth=True)
        assert np.array_equal(vec_img, ref_img)
        assert np.array_equal(vec_depth, ref_depth)


class TestRenderViewParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_identical_random_volumes(self, seed):
        vol = _random_volume((10, 10, 10), 100 + seed)
        tf = TransferFunction.fire()
        direction = [(1, 0, 0), (0.4, -0.7, 0.3), (1, 1, 1)][seed]
        vec = render_view(vol, tf, direction, image_size=24)
        ref = render_view_scalar(vol, tf, direction, image_size=24)
        assert np.array_equal(vec, ref)


class TestRenderViewEarlyExit:
    def _opaque_front_volume(self):
        # A fully opaque block fills the volume: every ray saturates
        # within the first few samples, so early exit must trigger.
        return np.ones((12, 12, 12), dtype=np.float32)

    def test_early_exit_triggers_and_is_bitwise_invisible(self):
        # Saturating opacity drives every ray's transparency to exactly
        # 0.0, so every skipped sample's contribution is exactly zero:
        # the break changes nothing but the visit count.
        vol = self._opaque_front_volume()
        tf = TransferFunction([(0, 1, 1, 1, 1.0), (1, 1, 1, 1, 1.0)])
        without_exit = render_view_scalar(
            vol, tf, (1, 0, 0), image_size=16, early_exit=False
        )
        # The break must actually fire...
        visited, n_samples = _visited(vol, tf, (1, 0, 0), 16)
        assert visited < n_samples
        # ...and must not change a single bit of the image, in
        # production or in the oracle's own break.
        assert np.array_equal(
            render_view(vol, tf, (1, 0, 0), image_size=16), without_exit
        )
        assert np.array_equal(
            render_view_scalar(vol, tf, (1, 0, 0), image_size=16),
            without_exit,
        )

    def test_transparent_volume_never_exits_early(self):
        vol = np.zeros((8, 8, 8), dtype=np.float32)
        tf = TransferFunction.grayscale()
        visited, n_samples = _visited(vol, tf, (0, 0, 1), 8)
        assert visited == n_samples
