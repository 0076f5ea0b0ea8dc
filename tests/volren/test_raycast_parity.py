"""Production render kernels vs their scalar oracles.

The slice-at-a-time composites in ``render_slab`` and ``render_view``
must be *bitwise* identical to the per-pixel reference
walks in ``tests/oracles/scalar_kernels.py`` -- not merely close.
Early exit is an opacity-threshold mask in production and a loop break
in the oracle; both must leave the image untouched relative to the
no-early-exit composite.
"""

import tracemalloc

import numpy as np
import pytest

from repro.volren import TransferFunction, render_slab, render_view
from repro.volren.raycast import _composite_view, _sample_view
from tests.oracles.scalar_kernels import (
    render_slab_scalar,
    render_view_scalar,
)
from tests.helpers import COOL_POINTS


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


class TestStreamingSlabShapes:
    """Inputs on which a slice-at-a-time loop differs in shape from a
    whole-slab stack: depth on every orientation, a one-slice slab,
    non-square slices, other dtypes, strided views."""

    def _assert_parity(self, vol, tf, **kwargs):
        vec_img, vec_depth = render_slab(vol, tf, return_depth=True, **kwargs)
        ref_img, ref_depth = render_slab_scalar(
            vol, tf, return_depth=True, **kwargs
        )
        assert vec_img.dtype == np.float32 and vec_img.flags.c_contiguous
        assert np.array_equal(vec_img, ref_img)
        assert np.array_equal(vec_depth, ref_depth)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("flip", [False, True])
    def test_depth_on_every_axis_and_flip(self, axis, flip):
        vol = _random_volume((6, 7, 5), 31)
        self._assert_parity(vol, TransferFunction.fire(), axis=axis, flip=flip)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_single_slice_slab(self, axis):
        shape = [6, 5, 4]
        shape[axis] = 1
        vol = _random_volume(tuple(shape), 32)
        self._assert_parity(vol, TransferFunction(COOL_POINTS), axis=axis)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_square_slices(self, axis):
        vol = _random_volume((5, 7, 3), 33)
        self._assert_parity(vol, TransferFunction.opaque_fire(), axis=axis)

    def test_uint8_volume(self):
        # Everything above 0 clamps to 1: the clamp must see the
        # integers, not a float32 image of them.
        rng = np.random.default_rng(34)
        vol = rng.integers(0, 3, size=(4, 6, 5), dtype=np.uint8)
        self._assert_parity(vol, TransferFunction.fire(), axis=1)

    def test_float64_volume_out_of_range(self):
        rng = np.random.default_rng(35)
        vol = rng.random((4, 6, 5)) * 1.5 - 0.25
        self._assert_parity(vol, TransferFunction.fire(), axis=2, flip=True)

    def test_non_contiguous_input(self):
        base = _random_volume((5, 6, 7), 36)
        vol = np.moveaxis(base, 2, 0)[:, ::2]
        assert not vol.flags.c_contiguous
        self._assert_parity(vol, TransferFunction.fire(), axis=1)

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4)])
    def test_planar_evaluation_equals_call(self, shape):
        rng = np.random.default_rng(37)
        scalars = rng.random(shape) * 1.4 - 0.2
        for tf in (TransferFunction.fire(), TransferFunction.opaque_fire()):
            planar = np.empty((4,) + shape, dtype=np.float32)
            tf.planar(scalars, planar)
            interleaved = tf(scalars)
            assert interleaved.shape == shape + (4,)
            for c in range(4):
                assert np.array_equal(planar[c], interleaved[..., c])

    def test_no_slab_sized_allocation(self):
        # A whole-slab RGBA stack of this input is 4 MB (12.6 MB peak
        # before the loop streamed); slice-sized buffers stay near 1 MB.
        vol = _random_volume((16, 128, 128), 38)
        tf = TransferFunction.fire()
        render_slab(vol[:2], tf)  # warm imports and numpy's caches
        tracemalloc.start()
        try:
            render_slab(vol, tf, return_depth=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MB"


class TestEmptyVolumeRefused:
    @pytest.mark.parametrize("empty_axis", [0, 1, 2])
    def test_zero_length_axis_raises_value_error(self, empty_axis):
        shape = [4, 4, 4]
        shape[empty_axis] = 0
        vol = np.zeros(tuple(shape), dtype=np.float32)
        tf = TransferFunction.fire()
        for axis in range(3):
            with pytest.raises(ValueError, match=r"empty axis.*\(.*0.*\)"):
                render_slab(vol, tf, axis=axis)
        with pytest.raises(ValueError, match="empty axis"):
            render_view(vol, tf, (1, 0, 0), image_size=8)
