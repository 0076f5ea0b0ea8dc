"""Tests for transfer functions and Porter-Duff compositing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.volren import TransferFunction, composite_over, composite_stack


class TestTransferFunction:
    def test_interpolates_linearly(self):
        tf = TransferFunction(
            [(0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.5, 0.0, 1.0)]
        )
        rgba = tf(np.array([0.5]))
        np.testing.assert_allclose(rgba[0], [0.5, 0.25, 0.0, 0.5], atol=1e-6)

    def test_clamps_out_of_range(self):
        tf = TransferFunction.grayscale()
        rgba = tf(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(rgba[0], tf(np.array([0.0]))[0])
        np.testing.assert_allclose(rgba[1], tf(np.array([1.0]))[0])

    def test_output_shape(self):
        tf = TransferFunction.fire()
        scalars = np.zeros((3, 4, 5))
        assert tf(scalars).shape == (3, 4, 5, 4)

    def test_opacity_matches_alpha_channel(self):
        tf = TransferFunction.fire()
        s = np.linspace(0, 1, 16)
        np.testing.assert_allclose(tf.opacity(s), tf(s)[..., 3], atol=1e-6)

    def test_presets_valid(self):
        for preset in (
            TransferFunction.grayscale(),
            TransferFunction.fire(),
            TransferFunction.opaque_fire(),
            TransferFunction.cool(),
        ):
            rgba = preset(np.linspace(0, 1, 8))
            assert rgba.min() >= 0.0 and rgba.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferFunction([(0.0, 0, 0, 0, 0)])  # one point
        with pytest.raises(ValueError):
            TransferFunction(
                [(0.0, 0, 0, 0, 0), (0.0, 1, 1, 1, 1)]
            )  # duplicate values
        with pytest.raises(ValueError):
            TransferFunction(
                [(0.0, 0, 0, 0, 0), (1.0, 2.0, 0, 0, 1)]
            )  # out of range


class TestCompositing:
    def test_opaque_front_hides_back(self):
        front = np.zeros((2, 2, 4), np.float32)
        front[..., 0] = 1.0  # premultiplied red
        front[..., 3] = 1.0
        back = np.zeros((2, 2, 4), np.float32)
        back[..., 1] = 1.0
        back[..., 3] = 1.0
        out = composite_over(front, back)
        np.testing.assert_allclose(out[..., 0], 1.0)
        np.testing.assert_allclose(out[..., 1], 0.0)

    def test_transparent_front_passes_back(self):
        front = np.zeros((2, 2, 4), np.float32)
        back = np.full((2, 2, 4), 0.6, dtype=np.float32)
        np.testing.assert_allclose(composite_over(front, back), back)

    def test_half_alpha_blend(self):
        front = np.zeros((1, 1, 4), np.float32)
        front[..., :] = [0.5, 0.0, 0.0, 0.5]  # premult red at a=0.5
        back = np.zeros((1, 1, 4), np.float32)
        back[..., :] = [0.0, 1.0, 0.0, 1.0]
        out = composite_over(front, back)
        np.testing.assert_allclose(out[0, 0], [0.5, 0.5, 0.0, 1.0], atol=1e-6)

    def test_stack_order_flag_consistency(self):
        rng = np.random.default_rng(0)
        imgs = []
        for _ in range(4):
            a = rng.random((3, 3, 1)).astype(np.float32) * 0.8
            rgb = rng.random((3, 3, 3)).astype(np.float32) * a
            imgs.append(np.concatenate([rgb, a], axis=2))
        ftb = composite_stack(imgs, front_to_back=True)
        btf = composite_stack(imgs[::-1], front_to_back=False)
        np.testing.assert_allclose(ftb, btf, atol=1e-6)

    def test_stack_requires_images(self):
        with pytest.raises(ValueError):
            composite_stack([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite_over(
                np.zeros((2, 2, 4), np.float32), np.zeros((3, 3, 4), np.float32)
            )
        with pytest.raises(ValueError):
            composite_over(
                np.zeros((2, 2, 3), np.float32), np.zeros((2, 2, 3), np.float32)
            )

    @settings(max_examples=50, deadline=None)
    @given(
        imgs=st.lists(
            hnp.arrays(
                np.float32,
                (2, 2, 4),
                elements=st.floats(
                    min_value=0.0, max_value=0.5, width=32
                ),
            ),
            min_size=3,
            max_size=5,
        )
    )
    def test_over_is_associative(self, imgs):
        """Premultiplied *over* composes associatively (section 3.2
        relies on this for ordered parallel recombination)."""
        a, b, c = imgs[0], imgs[1], imgs[2]
        left = composite_over(composite_over(a, b), c)
        right = composite_over(a, composite_over(b, c))
        np.testing.assert_allclose(left, right, atol=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(
        img=hnp.arrays(
            np.float32,
            (3, 3, 4),
            elements=st.floats(min_value=0.0, max_value=1.0, width=32),
        )
    )
    def test_transparent_is_identity(self, img):
        clear = np.zeros((3, 3, 4), np.float32)
        np.testing.assert_allclose(composite_over(clear, img), img)
        np.testing.assert_allclose(composite_over(img, clear), img, atol=1e-6)
