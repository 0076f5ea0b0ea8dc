"""Tests for units, validation, RNG helpers and the image writer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    GB,
    GIGABIT_ETHERNET,
    KB,
    MB,
    OC12,
    OC48,
    OC192,
    bytes_per_sec_to_mbps,
    check_in_range,
    check_non_negative,
    check_positive,
    fmt_seconds,
    make_rng,
    mbps,
    spawn_rngs,
)
from repro.util.image import rgba_to_rgb, save_ppm


class TestUnits:
    def test_rate_constants(self):
        assert bytes_per_sec_to_mbps(OC12) == pytest.approx(622.0)
        assert bytes_per_sec_to_mbps(OC48) == pytest.approx(2488.0)
        assert bytes_per_sec_to_mbps(OC192) == pytest.approx(9953.0)
        assert bytes_per_sec_to_mbps(GIGABIT_ETHERNET) == pytest.approx(1000.0)

    def test_mbps_roundtrip(self):
        assert bytes_per_sec_to_mbps(mbps(433.0)) == pytest.approx(433.0)

    def test_sizes(self):
        assert KB == 1e3 and MB == 1e6 and GB == 1e9

    def test_paper_arithmetic(self):
        """265 x 160 MB = 42.4e9 bytes ~= the paper's 41.4 GB."""
        total = 265 * 160 * MB
        assert total / GB == pytest.approx(42.4, rel=0.001)

    def test_formatting(self):
        assert fmt_seconds(3600) == "1.00 h"
        assert fmt_seconds(90) == "1.5 min"
        assert fmt_seconds(2.5) == "2.50 s"
        assert fmt_seconds(0.005) == "5.00 ms"

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.001, max_value=1e6))
    def test_mbps_inverse_property(self, value):
        assert bytes_per_sec_to_mbps(mbps(value)) == pytest.approx(value)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_in_range(self):
        assert check_in_range("x", 0.5, 0, 1) == 0.5
        assert check_in_range("x", 0.0, 0, 1) == 0.0
        with pytest.raises(ValueError):
            check_in_range("x", -0.1, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 2.0, 0, 1)


class TestRng:
    def test_make_rng_from_seed(self):
        a = make_rng(42).random(4)
        b = make_rng(42).random(4)
        np.testing.assert_array_equal(a, b)

    def test_make_rng_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_spawn_independent_streams(self):
        streams = spawn_rngs(7, 3)
        draws = [r.random(8) for r in streams]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_deterministic(self):
        a = [r.random(4) for r in spawn_rngs(7, 2)]
        b = [r.random(4) for r in spawn_rngs(7, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
        assert spawn_rngs(0, 0) == []


class TestImage:
    def test_rgba_to_rgb_composites_background(self):
        img = np.zeros((2, 2, 4), np.float32)
        img[0, 0] = [1, 0, 0, 1]  # opaque red
        rgb = rgba_to_rgb(img)
        np.testing.assert_array_equal(rgb[0, 0], [255, 0, 0])
        np.testing.assert_array_equal(rgb[1, 1], [0, 0, 0])

    def test_save_ppm_roundtrip_header(self, tmp_path):
        img = np.random.default_rng(0).random((4, 6, 4)).astype(np.float32)
        img[..., :3] *= img[..., 3:]
        path = save_ppm(str(tmp_path / "t.ppm"), img)
        data = open(path, "rb").read()
        assert data.startswith(b"P6\n6 4\n255\n")
        assert len(data) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            rgba_to_rgb(np.zeros((2, 2, 3), np.float32))
        with pytest.raises(ValueError):
            save_ppm(str(tmp_path / "x.ppm"), np.zeros((2, 2), np.float32))
