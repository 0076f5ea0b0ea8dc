"""Tests for time-series dataset containers."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.datagen import (
    CombustionConfig,
    SyntheticTimeSeries,
    TimeSeriesMeta,
    TimeSeriesReader,
    TimeSeriesWriter,
    combustion_field,
)


def small_meta(n=3):
    return TimeSeriesMeta(name="test", shape=(8, 6, 4), n_timesteps=n)


class TestMeta:
    def test_sizes(self):
        meta = TimeSeriesMeta(name="d", shape=(640, 256, 256), n_timesteps=265)
        # The paper's dataset: 160 MB/step, 41.4 GB total (base-10 GB).
        assert meta.bytes_per_timestep == 640 * 256 * 256 * 4
        assert meta.bytes_per_timestep == pytest.approx(167.8e6, rel=0.01)
        assert meta.total_bytes == pytest.approx(44.5e9, rel=0.01)
        assert meta.n_voxels == 640 * 256 * 256

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesMeta(name="x", shape=(0, 4, 4), n_timesteps=1)
        with pytest.raises(ValueError):
            TimeSeriesMeta(name="x", shape=(4, 4, 4), n_timesteps=0)
        with pytest.raises(TypeError):
            TimeSeriesMeta(name="x", shape=(4, 4, 4), n_timesteps=1,
                           dtype="not-a-dtype")


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        meta = small_meta()
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        rng = np.random.default_rng(0)
        fields = [
            rng.random(meta.shape).astype(np.float32) for _ in range(3)
        ]
        for i, f in enumerate(fields):
            writer.write(i, f)
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        assert reader.meta == meta
        for i, f in enumerate(fields):
            np.testing.assert_array_equal(reader.read(i), f)

    def test_slab_read_matches_full_read(self, tmp_path):
        meta = small_meta(1)
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        field = np.arange(np.prod(meta.shape), dtype=np.float32).reshape(
            meta.shape
        )
        writer.write(0, field)
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        slab = reader.read_slab(0, 2, 5)
        np.testing.assert_array_equal(slab, field[2:5])

    def test_write_wrong_shape_rejected(self, tmp_path):
        writer = TimeSeriesWriter(str(tmp_path / "ds"), small_meta())
        with pytest.raises(ValueError):
            writer.write(0, np.zeros((2, 2, 2), dtype=np.float32))

    def test_read_is_a_read_only_view_of_the_brick(self, tmp_path):
        meta = small_meta(1)
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        rng = np.random.default_rng(1)
        path = writer.write(0, rng.random(meta.shape).astype(np.float32))
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        slab = reader.read_slab(0, 3, 7)
        assert not slab.flags.writeable
        with pytest.raises(ValueError):
            slab[0, 0, 0] = 1.0
        on_disk = np.fromfile(path, dtype=np.float32).reshape(meta.shape)
        assert slab.tobytes() == on_disk[3:7].tobytes()
        assert reader.read(0).tobytes() == on_disk.tobytes()

    def test_mapped_read_allocates_no_copy(self, tmp_path):
        meta = TimeSeriesMeta(name="mb", shape=(16, 128, 128), n_timesteps=1)
        assert meta.bytes_per_timestep == 1 << 20
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        writer.write(0, np.ones(meta.shape, dtype=np.float32))
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        reader.read_slab(0, 0, 1)  # warm the code path
        tracemalloc.start()
        try:
            brick = reader.read(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak} bytes"
        assert (brick == 1.0).all()

    def test_rewrite_leaves_a_held_view_on_the_old_bytes(self, tmp_path):
        meta = small_meta(1)
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        old = np.full(meta.shape, 1.0, dtype=np.float32)
        new = np.full(meta.shape, 2.0, dtype=np.float32)
        writer.write(0, old)
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        held = reader.read(0)
        writer.write(0, new)
        np.testing.assert_array_equal(held, old)
        np.testing.assert_array_equal(reader.read(0), new)
        assert sorted(os.listdir(tmp_path / "ds")) == [
            "dataset.json", "t00000.raw"
        ]

    @pytest.mark.parametrize("size", [0, 7, 100])
    def test_short_or_empty_brick_names_its_path(self, tmp_path, size):
        meta = small_meta(1)
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        path = writer.write(0, np.zeros(meta.shape, dtype=np.float32))
        with open(path, "r+b") as f:
            f.truncate(size)
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        with pytest.raises(ValueError, match="t00000.raw.*holds %d bytes" % size):
            reader.read_slab(0, 0, 1)

    def test_out_of_range_timestep(self, tmp_path):
        meta = small_meta()
        writer = TimeSeriesWriter(str(tmp_path / "ds"), meta)
        with pytest.raises(IndexError):
            writer.write(5, np.zeros(meta.shape, dtype=np.float32))
        writer.write(0, np.zeros(meta.shape, dtype=np.float32))
        reader = TimeSeriesReader(str(tmp_path / "ds"))
        with pytest.raises(IndexError):
            reader.read(5)
        with pytest.raises(IndexError):
            reader.read_slab(0, 4, 2)


class TestSynthetic:
    def test_generates_on_demand(self):
        cfg = CombustionConfig(shape=(8, 6, 4))
        meta = TimeSeriesMeta(name="s", shape=(8, 6, 4), n_timesteps=4)
        ts = SyntheticTimeSeries(
            meta, lambda t: combustion_field(t, cfg), dt=0.5
        )
        f0 = ts.timestep(0)
        f1 = ts.timestep(1)
        assert f0.shape == meta.shape
        assert not np.array_equal(f0, f1)
        assert ts.time_of(2) == 1.0

    def test_memoised(self):
        calls = []

        def fn(t):
            calls.append(t)
            return np.zeros((4, 4, 4), dtype=np.float32)

        meta = TimeSeriesMeta(name="s", shape=(4, 4, 4), n_timesteps=2)
        ts = SyntheticTimeSeries(meta, fn)
        ts.timestep(0)
        ts.timestep(0)
        assert calls == [0.0]

    def test_slab_access(self):
        meta = TimeSeriesMeta(name="s", shape=(8, 4, 4), n_timesteps=1)
        full = np.arange(8 * 4 * 4, dtype=np.float32).reshape((8, 4, 4))
        ts = SyntheticTimeSeries(meta, lambda t: full)
        np.testing.assert_array_equal(ts.slab(0, 2, 6), full[2:6])
        with pytest.raises(IndexError):
            ts.slab(0, 6, 2)

    def test_shape_mismatch_rejected(self):
        meta = TimeSeriesMeta(name="s", shape=(4, 4, 4), n_timesteps=1)
        ts = SyntheticTimeSeries(
            meta, lambda t: np.zeros((2, 2, 2), dtype=np.float32)
        )
        with pytest.raises(ValueError):
            ts.timestep(0)

    def test_bad_dt(self):
        meta = small_meta()
        with pytest.raises(ValueError):
            SyntheticTimeSeries(meta, lambda t: None, dt=0.0)
