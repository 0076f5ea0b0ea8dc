"""Tests for the slab decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.volren import SubVolume, slab_decompose


class TestSubVolume:
    def test_shape_voxels_extract(self):
        sub = SubVolume(0, (2, 0, 1), (5, 4, 3))
        assert sub.shape == (3, 4, 2)
        assert sub.n_voxels == 24
        vol = np.arange(6 * 4 * 4).reshape(6, 4, 4)
        np.testing.assert_array_equal(sub.extract(vol), vol[2:5, 0:4, 1:3])

    def test_center(self):
        sub = SubVolume(0, (0, 0, 0), (4, 8, 8))
        assert sub.center((8, 8, 8)) == (0.25, 0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubVolume(-1, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            SubVolume(0, (1, 0, 0), (1, 2, 2))


class TestSlab:
    def test_even_split(self):
        subs = slab_decompose((8, 4, 4), 4)
        assert len(subs) == 4
        assert all(s.shape == (2, 4, 4) for s in subs)
        assert [s.rank for s in subs] == [0, 1, 2, 3]

    def test_uneven_split_covers_domain(self):
        subs = slab_decompose((10, 4, 4), 3)
        total = sum(s.n_voxels for s in subs)
        assert total == 10 * 4 * 4
        # Contiguous, non-overlapping along x.
        for a, b in zip(subs, subs[1:]):
            assert a.hi[0] == b.lo[0]

    def test_axis_selection(self):
        subs = slab_decompose((4, 8, 4), 2, axis=1)
        assert all(s.shape == (4, 4, 4) for s in subs)

    def test_too_many_slabs_rejected(self):
        with pytest.raises(ValueError):
            slab_decompose((4, 16, 16), 8, axis=0)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            slab_decompose((8, 8, 8), 2, axis=3)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    shape=st.tuples(
        st.integers(min_value=12, max_value=40),
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=4, max_value=16),
    ),
)
def test_slab_partition_properties(n, shape):
    """Slabs tile the domain exactly: disjoint, complete, ordered."""
    subs = slab_decompose(shape, n)
    assert len(subs) == n
    assert sum(s.n_voxels for s in subs) == np.prod(shape)
    assert subs[0].lo[0] == 0
    assert subs[-1].hi[0] == shape[0]
    for a, b in zip(subs, subs[1:]):
        assert a.hi[0] == b.lo[0]
    # Balanced to within one row of voxels.
    widths = [s.shape[0] for s in subs]
    assert max(widths) - min(widths) <= 1
