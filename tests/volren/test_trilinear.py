"""``trilinear`` vs ``scipy.ndimage.map_coordinates``, bit for bit.

The ray casters sampled through scipy until ``trilinear`` replaced it;
``tests/oracles/scipy_trilinear.py`` keeps the scipy call, and every
sample must come out identical -- not merely close -- on degenerate
axes, integer and face coordinates, points past the edges and
non-finite coordinates alike.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.volren.raycast import trilinear
from tests.oracles.scipy_trilinear import scipy_trilinear

_NON_FINITE = [np.nan, np.inf, -np.inf, 1e300, -1e300]


def _coordinate(n):
    """One voxel-index coordinate along an axis of length ``n``."""
    faces = [0.0, -0.0, float(n - 1)]
    just_outside = [np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n)]
    return st.one_of(
        st.floats(-1.5, n + 0.5),  # interior and up to 1.5 voxels out
        st.floats(0.0, 1.0),  # fractions where 1 - (1 - f) != f
        st.integers(-2, n + 1).map(float),
        st.sampled_from(faces + just_outside),
        st.sampled_from(_NON_FINITE),
    )


@st.composite
def _volume_and_coords(draw):
    shape = tuple(
        draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 8)))
        for _ in range(3)
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    volume = draw(
        arrays(dtype, shape, elements=st.floats(-1e6, 1e6, width=32))
    )
    n_points = draw(st.integers(1, 32))
    coords = np.array(
        [[draw(_coordinate(n)) for n in shape] for _ in range(n_points)]
    )
    return volume, coords


@settings(max_examples=300, deadline=None)
@given(_volume_and_coords())
def test_bitwise_identical_to_map_coordinates(case):
    volume, coords = case
    ours = trilinear(volume, coords)
    assert ours.dtype == volume.dtype
    assert np.array_equal(ours, scipy_trilinear(volume, coords))


def test_upper_face_takes_the_last_voxel():
    volume = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    faces = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(trilinear(volume, faces), [0.0, 7.0, 5.0])


def test_grid_of_points_keeps_its_shape():
    rng = np.random.default_rng(5)
    volume = rng.random((6, 5, 4), dtype=np.float32)
    coords = rng.uniform(-0.5, 5.5, size=(7, 9, 3))
    ours = trilinear(volume, coords)
    assert ours.shape == (7, 9)
    assert np.array_equal(ours, scipy_trilinear(volume, coords))
