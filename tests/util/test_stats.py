"""The pure-Python percentile against ``np.percentile``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import percentile as service_percentile
from repro.util.stats import percentile

FINITE = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def same_bits(values, q):
    ours = percentile(values, q)
    theirs = float(np.percentile(np.asarray(values, dtype=float), q))
    assert type(ours) is float
    assert ours.hex() == theirs.hex(), (values, q, ours, theirs)


@pytest.mark.parametrize("q", [0, 50, 95, 99, 100, 0.0, 99.9, 37.5])
@pytest.mark.parametrize("values", [
    [3.0],
    [-0.0],
    [2.0, 2.0, 2.0],
    [1.0, 5.0, 5.0, 5.0, 9.0],
    [0.1, 0.7, 0.2, 0.9, 0.4, 0.3],
    [10, 3, 7],
    list(range(101)),
])
def test_matches_numpy_on_fixed_samples(values, q):
    same_bits(values, q)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(FINITE, min_size=1, max_size=60),
    q=st.one_of(
        st.sampled_from([0, 50, 95, 99, 100]),
        st.floats(min_value=0.0, max_value=100.0),
    ),
)
def test_matches_numpy_on_random_samples(values, q):
    same_bits(values, q)


def test_empty_sample_is_zero():
    assert percentile([], 99) == 0.0


@pytest.mark.parametrize("q", [-0.1, 100.5, float("nan")])
def test_q_outside_the_range_raises(q):
    with pytest.raises(ValueError, match="q must be in"):
        percentile([1.0, 2.0], q)


def test_nan_sample_raises():
    with pytest.raises(ValueError, match="NaN"):
        percentile([1.0, float("nan"), 2.0], 50)


def test_service_name_is_the_same_function():
    assert service_percentile is percentile
