"""Property-based tests of the Monte Carlo Doppler kernel."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nbofdma.numerics import sinc_squared  # noqa: E402

# derandomized and without an example database, so a run is repeatable and
# leaves no files behind
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

gaps = st.integers(min_value=-1000, max_value=1000)
offsets = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@PROPERTY
@given(gaps, st.integers(min_value=-5, max_value=5))
def test_whole_number_offsets_off_the_centre_give_zero(gap, whole):
    value = sinc_squared(float(gap), np.array([float(whole)]))[0]
    assert value == (1.0 if gap + whole == 0 else 0.0)


@PROPERTY
@given(gaps, offsets)
def test_never_above_one(gap, offset):
    assert sinc_squared(float(gap), np.array([offset]))[0] <= 1.0


@PROPERTY
@given(gaps, offsets)
def test_even_bit_for_bit(gap, offset):
    forward = sinc_squared(float(gap), np.array([offset]))
    backward = sinc_squared(-float(gap), np.array([-offset]))
    assert forward.view(np.uint64)[0] == backward.view(np.uint64)[0]
