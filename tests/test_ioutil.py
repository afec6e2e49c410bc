import pytest
from hypothesis import given
from hypothesis import strategies as st

from osdlat import ioutil


@given(st.floats(allow_nan=False))
def test_float_cell_round_trips_to_twelve_figures(x):
    # rounding to 12 significant figures moves x by at most half a unit in
    # its 12th figure, 5e-12 of |x|; the slack covers the float arithmetic
    text = ioutil.fmt(x)
    assert float(text) == pytest.approx(x, rel=5.0001e-12, abs=0)
    assert ioutil.fmt(float(text)) == text
