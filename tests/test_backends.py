import numpy as np

from kostant_toda import random_state
from kostant_toda.backends import pack_state, unpack_bands


def test_pack_unpack_round_trip():
    st = random_state(3, 8)
    y = pack_state(st.a, st.b, st.c)
    assert y.shape == (3 * 8,)
    a, b, c, q = unpack_bands(y, 8)
    assert np.array_equal(a, st.a)
    assert np.array_equal(b, st.b)
    assert np.array_equal(c, st.c)
    assert np.array_equal(q, [0, 0, 0])
