"""Round-trip properties of the two serialized formats over GF(2), GF(4),
GF(7) and GF(9): broadcast frames and instance JSON.

Examples are derandomized as in ``test_kernel_properties``, so a run is
reproducible and writes no example database.
"""

import io
import json

import pytest
from hypothesis import assume, given, strategies as st
from test_kernel_properties import FIELDS, PROPERTY, fields, matrix_over

from iccsi.decoders import read_frame, write_frame
from iccsi.instance import InstanceError, make_instance, parse_instance, serialize_instance


@PROPERTY
@given(fields, st.integers(0, 3), st.integers(0, 4), st.integers(0, 4), st.data())
def test_frame_round_trip(f, v, N, ell, data):
    payload = data.draw(matrix_over(f, v + N, v + ell))
    flags = data.draw(st.integers(0, 0xFFFF))
    buf = io.BytesIO()
    write_frame(buf, payload, v, ell, flags)
    buf.seek(0)
    back, header = read_frame(buf)
    assert back == payload
    assert header == {"v": v, "N": N, "ell": ell, "flags": flags}
    assert buf.read() == b""


@st.composite
def instances(draw, f):
    """A valid instance over f: a random sender space and 1-3 users, caches
    possibly empty."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.integers(0, f.q - 1)
    row = st.lists(entries, min_size=n, max_size=n)
    sender = draw(st.lists(row, min_size=1, max_size=n))
    users = draw(
        st.lists(st.tuples(st.lists(row, max_size=n - 1), row), min_size=1, max_size=3)
    )
    try:
        return make_instance(f, t, n, sender, users)
    except InstanceError:
        assume(False)


# One run per field: over GF(2) most random requests are refused, so a
# field drawn per example would leave few GF(2) instances.
@pytest.mark.parametrize("f", FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_instance_round_trip(f, data):
    inst = data.draw(instances(f))
    doc = serialize_instance(inst)
    assert parse_instance(doc) == inst
    assert parse_instance(json.dumps(doc)) == inst
