"""Round-trip properties of the serialized formats over the fields of
``test_kernel_properties``: broadcast frames, instance JSON and encoder JSON.

Examples are derandomized as in ``test_kernel_properties``, so a run is
reproducible and writes no example database.
"""

import io
import json

import pytest
from hypothesis import assume, given, strategies as st
from test_kernel_properties import FIELDS, PROPERTY, fields, matrix_over

from iccsi.codec import (
    HAMMING,
    RANK,
    EcicCertificate,
    encoder_from_dict,
    encoder_to_dict,
    make_encoder,
)
from iccsi.decoders import read_frame, write_frame
from iccsi.galois import Matrix
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


@st.composite
def valid_instances(draw, f):
    """An instance over f that is valid by construction, so none is refused:
    the full sender space, and 1-3 users, each requesting a unit row e_j
    with cache rows that are 0 in column j."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
    users = []
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, n - 1))
        cache = draw(st.lists(row, max_size=n - 1))
        users.append(([r[:j] + [0] + r[j + 1:] for r in cache], [int(c == j) for c in range(n)]))
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    return make_instance(f, t, n, ident, users)


@st.composite
def confusables(draw, u, width):
    """Z = K C for the kernel basis K of the user's V: V Z = 0, and R Z != 0,
    as R K != 0 and C gains a unit entry where R K is nonzero when R K C is
    zero."""
    K = u.kernel
    C = draw(matrix_over(u.V.field, K.ncols, width))
    if (u.R * K * C).is_zero():
        j = next(j for j, x in enumerate((u.R * K).rows[0]) if x)
        C = C + Matrix(u.V.field, [[int(r == j and c == 0) for c in range(width)]
                                   for r in range(K.ncols)], width)
    return K * C


@st.composite
def encoders(draw, inst):
    """An encoder for inst of length 0-3, with no certificate or with a
    failing one that holds 1-m violations of the shape its metric checks:
    n x 1 for Hamming (the one-symbol view), n x t for rank, each a
    confusable of its user."""
    f = inst.field
    L = draw(matrix_over(f, draw(st.integers(0, 3)), inst.d_S))
    cert = None
    if draw(st.booleans()):
        metric = draw(st.sampled_from([HAMMING, RANK]))
        width = 1 if metric == HAMMING else inst.t
        users = draw(st.lists(st.integers(0, inst.m - 1), min_size=1, max_size=inst.m))
        cert = EcicCertificate(
            draw(st.integers(0, 3)),
            metric,
            draw(st.integers(0, 10**6)),
            tuple((i, draw(confusables(inst.users[i], width))) for i in users),
        )
    provenance = draw(st.sampled_from(["coset", "random", "concatenated", "manual"]))
    return make_encoder(L, inst, provenance, cert)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@PROPERTY
@given(data=st.data())
def test_encoder_round_trip(f, data):
    inst = data.draw(valid_instances(f))
    enc = data.draw(encoders(inst))
    doc = encoder_to_dict(enc)
    assert encoder_from_dict(doc, inst) == enc
    assert encoder_from_dict(json.loads(json.dumps(doc)), inst) == enc
