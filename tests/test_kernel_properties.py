"""Property tests for the Matrix kernels over GF(2), GF(4), GF(7), GF(9),
GF(8), GF(16), GF(256) and GF(512): lanes of 1 to 4 bits, and entry tuples
in odd characteristic and above GF(16).

The kernels build their results without validation, so besides the
algebraic invariants every output is checked to be exactly what the
validating public constructor would build from the same rows.  Examples are
derandomized, so a run is reproducible and writes no example database.
"""

import pytest
from hypothesis import given, settings, strategies as st

from iccsi.galois import (
    Matrix,
    field_new,
    hstack,
    mat_rank,
    mat_rref,
    null_space,
    solve_left,
    vstack,
)

FIELDS = [field_new(2), field_new(2, 2), field_new(7), field_new(3, 2)] + [
    field_new(2, e) for e in (3, 4, 8, 9)
]

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
# Fields drawn per example: 20 examples per field on average.
SAMPLED = settings(PROPERTY, max_examples=160)

fields = st.sampled_from(FIELDS)
dims = st.integers(0, 5)


@st.composite
def matrix_over(draw, f, nrows, ncols):
    rows = draw(
        st.lists(
            st.lists(st.integers(0, f.q - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(f, rows, ncols)


@st.composite
def matrices(draw):
    """A matrix of any small shape; half of them are low-rank products."""
    f = draw(fields)
    nrows, ncols = draw(dims), draw(dims)
    if draw(st.booleans()):
        inner = draw(st.integers(0, 2))
        return draw(matrix_over(f, nrows, inner)) * draw(matrix_over(f, inner, ncols))
    return draw(matrix_over(f, nrows, ncols))


@st.composite
def products(draw):
    f = draw(fields)
    n, k, m = draw(dims), draw(dims), draw(dims)
    return draw(matrix_over(f, n, k)), draw(matrix_over(f, k, m))


@st.composite
def systems(draw):
    """(a, b) with b.ncols == a.ncols; b lies in the row space of a half the time."""
    a = draw(matrices())
    k = draw(dims)
    if draw(st.booleans()):
        b = draw(matrix_over(a.field, k, a.nrows)) * a
    else:
        b = draw(matrix_over(a.field, k, a.ncols))
    return a, b


def assert_valid(out):
    """out is exactly what the validating constructor makes of its rows."""
    assert type(out.rows) is tuple
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in out.rows)
    assert out == Matrix(out.field, out.rows, out.ncols)
    assert out.nrows == len(out.rows)


def naive_product(a, b):
    f = a.field
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            row.append(acc)
        rows.append(row)
    return Matrix(f, rows, b.ncols)


@SAMPLED
@given(products())
def test_product_matches_triple_loop(ab):
    a, b = ab
    out = a * b
    assert_valid(out)
    assert out == naive_product(a, b)


@SAMPLED
@given(matrices())
def test_rref_transform_and_rank(m):
    res = mat_rref(m)
    assert_valid(res.rref)
    assert_valid(res.transform)
    assert res.transform * m == res.rref
    assert mat_rank(res.transform) == m.nrows
    assert mat_rank(m) == res.rank
    for i, pc in enumerate(res.pivots):
        assert res.rref[i, pc] == 1
        assert all(res.rref[k, pc] == 0 for k in range(m.nrows) if k != i)
    assert all(not any(r) for r in res.rref.rows[res.rank:])


@SAMPLED
@given(matrices())
def test_null_space_is_a_kernel_basis(m):
    ns = null_space(m)
    assert_valid(ns)
    assert ns.nrows == m.ncols
    assert ns.ncols == m.ncols - mat_rank(m)
    assert (m * ns).is_zero()
    assert mat_rank(ns) == ns.ncols


@SAMPLED
@given(systems())
def test_solve_left_solves_when_it_answers(ab):
    a, b = ab
    x = solve_left(a, b)
    if x is None:
        assert mat_rank(vstack(a, b)) > mat_rank(a)
    else:
        assert_valid(x)
        assert x.nrows == b.nrows and x.ncols == a.nrows
        assert x * a == b


@SAMPLED
@given(matrices(), st.data())
def test_elementwise_and_shape_kernels_stay_valid(m, data):
    f = m.field
    other = data.draw(matrix_over(f, m.nrows, m.ncols))
    c = data.draw(st.integers(0, f.q - 1))
    outs = [m + other, m - other, -m, m.scale(c), m.transpose()]
    outs.append(m.take_rows(data.draw(st.lists(st.integers(0, m.nrows - 1))) if m.nrows else ()))
    outs.append(m.take_cols(data.draw(st.lists(st.integers(0, m.ncols - 1))) if m.ncols else ()))
    outs.append(vstack(m, other))
    outs.append(hstack(m, other))
    outs.append(Matrix.zeros(f, m.nrows, m.ncols))
    outs.append(Matrix.identity(f, m.ncols))
    for out in outs:
        assert_valid(out)
    assert (m - other) + other == m
    assert m + (-m) == Matrix.zeros(f, m.nrows, m.ncols)
    assert m.transpose().transpose() == m
    assert m * Matrix.identity(f, m.ncols) == m


@SAMPLED
@given(fields, st.integers(1, 4), st.integers(1, 4), st.data())
def test_public_constructor_rejects_bad_entries(f, nrows, ncols, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, f.q - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, ncols - 1))
    rows[i][j] = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=f.q)))
    with pytest.raises(ValueError, match="outside field"):
        Matrix(f, rows, ncols)


@SAMPLED
@given(fields, st.integers(2, 4), st.integers(1, 4), st.data())
def test_public_constructor_rejects_ragged_rows(f, nrows, ncols, data):
    rows = [[0] * ncols for _ in range(nrows)]
    i = data.draw(st.integers(1, nrows - 1))
    rows[i] = [0] * data.draw(st.integers(0, 6).filter(lambda k: k != ncols))
    with pytest.raises(ValueError, match="ragged"):
        Matrix(f, rows)
