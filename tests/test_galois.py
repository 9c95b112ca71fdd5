"""Exact finite-field arithmetic and the small linear-algebra kernel."""

import itertools
import operator
import random
import time

import pytest
from conftest import iter_subspace_bases

from iccsi.galois import (
    Field,
    Matrix,
    field_new,
    field_of_order,
    gaussian_binomial,
    hamming_weight,
    hstack,
    iter_vectors,
    mat_rank,
    mat_rref,
    null_space,
    rank_weight,
    row_basis,
    row_space_contains,
    solve_left,
    sphere_vol_hamming,
    sphere_vol_rank,
    vstack,
    weight,
)

FIELDS = [field_new(2, 1), field_new(3, 1), field_new(2, 2), field_new(2, 3), field_new(3, 2)]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"GF{f.q}")
def test_field_axioms_exhaustive(f):
    els = list(f.elements())
    for a, b in itertools.product(els, els):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in itertools.product(els, els, els):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8), (2, 9), (3, 6)])
def test_scaler_is_mul(p, e):
    # a product-table row up to q = 256, a partial of mul above
    f = field_new(p, e)
    for a in range(0, f.q, max(1, f.q // 40)):
        scale = f.scaler(a)
        assert list(map(scale, f.elements())) == [f.mul(a, x) for x in f.elements()]


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"GF{f.q}")
def test_field_inverses_and_powers(f):
    for a in f.elements():
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.q - 1) == 1
        assert f.pow(a, 1) == a
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    # the stored generator really generates the multiplicative group
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        seen.add(x)
        x = f.mul(x, f.generator)
    assert len(seen) == f.q - 1


def _brute_force_generator(f):
    """First candidate whose powers reach every nonzero element."""
    for cand in range(1, f.q):
        seen, x = 1, cand
        while x != 1:
            x = f._mul_raw(x, cand)
            seen += 1
        if seen == f.q - 1:
            return cand
    raise AssertionError("no generator")


PRIME_POWERS_TO_256 = [
    (p, e)
    for p in range(2, 257)
    if all(p % d for d in range(2, p))
    for e in range(1, 9)
    if p**e <= 256
]


@pytest.mark.parametrize("p,e", PRIME_POWERS_TO_256, ids=lambda v: str(v))
def test_generator_matches_brute_force_search(p, e):
    # The tables step by _mul_raw here; the field fills them through its
    # vectorised table of g * y.
    f = Field(p, e)
    gen = _brute_force_generator(f)
    assert f.generator == gen
    exp, x = [], 1
    for _ in range(f.q - 1):
        exp.append(x)
        x = f._mul_raw(x, gen)
    assert f._exp == exp
    assert [f._log[v] for v in exp] == list(range(f.q - 1))


@pytest.mark.parametrize("e", range(1, 11))
def test_char2_tables_match_mul_raw_fill(e):
    # The field fills the tables through its table of g * y; the reference
    # fill takes polynomial products with _mul_raw, generator found by brute
    # force.
    f = Field(2, e)
    gen = _brute_force_generator(f)
    exp, log, x = [], [0] * f.q, 1
    for i in range(f.q - 1):
        exp.append(x)
        log[x] = i
        x = f._mul_raw(x, gen)
    assert (f.generator, f._exp, f._log) == (gen, exp, log)


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (65521, 1)], ids=str)
def test_large_field_tables_step_by_mul_raw(p, e):
    # Past the brute-force checks above: each exp step is one _mul_raw
    # product by the generator, and log inverts exp.  In GF(65521) the
    # table of (q - 1) * y holds digit products up to 2^32.
    f = Field(p, e)
    rng = random.Random(20)
    for k in rng.sample(range(f.q - 2), 1000):
        assert f._exp[k + 1] == f._mul_raw(f._exp[k], f.generator)
    assert [f._log[x] for x in f._exp] == list(range(f.q - 1))
    table = f._times_table(f.q - 1)
    for y in rng.sample(range(f.q), 1000):
        assert table[y] == f._mul_raw(f.q - 1, y)


def test_large_odd_extension_field_builds_fast():
    # GF(3^10): the smallest irreducible search skips moduli with a zero
    # constant term and the exp table walks a table of g * y, where 3^10 - 1
    # _mul_raw products took over a second.  Best of three builds.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f = Field(3, 10)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.3
    assert f._exp[1] == f.generator and f.mul(f.generator, f.inv(f.generator)) == 1


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)], ids=str)
def test_odd_extension_sub_is_add_of_neg(p, e):
    f = Field(p, e)
    for a, b in itertools.product(range(f.q), repeat=2):
        assert f.sub(a, b) == f.add(a, f.neg(b))


def _digitwise(p, e, a, b, op):
    """op(a, b) digit by digit in base p, each digit reduced mod p: the
    definition of + and - on the encoding, with 0 - b the negative.  Runs
    on ints and, entry by entry, on numpy arrays."""
    out, shift = 0, 1
    for _ in range(e):
        out = out + op(a % p, b % p) % p * shift
        a, b, shift = a // p, b // p, shift * p
    return out


ODD_FIELDS_TO_256 = [(p, e) for p, e in PRIME_POWERS_TO_256 if p > 2]


@pytest.mark.parametrize("p,e", ODD_FIELDS_TO_256, ids=lambda v: str(v))
def test_odd_field_add_sub_neg_match_digitwise_exhaustive(p, e):
    import numpy as np

    f = field_new(p, e)
    q = f.q
    els = np.arange(q)
    plus = _digitwise(p, e, els[:, None], els[None, :], operator.add).tolist()
    minus = _digitwise(p, e, els[:, None], els[None, :], operator.sub).tolist()
    for a in range(q):
        assert list(map(f.add, itertools.repeat(a, q), range(q))) == plus[a]
        assert list(map(f.sub, itertools.repeat(a, q), range(q))) == minus[a]
    assert list(map(f.neg, range(q))) == minus[0]


@pytest.mark.parametrize("p,e", [(3, 7), (5, 4)])
def test_odd_field_add_sub_neg_match_digitwise_sampled(p, e):
    import numpy as np

    f = field_new(p, e)
    a, b = np.random.default_rng(p * 100 + e).integers(0, f.q, size=(2, 20000))
    for op, fop in ((operator.add, f.add), (operator.sub, f.sub)):
        assert list(map(fop, a.tolist(), b.tolist())) == _digitwise(p, e, a, b, op).tolist()
    assert list(map(f.neg, b.tolist())) == _digitwise(p, e, 0, b, operator.sub).tolist()


def test_field_construction_errors():
    with pytest.raises(ValueError):
        field_new(4, 1)
    with pytest.raises(ValueError):
        field_new(2, 0)
    with pytest.raises(ValueError):
        field_new(2, 2, (1, 1, 0))  # not monic of degree 2
    with pytest.raises(ValueError):
        field_new(2, 2, (0, 0, 1))  # x^2 is reducible


def test_field_of_order():
    assert (field_of_order(2).p, field_of_order(2).e) == (2, 1)
    assert (field_of_order(4).p, field_of_order(4).e) == (2, 2)
    assert (field_of_order(9).p, field_of_order(9).e) == (3, 2)
    assert (field_of_order(7).p, field_of_order(7).e) == (7, 1)
    for bad in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            field_of_order(bad)


def test_field_equality_includes_modulus():
    a = field_new(2, 2)
    b = field_new(2, 2)
    assert a == b and hash(a) == hash(b)
    assert field_new(2, 1) != field_new(3, 1)


def test_matrix_basic_ops():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0), (1, 1)))
    b = Matrix(f, ((0, 1), (1, 0)))
    assert (a + b).rows == ((1, 1), (0, 1))
    assert (a - b).rows == ((1, 1), (0, 1))
    assert (a * b).rows == ((0, 1), (1, 1))
    assert (-a) == a
    i = Matrix.identity(f, 2)
    assert a * i == a and i * a == a
    assert a.transpose().transpose() == a
    assert a.shape == (2, 2)
    assert a[1, 0] == 1
    assert Matrix.zeros(f, 2, 3).is_zero()
    assert not a.is_zero()


def test_matrix_immutable_and_hashable():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0),))
    with pytest.raises(AttributeError):
        a.rows = ((0, 0),)
    assert hash(a) == hash(Matrix(f, ((1, 0),)))


def test_matrix_shape_mismatch():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0),))
    b = Matrix(f, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * a  # 1x2 times 1x2


def _tuple_product(f, a, b):
    """A B entry by entry: entry (i, j) is the sum over k of a_ik b_kj."""
    rows = []
    for ra in a.rows:
        row = []
        for j in range(b.ncols):
            acc = 0
            for x, rb in zip(ra, b.rows):
                acc = f.add(acc, f.mul(x, rb[j]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_matrix_mul_matches_tuple_product(q):
    import numpy as np

    f = field_of_order(q)
    rng = np.random.default_rng(q)
    dims = [0, 1, 3, 8, 9, 13]
    for nr, inner, nc in itertools.product(dims, repeat=3):
        a = Matrix(f, rng.integers(0, q, size=(nr, inner)).tolist(), inner)
        b = Matrix(f, rng.integers(0, q, size=(inner, nc)).tolist(), nc)
        got = a * b
        assert (got.nrows, got.ncols) == (nr, nc)
        assert got.rows == _tuple_product(f, a, b)
        assert all(type(x) is int for r in got.rows for x in r)


def test_matrix_takes_integers_only():
    import numpy as np

    f = field_new(3, 1)
    for rows in (np.array([[1, 0], [2, 1]]), np.array([[1, 0], [2, 1]], dtype=np.uint8)):
        m = Matrix(f, rows)
        assert m.rows == ((1, 0), (2, 1)) and all(type(x) is int for r in m.rows for x in r)
    assert Matrix.column_vector(f, np.arange(3)).rows == ((0,), (1,), (2,))
    for bad in (1.0, 1.7, "1", True, np.float64(1.0), np.True_):
        with pytest.raises(ValueError, match="integers"):
            Matrix(f, [[0, bad]])
        with pytest.raises(ValueError, match="integers"):
            Matrix.column_vector(f, [0, bad])


def test_stacking():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0),))
    b = Matrix(f, ((0, 1),))
    assert vstack(a, b).rows == ((1, 0), (0, 1))
    assert hstack(a.transpose(), b.transpose()).rows == ((1, 0), (0, 1))


def _random_matrices(f, shapes, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    for nr, nc in shapes:
        yield Matrix(f, rng.integers(0, f.q, size=(nr, nc)).tolist())


SHAPES = [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (2, 5)]


@pytest.mark.parametrize("f", [field_new(2, 1), field_new(2, 2), field_new(3, 1)], ids=lambda f: f"GF{f.q}")
def test_rref_properties(f):
    for a in _random_matrices(f, SHAPES * 4, seed=11):
        res = mat_rref(a)
        assert res.transform * a == res.rref
        assert res.rank == len(res.pivots)
        assert list(res.pivots) == sorted(res.pivots)
        # pivot columns of the reduced form are standard basis columns
        for k, j in enumerate(res.pivots):
            colv = res.rref.col(j)
            assert colv[k] == 1 and all(x == 0 for r, x in enumerate(colv) if r != k)
        again = mat_rref(res.rref)
        assert again.rref == res.rref
        assert mat_rank(a) == mat_rank(a.transpose())


def test_row_basis_spans_same_space():
    f = field_new(2, 2)
    for a in _random_matrices(f, SHAPES * 2, seed=5):
        basis = row_basis(a)
        assert basis.nrows == mat_rank(a)
        assert row_space_contains(basis, a)
        if basis.nrows:
            assert row_space_contains(a, basis)


@pytest.mark.parametrize("f", [field_new(2, 1), field_new(3, 1)], ids=lambda f: f"GF{f.q}")
def test_null_space_exact_kernel(f):
    """Columns of null_space(A) span exactly {x : A x = 0}: checked by
    full enumeration of the column space against all vectors."""
    for a in _random_matrices(f, [(2, 2), (2, 3), (3, 3), (3, 4), (1, 3)], seed=3):
        ns = null_space(a)
        assert ns.nrows == a.ncols
        for j in range(ns.ncols):
            x = ns.take_cols([j])
            assert (a * x).is_zero()
        kernel = {
            v
            for v in iter_vectors(f, a.ncols)
            if (a * Matrix.column_vector(f, v)).is_zero()
        }
        assert len(kernel) == f.q ** ns.ncols
        spanned = set()
        for coeffs in iter_vectors(f, ns.ncols):
            acc = [0] * a.ncols
            for j, c in enumerate(coeffs):
                if c:
                    acc = [f.add(x, f.mul(c, ns[r, j])) for r, x in enumerate(acc)]
            spanned.add(tuple(acc))
        assert spanned == kernel


def test_solve_left_canonical_and_unsolvable():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0, 1), (0, 0, 0)))
    b = Matrix(f, ((1, 0, 1),))
    x = solve_left(a, b)
    assert x * a == b
    assert x.rows == ((1, 0),)  # free coordinate pinned to zero
    assert solve_left(a, Matrix(f, ((0, 1, 0),))) is None


def test_solve_left_rejects_mismatched_b():
    f = field_new(2, 1)
    a = Matrix(f, ((1, 0), (0, 1)))
    # A wider b whose extra column is nonzero has no solution; the check
    # must raise rather than drop that column.
    with pytest.raises(ValueError):
        solve_left(a, Matrix(f, ((1, 0, 1),)))
    with pytest.raises(ValueError):
        solve_left(a, Matrix(field_new(3, 1), ((1, 0),)))


def test_solve_left_random_consistency():
    f = field_new(2, 2)
    for a in _random_matrices(f, SHAPES * 2, seed=7):
        for b in _random_matrices(f, [(2, a.ncols)], seed=a.nrows):
            x = solve_left(a, b)
            if x is not None:
                assert x * a == b
            else:
                assert not row_space_contains(a, b)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(5, 3, 2) == 155  # symmetry
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(6, 0, 2) == 1
    assert gaussian_binomial(2, 3, 2) == 0
    # q-Pascal recurrence
    for n in range(1, 7):
        for k in range(1, n + 1):
            lhs = gaussian_binomial(n, k, 3)
            rhs = gaussian_binomial(n - 1, k - 1, 3) + 3**k * gaussian_binomial(n - 1, k, 3)
            assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_enumeration_matches_gaussian(q):
    f = field_new(q, 1)
    for ambient in range(0, 4):
        for dim in range(0, ambient + 1):
            bases = list(iter_subspace_bases(f, ambient, dim))
            assert len(bases) == gaussian_binomial(ambient, dim, q)
            spaces = set()
            for b in bases:
                assert b.nrows == dim and mat_rank(b) == dim
                spanned = frozenset(
                    tuple(
                        (Matrix.row_vector(f, c) * b).rows[0]
                    )
                    for c in iter_vectors(f, dim)
                )
                spaces.add(spanned)
            assert len(spaces) == len(bases)


def test_iter_vectors_order_and_count():
    f = field_new(3, 1)
    vecs = list(iter_vectors(f, 2))
    assert len(vecs) == 9 and len(set(vecs)) == 9
    # first coordinate runs fastest
    assert vecs[0] == (0, 0) and vecs[1] == (1, 0) and vecs[3] == (0, 1)

    def reference_odometer(q, n):
        digits = [0] * n
        while True:
            yield tuple(digits)
            i = 0
            while i < n and digits[i] == q - 1:
                digits[i] = 0
                i += 1
            if i == n:
                return
            digits[i] += 1

    for q in (2, 3, 4):
        for n in range(4):
            assert list(iter_vectors(field_of_order(q), n)) == list(reference_odometer(q, n))
    assert list(iter_vectors(f, 0)) == [()]


def test_weights():
    f = field_new(2, 1)
    m = Matrix(f, ((0, 0), (1, 0), (1, 1)))
    assert hamming_weight(m) == 2  # nonzero rows
    assert rank_weight(m) == 2
    rep = Matrix(f, ((1, 1), (1, 1)))
    assert hamming_weight(rep) == 2 and rank_weight(rep) == 1
    assert weight(rep, "hamming") == 2
    assert weight(rep, "rank") == 1
    with pytest.raises(ValueError):
        weight(rep, "euclid")


def test_sphere_volumes_hamming():
    from math import comb

    for n, r, q in [(5, 1, 2), (5, 2, 2), (4, 2, 3), (6, 0, 4)]:
        expect = sum(comb(n, i) * (q - 1) ** i for i in range(r + 1))
        assert sphere_vol_hamming(n, r, q) == expect


@pytest.mark.parametrize("nrows,ncols", [(2, 2), (2, 3), (3, 3)])
def test_sphere_vol_rank_by_enumeration(nrows, ncols):
    f = field_new(2, 1)
    counts = {}
    for flat in iter_vectors(f, nrows * ncols):
        m = Matrix(f, [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)])
        r = rank_weight(m)
        counts[r] = counts.get(r, 0) + 1
    for radius in range(min(nrows, ncols) + 1):
        expect = sum(counts.get(r, 0) for r in range(radius + 1))
        assert sphere_vol_rank(nrows, ncols, radius, 2) == expect
