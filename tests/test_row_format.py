"""The row-format helpers of ``iccsi.galois`` against entrywise arithmetic.

Over GF(2^e) up to GF(16) a row is one int of e-bit lanes; above that, and
in odd characteristic, it is an entry tuple.  Every helper, the product, the
reduction and insertion into an echelon basis, the rank and the row-format
RREF (with and without ``stop``) must agree with loops written here with
``Field.mul``, ``Field.add``, ``Field.neg`` and ``Field.inv`` alone, and the
RREF's pivot pairs must reduce rows as the pairs of its RREF rows do, for
every e from 1 to 8, on seeded rows of every width from 0 to 19, so both
sides of each table chunk are crossed.  GF(2^9) and GF(9) take the tuple
path.  The block helpers, which treat a row as blocks of equal size, are
checked block by block for e from 1 to 4 and on tuples, with blocks of 1
to 5 entries.
"""

import itertools

import numpy as np
import pytest

from iccsi.galois import (
    _LANE_MAX_ORDER,
    _from_row,
    _from_rows,
    _row_add,
    _row_block,
    _row_insert,
    _row_keep_blocks,
    _row_mul,
    _row_nonzero_blocks,
    _row_rank,
    _row_reduce,
    _row_rref,
    _row_scale,
    _row_weight,
    _to_rows,
    _zero_row,
    field_new,
)

CASES = [(2, e) for e in range(1, 10)] + [(3, 2)]
WIDTHS = range(20)


def rows_over(rng, f, nrows, ncols, rank=None):
    """Seeded rows of entries; with ``rank``, a product of that inner size."""
    if rank is None:
        return [tuple(r) for r in rng.integers(0, f.q, size=(nrows, ncols)).tolist()]
    a = rows_over(rng, f, nrows, rank)
    b = rows_over(rng, f, rank, ncols)
    return ref_mul(f, a, b, ncols)


def ref_mul(f, a, b, ncols):
    out = []
    for ra in a:
        acc = [0] * ncols
        for x, rb in zip(ra, b):
            acc = [f.add(s, f.mul(x, y)) for s, y in zip(acc, rb)]
        out.append(tuple(acc))
    return out


def ref_axpy(f, c, pivot_row, row):
    """row - c * pivot_row."""
    return tuple(f.add(x, f.mul(f.neg(c), y)) for x, y in zip(row, pivot_row))


def ref_reduce(f, basis, row):
    for col, prow in basis:
        if row[col]:
            row = ref_axpy(f, row[col], prow, row)
    return row


def ref_insert(f, basis, row):
    row = ref_reduce(f, basis, row)
    for col, x in enumerate(row):
        if x:
            inv = f.inv(x)
            return col, tuple(f.mul(inv, y) for y in row)
    return None


def ref_rref(f, rows, stop):
    work, pivots, r = list(rows), [], 0
    for col in range(stop):
        if r == len(work):
            break
        sel = next((i for i in range(r, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = f.inv(work[r][col])
        work[r] = tuple(f.mul(inv, y) for y in work[r])
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = ref_axpy(f, work[i][col], work[r], work[i])
        pivots.append(col)
        r += 1
    return work, pivots


def field_of(p, e):
    f = field_new(p, e)
    assert f._lanes == (p == 2 and f.q <= _LANE_MAX_ORDER)
    return f


@pytest.mark.parametrize("p,e", CASES)
def test_conversions_zero_and_order(p, e):
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 1])
    for n in WIDTHS:
        rows = rows_over(rng, f, 12, n)
        packed = _to_rows(f, rows)
        assert [_from_row(f, x, n) for x in packed] == rows
        assert _from_rows(f, packed, n).rows == tuple(rows)
        # Int order is tuple order, and a row of zeros is the zero row.
        assert sorted(packed) == _to_rows(f, sorted(rows))
        assert _to_rows(f, [(0,) * n]) == [_zero_row(f, n)]
        # Lists pack like tuples.
        assert _to_rows(f, map(list, rows)) == packed


@pytest.mark.parametrize("p,e", CASES)
def test_add_scale_block_weight(p, e):
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 2])
    add = _row_add(f)
    scalars = range(f.q) if f.q <= 16 else rng.integers(0, f.q, size=12).tolist()
    for n in WIDTHS:
        a, b = rows_over(rng, f, 2, n)
        pa, pb = _to_rows(f, (a, b))
        assert _from_row(f, add(pa, pb), n) == tuple(map(f.add, a, b))
        for c in scalars:
            want = tuple(f.mul(c, x) for x in a)
            assert _from_row(f, _row_scale(f, c, pa), n) == want
        for start, stop in itertools.combinations(range(n + 1), 2):
            block = _row_block(f, start, stop, n)(pa)
            assert _from_row(f, block, stop - start) == a[start:stop]
            weight = _row_weight(f, start, stop, n)(pa)
            assert weight == sum(1 for x in a[start:stop] if x)


@pytest.mark.parametrize("p,e", CASES)
def test_product(p, e):
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 3])
    for k, n in itertools.product((0, 1, 3, 6), WIDTHS):
        a = rows_over(rng, f, 4, k)
        b = rows_over(rng, f, k, n)
        got = _row_mul(f, a, _to_rows(f, b), n)
        assert [_from_row(f, x, n) for x in got] == ref_mul(f, a, b, n)


@pytest.mark.parametrize("p,e", CASES)
def test_reduce_insert_rank(p, e):
    # The basis pairs are the format's own; what they do to rows must match
    # insertion and reduction by entry.
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 4])
    for n in WIDTHS:
        insert, reduce = _row_insert(f, n), _row_reduce(f, n)
        for r in range(min(n, 5) + 1):
            rows = rows_over(rng, f, 6, n, rank=r)
            basis, ref = [], []
            for row in rows:
                pair = insert(basis, _to_rows(f, [row])[0])
                want = ref_insert(f, ref, row)
                assert (pair is None) == (want is None)
                if want is not None:
                    basis.append(pair)
                    ref.append(want)
            assert _row_rank(f, _to_rows(f, rows), n) == len(ref) <= r
            for row in rows_over(rng, f, 4, n):
                got = reduce(basis, _to_rows(f, [row])[0])
                assert _from_row(f, got, n) == ref_reduce(f, ref, row)


@pytest.mark.parametrize("p,e", CASES)
def test_rref_with_and_without_stop(p, e):
    f = field_of(p, e)
    rng, probe = np.random.default_rng([p, e, 5]), np.random.default_rng([p, e, 30])
    for n in WIDTHS:
        insert, reduce = _row_insert(f, n), _row_reduce(f, n)
        for nrows, r in ((0, 0), (1, 1), (3, 2), (5, 5), (7, 3)):
            rows = rows_over(rng, f, nrows, n, rank=min(r, n))
            for stop in (None, 0, n // 2, n):
                want = ref_rref(f, rows, n if stop is None else stop)
                work, pivots, pairs = _row_rref(f, _to_rows(f, rows), n, stop)
                assert ([_from_row(f, x, n) for x in work], pivots) == want
                # The pairs of the pivot rows as chosen span the RREF's
                # pivot rows, and a remainder zero at every pivot is unique.
                rref_pairs = [insert((), x) for x in work[: len(pivots)]]
                assert len(pairs) == len(pivots)
                for x in _to_rows(f, rows_over(probe, f, 3, n) + rows):
                    assert reduce(pairs, x) == reduce(rref_pairs, x)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2)])
def test_block_mask_and_keep(p, e):
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 6])
    for size, count in itertools.product(range(1, 6), (1, 2, 3, 6)):
        n = size * count
        nonzero, keep = _row_nonzero_blocks(f, size, count), _row_keep_blocks(f, size, count)
        zero = (0,) * size
        # The mask of block k alone: one bit, block 0's the highest.
        unit = [
            nonzero(_to_rows(f, [zero * k + (1,) * size + zero * (count - 1 - k)])[0])
            for k in range(count)
        ]
        assert [m.bit_count() for m in unit] == [1] * count
        assert unit == sorted(set(unit), reverse=True)
        for _ in range(5):
            blocks = [b if rng.integers(0, 2) else zero for b in rows_over(rng, f, count, size)]
            x = _to_rows(f, [sum(blocks, ())])[0]
            assert nonzero(x) == sum(m for m, b in zip(unit, blocks) if any(b))
            for chosen in itertools.product((False, True), repeat=count):
                mask = sum(m for m, c in zip(unit, chosen) if c)
                want = sum((b if c else zero for b, c in zip(blocks, chosen)), ())
                assert _from_row(f, keep(x, mask), n) == want
