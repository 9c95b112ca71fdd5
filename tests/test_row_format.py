"""The row-format records of ``iccsi.galois`` against entrywise arithmetic.

Each field keeps one record of row operations: GF(2) rows are bitmasks
(``_BitRows``), GF(4) to GF(16) rows are ints of e-bit lanes
(``_LaneRows``), and every other field keeps entry tuples (``_TupleRows``).
Every operation, the conversions, add, join, scale, the product, the line
of a row, the reduction and insertion into an echelon basis, the rank,
[m | I] and the RREF (with and without ``stop``) must agree with loops
written here with ``Field.mul``, ``Field.add``, ``Field.neg`` and
``Field.inv`` alone, and the RREF's pivot pairs must reduce rows as the
pairs of its RREF rows do, for every e from 1 to 9 and over GF(3), GF(5)
and GF(9), on seeded rows of every width from 0 to 19, so both sides of
each table chunk are crossed.  The block readers, which treat a row as
blocks of equal size, are checked block by block for e from 1 to 5 and on
tuples, with blocks of 1 to 5 entries, and so are the wide rows of a
chunk's X that the harness forms from its trials' draws.
"""

import itertools

import numpy as np
import pytest

from iccsi.galois import (
    _LANE_MAX_ORDER,
    _BitRows,
    _from_rows,
    _LaneRows,
    _row_block_bits,
    _row_rank,
    _row_weight,
    _TupleRows,
    field_new,
)
from iccsi.harness import _chunk_X

CASES = [(2, e) for e in range(1, 10)] + [(3, 1), (5, 1), (3, 2)]
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
    lanes = p == 2 and f.q <= _LANE_MAX_ORDER
    assert type(f._fmt) is (_BitRows if f.q == 2 else _LaneRows if lanes else _TupleRows)
    return f


def test_record_per_field():
    # GF(2) bitmasks, GF(4) to GF(16) lanes, entry tuples for the rest.
    assert type(field_new(2)._fmt) is _BitRows
    for e in (2, 3, 4):
        assert type(field_new(2, e)._fmt) is _LaneRows
    for p, e in ((2, 5), (3, 1), (3, 2), (5, 1)):
        assert type(field_new(p, e)._fmt) is _TupleRows


@pytest.mark.parametrize("p,e", CASES)
def test_conversions_zero_and_order(p, e):
    f = field_of(p, e)
    fmt = f._fmt
    rng = np.random.default_rng([p, e, 1])
    for n in WIDTHS:
        rows = rows_over(rng, f, 12, n)
        packed = fmt.to_rows(rows)
        assert [fmt.unpacker(n)(x) for x in packed] == rows
        assert _from_rows(f, packed, n).rows == tuple(rows)
        # Int order is tuple order, and a row of zeros is the zero row.
        assert sorted(packed) == fmt.to_rows(sorted(rows))
        assert fmt.to_rows([(0,) * n]) == [fmt.zero(n)]
        # Lists pack like tuples.
        assert fmt.to_rows(map(list, rows)) == packed


@pytest.mark.parametrize("p,e", CASES)
def test_add_scale_block_weight(p, e):
    f = field_of(p, e)
    fmt = f._fmt
    rng = np.random.default_rng([p, e, 2])
    scalars = range(f.q) if f.q <= 16 else rng.integers(0, f.q, size=12).tolist()
    for n in WIDTHS:
        a, b = rows_over(rng, f, 2, n)
        pa, pb = fmt.to_rows((a, b))
        assert fmt.unpacker(n)(fmt.add(pa, pb)) == tuple(map(f.add, a, b))
        for c in scalars:
            want = tuple(f.mul(c, x) for x in a)
            assert fmt.unpacker(n)(fmt.scale(c, pa)) == want
        for start, stop in itertools.combinations(range(n + 1), 2):
            block = fmt.block(start, stop, n)(pa)
            assert fmt.unpacker(stop - start)(block) == a[start:stop]
            weight = _row_weight(f, start, stop, n)(pa)
            assert weight == sum(1 for x in a[start:stop] if x)


@pytest.mark.parametrize("p,e", CASES)
def test_product(p, e):
    f = field_of(p, e)
    rng = np.random.default_rng([p, e, 3])
    for k, n in itertools.product((0, 1, 3, 6), WIDTHS):
        a = rows_over(rng, f, 4, k)
        b = rows_over(rng, f, k, n)
        got = f._fmt.mul(a, f._fmt.to_rows(b), n)
        assert [f._fmt.unpacker(n)(x) for x in got] == ref_mul(f, a, b, n)


@pytest.mark.parametrize("p,e", CASES)
def test_reduce_insert_rank(p, e):
    # The basis pairs are the format's own; what they do to rows must match
    # insertion and reduction by entry.
    f = field_of(p, e)
    fmt = f._fmt
    rng = np.random.default_rng([p, e, 4])
    for n in WIDTHS:
        insert, reduce = fmt.insert(n), fmt.reduce
        for r in range(min(n, 5) + 1):
            rows = rows_over(rng, f, 6, n, rank=r)
            basis, ref = [], []
            for row in rows:
                pair = insert(basis, fmt.to_rows([row])[0])
                want = ref_insert(f, ref, row)
                assert (pair is None) == (want is None)
                if want is not None:
                    basis.append(pair)
                    ref.append(want)
            assert _row_rank(f, fmt.to_rows(rows), n) == len(ref) <= r
            for row in rows_over(rng, f, 4, n):
                got = reduce(basis, fmt.to_rows([row])[0])
                assert fmt.unpacker(n)(got) == ref_reduce(f, ref, row)


@pytest.mark.parametrize("p,e", CASES)
def test_rref_with_and_without_stop(p, e):
    f = field_of(p, e)
    fmt = f._fmt
    rng, probe = np.random.default_rng([p, e, 5]), np.random.default_rng([p, e, 30])
    for n in WIDTHS:
        insert, reduce = fmt.insert(n), fmt.reduce
        for nrows, r in ((0, 0), (1, 1), (3, 2), (5, 5), (7, 3)):
            rows = rows_over(rng, f, nrows, n, rank=min(r, n))
            for stop in (None, 0, n // 2, n):
                want = ref_rref(f, rows, n if stop is None else stop)
                work, pivots, pairs = fmt.rref(fmt.to_rows(rows), n, stop)
                assert ([fmt.unpacker(n)(x) for x in work], pivots) == want
                # The pairs of the pivot rows as chosen span the RREF's
                # pivot rows, and a remainder zero at every pivot is unique.
                rref_pairs = [insert((), x) for x in work[: len(pivots)]]
                assert len(pairs) == len(pivots)
                for x in fmt.to_rows(rows_over(probe, f, 3, n) + rows):
                    assert reduce(pairs, x) == reduce(rref_pairs, x)


BLOCK_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (5, 1), (3, 2)]


@pytest.mark.parametrize("p,e", BLOCK_CASES)
def test_block_mask_and_keep(p, e):
    f = field_of(p, e)
    fmt = f._fmt
    rng = np.random.default_rng([p, e, 6])
    for size, count in itertools.product(range(1, 6), (1, 2, 3, 6)):
        n = size * count
        nonzero, keep = fmt.nonzero_blocks(size, count), fmt.keep_blocks(size, count)
        zero = (0,) * size
        # The mask of block k alone: one bit, block 0's the highest, and
        # the masks one block-mask stride apart.
        unit = [
            nonzero(fmt.to_rows([zero * k + (1,) * size + zero * (count - 1 - k)])[0])
            for k in range(count)
        ]
        assert [m.bit_count() for m in unit] == [1] * count
        assert unit == sorted(set(unit), reverse=True)
        assert unit == _row_block_bits(f, size, count)
        assert unit[-1] == 1 and all(
            a == b << fmt.block_stride(size) for a, b in zip(unit, unit[1:])
        )
        for _ in range(5):
            blocks = [b if rng.integers(0, 2) else zero for b in rows_over(rng, f, count, size)]
            x = fmt.to_rows([sum(blocks, ())])[0]
            assert nonzero(x) == sum(m for m, b in zip(unit, blocks) if any(b))
            for chosen in itertools.product((False, True), repeat=count):
                mask = sum(m for m, c in zip(unit, chosen) if c)
                want = sum((b if c else zero for b, c in zip(blocks, chosen)), ())
                assert fmt.unpacker(n)(keep(x, mask)) == want


@pytest.mark.parametrize("p,e", BLOCK_CASES)
def test_rows_of_blocks(p, e):
    # A chunk's X: block k of row r is row r of trial k's shaped draw.
    f = field_of(p, e)
    for nrows, ncols, count in itertools.product((1, 2, 5), (1, 3, 4), (1, 2, 7)):
        trials = range(5, 5 + count)
        X, streams = _chunk_X(f, 7, trials, nrows, ncols)
        draws = [np.random.default_rng([7, k]).integers(0, f.q, (nrows, ncols)) for k in trials]
        want = [tuple(x for d in draws for x in d[r].tolist()) for r in range(nrows)]
        assert list(map(f._fmt.unpacker(ncols * count), X)) == want
        assert len(streams) == count


@pytest.mark.parametrize("p,e", CASES)
def test_join_line_and_identity(p, e):
    f = field_of(p, e)
    fmt = f._fmt
    rng = np.random.default_rng([p, e, 8])
    for n in WIDTHS:
        # [a | b] for b of every width, and [m | I] for m's rows.
        for k in (0, 1, 5):
            a, b = rows_over(rng, f, 1, n)[0], rows_over(rng, f, 1, k)[0]
            joined = fmt.join(k)(*fmt.to_rows((a, b)))
            assert fmt.unpacker(n + k)(joined) == a + b
        rows = rows_over(rng, f, 4, n)
        got = fmt.with_identity(fmt.to_rows(rows))
        eye = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        assert [fmt.unpacker(n + 4)(x) for x in got] == [r + u for r, u in zip(rows, eye)]
        if not n:
            continue
        # The line of a nonzero row: None unless its leading entry is 1,
        # else the reader of its leading column and its q - 1 multiples.
        line = fmt.line(n)
        probes = rows_over(rng, f, 6, n)
        for y in rows_over(rng, f, 6, n):
            if not any(y):
                continue
            lead = next(i for i, x in enumerate(y) if x)
            if y[lead] != 1:
                assert line(fmt.pack(y)) is None
            z = tuple(f.mul(f.inv(y[lead]), x) for x in y)
            at, zs = line(fmt.pack(z))
            assert zs == fmt.to_rows(tuple(f.mul(b, x) for x in z) for b in range(1, f.q))
            assert [bool(at(x)) for x in fmt.to_rows(probes)] == [bool(c[lead]) for c in probes]
