"""Instance construction, validation, serialization, confusable sets."""

import json

import numpy as np
import pytest

from conftest import build, ident, random_instances
from iccsi import (
    BudgetExceeded,
    InstanceError,
    Matrix,
    confusable_count,
    field_new,
    from_icsi,
    intersection_basis,
    load_instance,
    make_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from iccsi import bounds
from iccsi.galois import (
    MAX_POWER_BITS,
    iter_vectors,
    mat_rank,
    null_space,
    row_basis,
    row_space_contains,
    vstack,
)
from iccsi.instance import iter_confusable, sample_confusable

F2 = field_new(2, 1)
F4 = field_new(2, 2)


def test_basic_properties(syn_inst):
    assert syn_inst.m == 4
    assert syn_inst.n == 4
    assert syn_inst.t == 1
    assert syn_inst.q == 2
    assert syn_inst.d_S == 4
    assert [syn_inst.d(i) for i in range(4)] == [2, 2, 2, 2]
    assert syn_inst.request_matrix().rows == tuple(tuple(r) for r in ident(4))


def test_cache_rows_are_canonicalized(syn_inst):
    # user 4's cache was given as [[1,1,0,1],[0,1,1,0]]; the stored basis is
    # its reduced form but spans the same space
    stored = syn_inst.users[3].V
    given = Matrix(F2, ((1, 1, 0, 1), (0, 1, 1, 0)))
    assert stored.rows == ((1, 0, 1, 1), (0, 1, 1, 0))
    assert row_space_contains(stored, given)
    assert row_space_contains(given, stored)


def test_validation_errors():
    with pytest.raises(InstanceError):
        make_instance(F2, 0, 2, ident(2), [([[1, 0]], [0, 1])])
    with pytest.raises(InstanceError):
        make_instance(F2, 1, 2, ident(2), [])
    with pytest.raises(InstanceError):
        # zero request
        make_instance(F2, 1, 2, ident(2), [([[1, 0]], [0, 0])])
    with pytest.raises(InstanceError):
        # request already cached
        make_instance(F2, 1, 2, ident(2), [([[1, 0]], [1, 0])])
    with pytest.raises(InstanceError):
        # request outside the sender space
        make_instance(F2, 1, 3, [[1, 0, 0], [0, 1, 0]], [([[1, 0, 0]], [0, 0, 1])])
    with pytest.raises(InstanceError):
        # ragged row
        make_instance(F2, 1, 2, ident(2), [([[1, 0, 1]], [0, 1])])
    with pytest.raises(InstanceError, match="sender matrix"):
        # sender rows of the wrong width
        make_instance(F2, 1, 2, ident(3), [([[1, 0]], [0, 1])])


def test_sender_space_can_be_proper():
    inst = make_instance(
        F2, 1, 3, [[1, 0, 0], [0, 1, 0]], [([[1, 0, 0]], [0, 1, 0])]
    )
    assert inst.d_S == 2
    assert inst.n == 3


def test_serialize_round_trip(syn_inst, trap_inst, alpha3_inst):
    for inst in (syn_inst, trap_inst, alpha3_inst):
        doc = serialize_instance(inst)
        back = parse_instance(doc)
        assert back.t == inst.t and back.n == inst.n and back.m == inst.m
        assert back.field == inst.field
        assert back.V_S == inst.V_S
        for a, b in zip(back.users, inst.users):
            assert a.V == b.V and a.R == b.R


def test_serialize_extension_field_keeps_modulus(tmp_path):
    inst = make_instance(F4, 2, 2, ident(2), [([[1, 2]], [0, 1])])
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    doc = json.loads(path.read_text())
    assert doc["p"] == 2 and doc["e"] == 2
    assert "modulus" in doc
    back = load_instance(str(path))
    assert back.field == inst.field
    assert back.users[0].V == inst.users[0].V


def test_parse_rejects_malformed():
    with pytest.raises(InstanceError):
        parse_instance("not json at all {")
    # Nested past the parser's recursion limit: invalid JSON too.
    with pytest.raises(InstanceError, match="invalid JSON"):
        parse_instance("[" * 200_000)
    with pytest.raises(InstanceError):
        parse_instance({"p": 2, "e": 1})
    with pytest.raises(InstanceError):
        parse_instance(
            {"p": 6, "e": 1, "t": 1, "n": 2, "sender": ident(2), "users": []}
        )


def test_instance_size_cap():
    # q^(n t) may have at most MAX_POWER_BITS bits, the bounds' power cap.
    assert bounds.MAX_POWER_BITS == MAX_POWER_BITS == 1 << 15
    doc = {"p": 2, "e": 1, "t": MAX_POWER_BITS // 2, "n": 2, "sender": ident(2),
           "users": [{"V": [[1, 0]], "R": [0, 1]}]}
    assert parse_instance(doc).t == MAX_POWER_BITS // 2
    for t in (MAX_POWER_BITS // 2 + 1, 10**400):
        with pytest.raises(InstanceError, match="bit cap"):
            parse_instance({**doc, "t": t})
    with pytest.raises(InstanceError, match="bit cap"):
        make_instance(field_new(3, 1), 20_000_000, 2, ident(2), [([[1, 0]], [0, 1])])


def test_from_icsi_classic_side_information():
    # three users in a cycle: user i wants packet i and holds packet i+1
    inst = from_icsi(3, [0, 1, 2], [[1], [2], [0]])
    assert inst.n == 3 and inst.m == 3 and inst.q == 2
    for i, side in enumerate([[1], [2], [0]]):
        v = inst.users[i].V
        assert v.nrows == 1
        assert v.rows[0] == tuple(1 if j in side else 0 for j in range(3))
        assert inst.users[i].R.rows[0] == tuple(1 if j == i else 0 for j in range(3))


def test_from_icsi_rejects_demand_in_side_set():
    with pytest.raises(InstanceError):
        from_icsi(3, [0], [[0, 1]])


def test_intersection_basis():
    a = Matrix(F2, ((1, 0, 0), (0, 1, 0)))
    b = Matrix(F2, ((0, 1, 0), (0, 0, 1)))
    inter = intersection_basis(a, b)
    assert inter.nrows == 1
    assert inter.rows[0] == (0, 1, 0)
    disjoint = intersection_basis(
        Matrix(F2, ((1, 0, 0),)), Matrix(F2, ((0, 1, 0),))
    )
    assert disjoint.nrows == 0


def ref_intersection_basis(a, b):
    """The left-kernel construction: a kernel vector (x | y) of [a; b]
    gives x a = -(y b), an element of both row spaces."""
    ra, rb = row_basis(a), row_basis(b)
    if ra.nrows == 0 or rb.nrows == 0:
        return Matrix(a.field, [], a.ncols)
    left_kernel = null_space(vstack(ra, rb).transpose())
    rows = [
        (Matrix(a.field, [left_kernel.col(k)[: ra.nrows]], ra.nrows) * ra).rows[0]
        for k in range(left_kernel.ncols)
    ]
    return row_basis(Matrix(a.field, rows, a.ncols))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_intersection_basis_matches_kernel_construction(p, e):
    # Random pairs of 0-4 rows, with zero rows, repeated rows and rows of
    # one side copied into the other, so empty, dependent and nested
    # inputs all occur.
    f = field_new(p, e)
    rng = np.random.default_rng([p, e, 9])
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(0, f.q, size=(int(rng.integers(0, 5)), n)).tolist()
        b = rng.integers(0, f.q, size=(int(rng.integers(0, 5)), n)).tolist()
        if a and rng.integers(2):
            a[-1] = [0] * n
        if a and rng.integers(2):
            a.append(a[0])
        if a and rng.integers(2):
            b.append(a[int(rng.integers(len(a)))])
        ma, mb = Matrix(f, a, n), Matrix(f, b, n)
        assert intersection_basis(ma, mb) == ref_intersection_basis(ma, mb)


def test_intersection_basis_rejects_mismatch():
    with pytest.raises(ValueError, match="shape or field mismatch"):
        intersection_basis(Matrix(F2, [[1, 0]]), Matrix(F2, [[1, 0, 0]]))
    with pytest.raises(ValueError, match="shape or field mismatch"):
        intersection_basis(Matrix(F2, [[1, 0]]), Matrix(F4, [[1, 0]]))


def test_confusable_count_formula():
    for inst in random_instances(seed=21, count=12):
        for i in range(inst.m):
            k = inst.n - inst.d(i)
            assert confusable_count(inst, i) == inst.q ** k - inst.q ** (k - 1)


def test_iter_confusable_exhaustive(syn_inst):
    """Every enumerated Z is confusable, and the enumeration is complete."""
    for i in range(syn_inst.m):
        got = set()
        for z in iter_confusable(syn_inst, i):
            assert (syn_inst.users[i].V * z).is_zero()
            assert not (syn_inst.users[i].R * z).is_zero()
            got.add(z.rows)
        assert len(got) == confusable_count(syn_inst, i)
        brute = {
            Matrix.column_vector(F2, v).rows
            for v in iter_vectors(F2, 4)
            if (syn_inst.users[i].V * Matrix.column_vector(F2, v)).is_zero()
            and not (syn_inst.users[i].R * Matrix.column_vector(F2, v)).is_zero()
        }
        assert got == brute


def test_confusable_union_matches_walkthrough(syn_inst):
    union = set()
    for i in range(syn_inst.m):
        for z in iter_confusable(syn_inst, i):
            union.add(tuple(z.col(0)))
    assert union == {
        (1, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 1, 1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 1, 0),
    }


def test_iter_confusable_budget():
    inst = make_instance(
        F2, 4, 6, ident(6), [([[1, 0, 0, 0, 0, 0]], [0, 1, 0, 0, 0, 0])]
    )
    # 2^(5*4) candidate matrices exceed a budget of 1000
    with pytest.raises(BudgetExceeded):
        list(iter_confusable(inst, 0, budget=1000))


def test_sample_confusable_deterministic(alpha3_inst):
    a = [z.rows for z in sample_confusable(alpha3_inst, 2, 50, seed=9)]
    b = [z.rows for z in sample_confusable(alpha3_inst, 2, 50, seed=9)]
    c = [z.rows for z in sample_confusable(alpha3_inst, 2, 50, seed=10)]
    assert a == b
    assert a != c
    for rows in a:
        z = Matrix(alpha3_inst.field, rows)
        assert (alpha3_inst.users[2].V * z).is_zero()
        assert not (alpha3_inst.users[2].R * z).is_zero()


def test_random_instances_helper_is_stable():
    first = [serialize_instance(i) for i in random_instances(seed=3, count=5)]
    second = [serialize_instance(i) for i in random_instances(seed=3, count=5)]
    assert first == second


def test_t_greater_one_shapes():
    inst = make_instance(F2, 3, 4, ident(4), [([[0, 1, 0, 0]], [1, 0, 0, 0])])
    zs = list(iter_confusable(inst, 0))
    assert all(z.shape == (4, 3) for z in zs)
    assert len(zs) == confusable_count(inst, 0)
    assert mat_rank(inst.V_S) == 4
