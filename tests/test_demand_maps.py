"""The demand maps of ``decoders._demand_maps`` against their identities.

Every user's map comes from one echelon of [L V_S | I] that the users
share, so it is not the canonical RREF transform of [V^(i); L V_S]; the
decoders read only c modulo Q and the row space of Q, so these identities
are all a map must keep.  For G = [V^(i); L V_S] the map is a row c over
rows Q, each d_i + N wide, with c G = R_i, Q G = 0 and
rank(Q) = rows(Q) = rows(G) - rank(G); it is empty exactly when
``realizes_ic`` says L does not serve user i.  Over GF(2), GF(3), GF(4),
GF(9) and GF(16), on instances whose users cache from 0 to d_S - 1 rows
of a full or coded sender space, with random L of 1 to 7 rows that serve
some users and not others.
"""

from collections import Counter

import numpy as np
import pytest
from test_rank_trial import random_instance

from iccsi import field_new, realizes_ic
from iccsi.decoders import _demand_maps
from iccsi.galois import Matrix, mat_rank, vstack

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)]
# (n, d_S): the sender holds everything, or a coded space.
SHAPES = [(3, 3), (4, 3), (5, 4)]


@pytest.mark.parametrize("p,e", FIELDS, ids=[f"GF({p ** e})" for p, e in FIELDS])
def test_demand_maps_keep_their_identities(p, e):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, 34])
    seen = Counter()
    for n, d_S in SHAPES:
        inst = random_instance(rng, field, n, d_S, 1)
        seen["mixed_d"] += len({u.d for u in inst.users}) > 1
        for N in range(1, 8):
            for _ in range(2):
                L = Matrix(field, rng.integers(0, field.q, size=(N, d_S)).tolist(), d_S)
                lvs = L * inst.V_S
                maps = _demand_maps(inst, lvs)
                flags = realizes_ic(L, inst)
                assert len(maps) == inst.m
                seen["some_served"] += len(set(flags)) == 2
                for u, dmap, served in zip(inst.users, maps, flags):
                    seen[served, u.d == 0] += 1
                    assert bool(dmap) == served
                    if not dmap:
                        continue
                    G = vstack(u.V, lvs)
                    c, Q = Matrix(field, dmap[:1], G.nrows), Matrix(field, dmap[1:], G.nrows)
                    assert c * G == u.R
                    assert (Q * G).is_zero()
                    assert mat_rank(Q) == Q.nrows == G.nrows - mat_rank(G)
    # Served and unserved users, with and without a cache, and L that serve
    # some users of an instance and not others.
    kinds = [(True, True), (True, False), (False, True), (False, False), "mixed_d", "some_served"]
    assert all(seen[k] for k in kinds), seen
