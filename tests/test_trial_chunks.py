"""Simulation calls across trial chunks.

A call seeds and runs its trials in chunks of ``_TRIAL_CHUNK``.  Calls of
300 and 600 trials cross chunk boundaries and must match the per-trial
Matrix references of ``test_packed_decode`` and ``test_rank_trial``, which
seed every trial on its own.  Private rank calls at pad 2 and error rank 3
trap a wrong L in most trials, so one chunk mixes every outcome: a trap
failure, a wrong L solved from its own echelon and an own-L block that the
demand map cannot decode, solved from the echelon of the encoder's L V_S.
"""

from collections import Counter

import numpy as np
import pytest
from test_packed_decode import random_instance as hamming_instance
from test_packed_decode import realizing_encoders, ref_hamming_report
from test_rank_trial import cases, ref_rank_report

from iccsi import field_new, harness
from iccsi.codec import HAMMING, RANK
from iccsi.harness import _TRIAL_CHUNK, SimConfig, run_simulation


@pytest.mark.parametrize("trials", [300, 2 * _TRIAL_CHUNK + 88])
@pytest.mark.parametrize("p,e,t", [(3, 1, 1), (2, 4, 2)])
def test_hamming_calls_across_chunks_match_reference(p, e, t, trials):
    field = field_new(p, e)
    rng = np.random.default_rng([p, e, t, 26])
    inst = hamming_instance(rng, field, 3, t)
    [(enc, _, _)] = realizing_encoders(rng, inst, 1)
    cfg = SimConfig("inline", metric=HAMMING, delta=1, error_weight=1, trials=trials, seed=7)
    assert run_simulation(cfg, inst, enc).stable_json() == ref_hamming_report(cfg, inst, enc)


@pytest.mark.parametrize("trials", [300, 2 * _TRIAL_CHUNK + 88])
@pytest.mark.parametrize("p,e", [(3, 1), (2, 4)])
def test_rank_calls_across_chunks_match_reference(p, e, trials):
    _, inst, enc = next(cases(p, e, 26))
    for shared in (True, False):
        cfg = SimConfig(
            "inline", metric=RANK, error_weight=2, trap_pad=1, trials=trials, seed=5,
            lvs_shared=shared,
        )
        assert run_simulation(cfg, inst, enc).stable_json() == ref_rank_report(cfg, inst, enc)


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)], ids=["GF(4)", "GF(9)"])
def test_rank_chunks_mix_every_outcome(p, e):
    chunks = []
    real = harness._trial_chunk, harness._trap_rows, harness._row_echelon

    def chunk_spy(*args):
        chunks.append(Counter())
        return real[0](*args)

    def trap_spy(*args):
        out = real[1](*args)
        chunks[-1]["detected"] += out is None
        return out

    # An echelon whose rows have the encoder's L V_S as their left blocks
    # is built for an own-L block solved alone; any other is a wrong L's.
    def echelon_spy(field, rows, width):
        rows = list(rows)
        left = field._fmt.block(0, inst.n, width)
        own = list(map(left, rows)) == field._fmt.to_rows(enc.lvs.rows)
        chunks[-1]["alone" if own else "wrong_L"] += 1
        return real[2](field, rows, width)

    with pytest.MonkeyPatch.context() as mp:
        for name, spy in [("_trial_chunk", chunk_spy), ("_trap_rows", trap_spy),
                          ("_row_echelon", echelon_spy)]:
            mp.setattr(harness, name, spy)
        for _, inst, enc in cases(p, e, 26):
            cfg = SimConfig(
                "inline", metric=RANK, error_weight=3, trap_pad=2, trials=_TRIAL_CHUNK + 1,
                seed=5, lvs_shared=False,
            )
            assert run_simulation(cfg, inst, enc).stable_json() == ref_rank_report(cfg, inst, enc)
    assert any(c["detected"] and c["wrong_L"] and c["alone"] for c in chunks), chunks
