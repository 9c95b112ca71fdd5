"""Workbench for index coding with coded side information.

A sender holding coded rows V_S X broadcasts N linear combinations so that
every user, mixing the broadcast with its own cached combinations, recovers
the one combination it asked for.  The package computes the optimal
broadcast length (min-rank) and its confusable-subspace lower bound, exact
probability and length bounds, encoder constructions with error-correction
certificates, the syndrome and rank-error-trapping decoders, and a
reproducible Monte-Carlo harness, all over exact finite-field arithmetic.
"""

from .bounds import (
    BoundReport,
    alpha_kappa_bracket,
    block_length_estimate,
    equiv_counts,
    hamming_random_ecic_prob,
    q_entropy,
    rank_random_ecic_prob,
    rank_singleton,
    subspace_avoid_count,
    subspace_existence_prob,
    z_delta_size,
    zippel_ic_prob,
)
from .codec import (
    EcicCertificate,
    EncodingMatrix,
    concat_kappa_bound,
    coset_encoder,
    extended_rs_generator,
    load_encoder,
    make_encoder,
    random_ic_search,
    save_encoder,
    verify_ecic,
)
from .decoders import (
    DecodeOutcome,
    TrapResult,
    build_user_decoder,
    rank_trap_decode,
    read_frame,
    solve_demand,
    syndrome_decode,
    trap_pad,
    write_frame,
)
from .galois import (
    Field,
    Matrix,
    field_new,
    field_of_order,
    hamming_weight,
    rank_weight,
)
from .harness import SimConfig, SimReport, run_simulation, wilson_interval
from .instance import (
    BudgetExceeded,
    IccsiInstance,
    InstanceError,
    UserSpec,
    confusable_count,
    from_icsi,
    intersection_basis,
    iter_confusable,
    load_instance,
    make_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .minrank import alpha, min_rank, realizes_ic

__version__ = "0.1.0"
