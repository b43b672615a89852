"""Relax-and-round inference for binary pairwise models.

Quadratic models over {-1,+1} or {0,1} assignments (including RBMs via an
auxiliary-variable rewrite) are relaxed to a block ball-constrained program,
solved by block-coordinate ascent, and rounded back through random
hyperplanes. The rounding distribution doubles as a proposal for partition
function estimation; tempered Gibbs sampling provides the baselines.
"""

from .gibbs import ChainState, annealed_gibbs, rrr_ag
from .instances import (
    InstanceFormatError,
    dumps_instance,
    load_instance,
    loads_instance,
)
from .models import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    Domain,
    Embedding,
    MrfParams,
    RbmParams,
    brute_force_map,
    check_assignment,
    domain_values,
    embed,
    gen_hard_rbm,
    iter_corner_blocks,
    rbm_score,
    score,
    score_batch,
)
from .partition import (
    Budget,
    EstimateReport,
    ais_logz,
    exact_logz_mrf,
    exact_logz_rbm,
    rrr_is,
    rrr_low,
)
from .relaxation import (
    LrpOptions,
    RelaxedSolution,
    solve_lrp,
)
from .rounding import (
    RoundingDistributionK2,
    build_px_k2,
    enumerate_support_k2,
    px_query,
    rrr_map_sample,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_CAP",
    "Budget",
    "CapExceededError",
    "ChainState",
    "Domain",
    "Embedding",
    "EstimateReport",
    "InstanceFormatError",
    "LrpOptions",
    "MrfParams",
    "RbmParams",
    "RelaxedSolution",
    "RoundingDistributionK2",
    "ais_logz",
    "annealed_gibbs",
    "brute_force_map",
    "build_px_k2",
    "check_assignment",
    "domain_values",
    "dumps_instance",
    "embed",
    "enumerate_support_k2",
    "exact_logz_mrf",
    "exact_logz_rbm",
    "gen_hard_rbm",
    "iter_corner_blocks",
    "load_instance",
    "loads_instance",
    "px_query",
    "rbm_score",
    "rrr_ag",
    "rrr_is",
    "rrr_low",
    "rrr_map_sample",
    "score",
    "score_batch",
    "solve_lrp",
]
