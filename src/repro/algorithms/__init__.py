"""Exact optimizers and heuristics for the diversification function problem.

Every algorithm is an index-based selector over a
:class:`~repro.engine.kernel.ScoringKernel` (the ``select_*`` names);
the row-returning signatures are thin adapters kept for the original
API (see :mod:`repro.algorithms.substrate`).  Selectors declare nothing
about the distances they read: the kernel allocates distance storage on
the first read, so relevance-only selections never allocate it and the
sketched and streaming selectors read only the rows they touch.
"""

from .exact import (
    best_modular,
    branch_and_bound_max_sum,
    exhaustive_best,
    optimal_value,
    select_best_modular,
    select_branch_and_bound_max_sum,
    select_exhaustive,
)
from .greedy import (
    greedy_marginal_max_sum,
    greedy_max_min,
    greedy_max_sum,
    select_greedy_marginal_max_sum,
    select_greedy_max_min,
    select_greedy_max_sum,
)
from .incremental import (
    EarlyTerminationResult,
    early_termination_top_k,
    streaming_qrd,
)
from .local_search import local_search, select_local_search
from .mmr import mmr_select, select_mmr
from .sketched import (
    select_sketched_marginal_max_sum,
    select_sketched_max_min,
    select_sketched_mmr,
)
from .streaming import StreamingGreedySelector, select_streaming_greedy
from .substrate import ApproxCertificate, SelectionResult

__all__ = [
    "ApproxCertificate",
    "EarlyTerminationResult",
    "SelectionResult",
    "StreamingGreedySelector",
    "best_modular",
    "branch_and_bound_max_sum",
    "early_termination_top_k",
    "exhaustive_best",
    "greedy_marginal_max_sum",
    "greedy_max_min",
    "greedy_max_sum",
    "local_search",
    "mmr_select",
    "optimal_value",
    "select_best_modular",
    "select_branch_and_bound_max_sum",
    "select_exhaustive",
    "select_greedy_marginal_max_sum",
    "select_greedy_max_min",
    "select_greedy_max_sum",
    "select_local_search",
    "select_mmr",
    "select_sketched_marginal_max_sum",
    "select_sketched_max_min",
    "select_sketched_mmr",
    "select_streaming_greedy",
    "streaming_qrd",
]
