"""Space-time tradeoffs for permutation problems via chain-efficient set systems."""

from .efficiency import EfficiencyReport, inv_eta_string
from .poset import (
    Poset,
    count_ideals,
    count_linear_extensions,
    make_bucket_order,
    make_circulant,
    make_counterexample,
    make_matching_complement,
    poset_efficiency,
)
from .semiring import (
    BOOLEAN,
    INF,
    MIN_PLUS,
    DfasInstance,
    PermutationProblem,
    Semiring,
    TspInstance,
    brute_force_optimum,
    dfas_as_permutation_problem,
    evaluate_permutation,
    tsp_as_permutation_problem,
)
from .setsystem import (
    SetSystem,
    cartesian_power,
    chain_efficiency,
    count_maximal_chains,
    from_poset_ideals,
    full_power_set,
    tower_of_cubes,
)
from .cover import PermutationCover, greedy_cover, randomized_cover, verify_cover
from .solver import (
    SolveResult,
    solve_chain_tradeoff,
    solve_gurevich_shelah,
    solve_held_karp,
)
from .bounds import (
    BoundReport,
    basic_upper_bound,
    improved_upper_bound,
    regular_bipartite_bounds,
    regular_bipartite_efficiency_limit,
)

__version__ = "0.1.0"
