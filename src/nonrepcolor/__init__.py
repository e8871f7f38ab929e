"""Nonrepetitive colorings of paths and cycles: verify, search, construct."""

from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    InvalidWalkError,
    Walk,
    WalkClass,
    classify_walk,
    cycle_graph,
    is_distance2,
    is_repetitive,
    path_graph,
)
from .decide import (
    PROPERTIES,
    Witness,
    exists_repetitive_nonboring_walk,
    exists_repetitive_path,
    exists_repetitive_stroll,
    find_witness,
    is_walk_nonrepetitive_cycle_fast,
)
from .oracle import OracleVerdict, brute_force_check
from .search import (
    BudgetExhausted,
    SolveReport,
    final_check,
    search_fixed_k,
    solve,
)
from .saseq import (
    FORBIDDEN_WORDS,
    LONGEST_H_FREE_WORD,
    InconsistentWordError,
    decode_sa,
    encode_sa,
    enumerate_h_free,
    h_witness_stroll,
    is_h_free,
)
from .construct import (
    ConstructionTrace,
    EdgeClass,
    classify_edges,
    figure1_fixture,
    rho_cycle_coloring,
    rho_path_coloring,
    sigma_cycle_coloring,
    subdivide_cycle,
    table1_coloring,
)

__all__ = [name for name in dir() if not name.startswith("_")]
