"""Equilibrium engine for finite and infinite sequential games.

Finite game trees are solved by backward induction with exact tie tracking;
infinite games are given as finite cyclic graphs (optionally parametrized by
a stage counter) and stationary profiles on them are verified by a one-shot
deviation check that covers every state and, symbolically, every reachable
stage.  On top of the solvers sit escalation analysis and the truncation lab,
which contrasts finite approximants with the infinite-game equilibria.
"""

from seqgames.core import (
    FiniteGame,
    GameError,
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    TreeProfile,
    UnknownPlayerError,
    ValidationReport,
    leaf,
    node,
    play_finite,
)
from seqgames.finite import (
    EquilibriumSummary,
    backward_induction,
    brute_force_spe,
    enumerate_spe_profiles,
    is_spe_finite,
    validate_game,
)
from seqgames.graphs import (
    AffineExpr,
    GameGraph,
    ParamGraph,
    dollar_auction,
    unfold,
    validate_graph,
    zero_one_graph,
)
from seqgames.coinduction import (
    StationaryProfile,
    check_spe_graph,
    check_spe_param,
    enumerate_stationary_spe,
    play_graph,
    play_param,
)
from seqgames.dsl import ParseError, parse, serialize

__all__ = [
    "AffineExpr",
    "EquilibriumSummary",
    "FiniteGame",
    "GameError",
    "GameGraph",
    "Leaf",
    "Node",
    "ParamGraph",
    "ParseError",
    "PayoffVector",
    "ProfileError",
    "StationaryProfile",
    "TreeProfile",
    "UnknownPlayerError",
    "ValidationReport",
    "backward_induction",
    "brute_force_spe",
    "check_spe_graph",
    "check_spe_param",
    "dollar_auction",
    "enumerate_spe_profiles",
    "enumerate_stationary_spe",
    "is_spe_finite",
    "leaf",
    "node",
    "parse",
    "play_finite",
    "play_graph",
    "play_param",
    "serialize",
    "unfold",
    "validate_game",
    "validate_graph",
    "zero_one_graph",
]

__version__ = "0.1.0"
