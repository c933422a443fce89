"""Preset games with their documented expected results.

Each preset also ships as a text document under the repository's ``games/``
directory; the files are generated from these constructors, so parsing one
yields a structurally equal value.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from seqgames.core import FiniteGame, Leaf, Node, PayoffVector
from seqgames.graphs import GameGraph, ParamGraph, dollar_auction, zero_one_graph

__all__ = [
    "Preset",
    "PRESETS",
    "matching_pennies_sequential",
    "zero_one_finite",
    "zero_one_graph",
    "dollar_auction",
]

# Outcome scale for win/tie/lose from the first player's point of view:
# 0 never won, 1 won as often as the opponent, 2 won twice as often.
WIN = PayoffVector(A=2, B=0)
TIE = PayoffVector(A=1, B=1)
LOSE = PayoffVector(A=0, B=2)


def matching_pennies_sequential() -> FiniteGame:
    """Coin matching played in turns: A plays, then B, then A again.

    Consecutive equal coins score a set for A, unequal ones for B; the
    leaves encode who won more sets overall.  Winning strategies are beside
    the point here; the game exists to exercise tie handling, since the
    opening choice ends in a tie either way.
    """

    def outcome(first: str, second: str, third: str) -> Leaf:
        sets_for_a = (first == second) + (second == third)
        return Leaf((LOSE, TIE, WIN)[sets_for_a])

    def last(first: str, second: str) -> Node:
        return Node(
            "A",
            (("h", outcome(first, second, "h")), ("t", outcome(first, second, "t"))),
        )

    def middle(first: str) -> Node:
        return Node("B", (("h", last(first, "h")), ("t", last(first, "t"))))

    return Node("A", (("h", middle("h")), ("t", middle("t"))))


def zero_one_finite(turns: int) -> FiniteGame:
    """Alternating continue-or-leave spine of ``turns`` decisions, A first.

    Leaving at A's turn pays (0,1), at B's turn (1,0); continuing past the
    final turn pays whichever of those the last mover prefers to it, so the
    final leaf is (1,0) for an odd number of turns and (0,1) for an even one.
    """
    if turns < 1:
        raise ValueError("need at least one turn")
    a_exit = PayoffVector(A=0, B=1)
    b_exit = PayoffVector(A=1, B=0)
    tail: FiniteGame = Leaf(b_exit if turns % 2 == 1 else a_exit)
    for position in range(turns, 0, -1):
        mover = "A" if position % 2 == 1 else "B"
        exit_leaf = Leaf(a_exit if mover == "A" else b_exit)
        tail = Node(mover, (("c", tail), ("l", exit_leaf)))
    return tail


@dataclass(frozen=True)
class Preset:
    """A constructible example game plus its documented expected results.

    ``expected`` maps result names to values; every entry is reproduced by
    the corresponding solver in the test suite.  ``verified_by`` names the
    independent route used to confirm them.
    """

    name: str
    kind: str  # "game" | "ggraph" | "pgraph"
    summary: str
    build: Callable[..., object]
    expected: Mapping[str, object]
    verified_by: str


def _zero_one_expected(turns: int) -> dict[str, object]:
    forced, free = ("A", "B") if turns % 2 == 1 else ("B", "A")
    return {
        "equilibrium_count": 2 ** (turns // 2),
        "forced_player": forced,
        "forced_action": "c",
        "free_player": free,
        "equilibrium_payoff": PayoffVector(A=1, B=0)
        if turns % 2 == 1
        else PayoffVector(A=0, B=1),
    }


PRESETS: dict[str, Preset] = {
    "matching_pennies": Preset(
        name="matching_pennies",
        kind="game",
        summary="three-move coin matching; the opening move is a payoff tie",
        build=matching_pennies_sequential,
        expected={
            "equilibrium_count": 2,
            "equilibrium_payoff": TIE,
            "profile_space": 128,
            "tied_addresses": ((),),
        },
        verified_by="exhaustive enumeration of all 128 profiles",
    ),
    "zero_one_finite": Preset(
        name="zero_one_finite",
        kind="game",
        summary="alternating continue-or-leave spine with 0/1 payoffs",
        build=zero_one_finite,
        expected={"by_turns": _zero_one_expected},
        verified_by="exhaustive enumeration for small turn counts",
    ),
    "zero_one_graph": Preset(
        name="zero_one_graph",
        kind="ggraph",
        summary="the continue-or-leave game with no last turn, as a two-state cycle",
        build=zero_one_graph,
        expected={
            "stationary_spes": (
                {"SA": "c", "SB": "l"},
                {"SA": "l", "SB": "c"},
            ),
            "not_admissible": ({"SA": "c", "SB": "c"},),
            "refuted": ({"SA": "l", "SB": "l"},),
        },
        verified_by="exhaustive check of all 4 stationary profiles",
    ),
    "dollar_auction": Preset(
        name="dollar_auction",
        kind="pgraph",
        summary="two bidders escalate over a fixed prize; commitments are sunk",
        build=dollar_auction,
        expected={
            "stationary_spes": (
                {"S0": "pass", "DA": "quit", "DB": "raise"},
                {"S0": "bid", "DA": "raise", "DB": "quit"},
            ),
            "never_bid_refuted_at": "S0",
            "never_bid_gain_at_stake_100": 99,
        },
        verified_by="symbolic stage check cross-validated by depth-20 unfoldings",
    ),
}


def preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


def build_preset(name: str, **params) -> FiniteGame | GameGraph | ParamGraph:
    """Construct a preset; ``zero_one_finite`` takes ``turns``,
    ``dollar_auction`` takes ``stake``."""
    entry = preset(name)
    return entry.build(**params)
