"""The guards that refuse bad arguments, called in process: each call
raises its own error type with its own message, where without the guard it
would return a result or fail with another error."""

import re

import pytest

from seqgames.coinduction import (
    StationaryProfile,
    check_spe_param,
    enumerate_stationary_spe,
    induced_tree_profile,
    play_graph,
)
from seqgames.core import GameError, PayoffVector, ProfileError, TreeProfile, leaf, node, play_finite
from seqgames.escalation import escalation_witness, rationalizable_actions
from seqgames.graphs import Decision, GameGraph, Terminal, unfold, zero_one_graph
from seqgames.truncation import DeciderQuitsClosure, extrapolation_report, parse_closure_spec

LEAVE = StationaryProfile(SA="l", SB="l")


def _line() -> GameGraph:
    """An acyclic graph, so an unguarded negative depth still ends."""
    return GameGraph(
        name="line",
        states={"S": Decision("A", (("go", "T", 0),)), "T": Terminal(PayoffVector(A=1))},
        start="S",
    )


GUARDS = {
    "negative cross-check depth": (
        lambda: check_spe_param(zero_one_graph(), LEAVE, cross_check_depth=-1),
        ValueError,
        "depth must be >= 0",
    ),
    "negative induced profile depth": (
        lambda: induced_tree_profile(_line(), StationaryProfile(S="go"), -1),
        ValueError,
        "depth must be >= 0",
    ),
    "negative unfolding depth": (
        lambda: unfold(_line(), -1, {"S": PayoffVector(A=0)}),
        ValueError,
        "depth must be >= 0",
    ),
    "negative extrapolation depth": (
        lambda: extrapolation_report(zero_one_graph(), [-1], DeciderQuitsClosure()),
        ValueError,
        "depths must be >= 0",
    ),
    "unknown state": (
        lambda: zero_one_graph().state("missing"),
        GameError,
        "unknown state 'missing'",
    ),
    "unknown action on a graph": (
        lambda: play_graph(zero_one_graph(), StationaryProfile(SA="x", SB="c")),
        ProfileError,
        "profile chooses unknown action 'x' at state 'SA'",
    ),
    "unknown action on a tree": (
        lambda: play_finite(node("A", ("l", leaf(A=1))), TreeProfile({(): "x"})),
        ProfileError,
        "profile chooses unknown action 'x' at .",
    ),
    "map entry without =": (
        lambda: parse_closure_spec("map:SA"),
        ValueError,
        "bad closure map entry 'SA'; expected STATE=(...)",
    ),
    "empty map": (lambda: parse_closure_spec("map: ; "), ValueError, "closure map is empty"),
    "unknown spec": (
        lambda: parse_closure_spec("stay"),
        ValueError,
        "unknown closure spec 'stay'; use quit, const:(...), or map:STATE=(...)",
    ),
    "group without parentheses": (
        lambda: parse_closure_spec("const:A:1"),
        ValueError,
        "bad payoff group 'A:1'; expected (A:1,B:0)",
    ),
    "entry without a colon": (
        lambda: parse_closure_spec("const:(A1)"),
        ValueError,
        "bad payoff entry 'A1'; expected PLAYER:value",
    ),
    "entry with a bad rational": (
        lambda: parse_closure_spec("map:SA=(A:1/0)"),
        ValueError,
        "bad rational in payoff entry 'A:1/0'",
    ),
    "empty group": (lambda: parse_closure_spec("const:( , )"), ValueError, "empty payoff group '( , )'"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_a_guard_raises_its_error(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_no_witness_when_the_start_is_a_terminal():
    # The zero-one game's states, entered at a terminal: its equilibria
    # still make continuing rationalizable at both decision states, on a
    # cycle no play from the start reaches.
    graph = GameGraph(name="ended", states=zero_one_graph().states, start="TA")
    spes = [p for p, v in enumerate_stationary_spe(graph) if v.ok]
    rmap = rationalizable_actions(graph, spes)
    assert {sid: set(actions) for sid, actions in rmap.actions.items()} == {"SA": {"c", "l"}, "SB": {"c", "l"}}
    assert escalation_witness(graph, rmap) is None
