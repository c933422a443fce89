"""The indexed equilibrium checker and brute-force oracle in ``finite``.

The recursive checker the indexed one replaced is kept here as a reference:
``_reference_check`` evaluates a profile by recursion over the game and
reports the first counterexample in depth-first post-order, or, with
``root_only``, the first deviation on the path of a greedy best response.
"""

import itertools
import random

import pytest

from seqgames import finite
from seqgames.core import (
    Leaf,
    PayoffVector,
    Node,
    TreeProfile,
    leaf,
    node,
    walk,
)
from seqgames.finite import (
    CapExceededError,
    Counterexample,
    SpeCheck,
    backward_induction,
    brute_force_spe,
    enumerate_spe_profiles,
    is_spe_finite,
)
from seqgames.truncation import ConstantClosure, truncate
from tests.conftest import random_finite_game, random_game_graph, random_payoffs
from tests.reference import all_profiles, internal_addresses, is_spe_by_best_response, subgame_at


def _reference_values(game, profile):
    values = {}

    def visit(sub, address):
        if isinstance(sub, Leaf):
            values[address] = sub.payoffs
            return sub.payoffs
        chosen = profile[address]
        result = None
        for action, child in sub.branches:
            value = visit(child, address + (action,))
            if action == chosen:
                result = value
        values[address] = result
        return result

    visit(game, ())
    return values


def _reference_best_response(game, profile, player):
    """Best value and greedy (first maximizer) choices for ``player``."""
    choices = {}

    def visit(sub, address):
        if isinstance(sub, Leaf):
            return sub.payoffs[player]
        values = [
            (action, visit(child, address + (action,)))
            for action, child in sub.branches
        ]
        if sub.mover == player:
            best_action, best = values[0]
            for action, value in values[1:]:
                if value > best:
                    best_action, best = action, value
            choices[address] = best_action
            return best
        return dict(values)[profile[address]]

    return visit(game, ()), choices


def _reference_root_only(game, profile, values):
    for player in sorted({s.mover for _, s in walk(game) if isinstance(s, Node)}):
        current = values[()][player]
        best, response = _reference_best_response(game, profile, player)
        if best <= current:
            continue
        sub, address = game, ()
        while isinstance(sub, Node):
            chosen = response.get(address, profile[address])
            if sub.mover == player and chosen != profile[address]:
                return Counterexample(address, player, chosen, current, best)
            sub = dict(sub.branches)[chosen]
            address = address + (chosen,)
        raise AssertionError("improving best response with no deviation on path")
    return None


def _reference_check(game, profile, root_only=False):
    values = _reference_values(game, profile)
    if root_only:
        return SpeCheck(_reference_root_only(game, profile, values))

    def visit(sub, address):
        if isinstance(sub, Leaf):
            return None
        for action, child in sub.branches:
            found = visit(child, address + (action,))
            if found is not None:
                return found
        chosen = profile[address]
        current = values[address][sub.mover]
        for action, _ in sub.branches:
            if action == chosen:
                continue
            deviation = values[address + (action,)][sub.mover]
            if deviation > current:
                return Counterexample(address, sub.mover, action, current, deviation)
        return None

    return SpeCheck(visit(game, ()))


def _reference_profiles(game):
    addresses = sorted(internal_addresses(game))
    options = [
        [action for action, _ in subgame_at(game, address).branches]
        for address in addresses
    ]
    return [
        TreeProfile(zip(addresses, combo)) for combo in itertools.product(*options)
    ]


def _random_games():
    rng = random.Random(4321)
    for _ in range(150):
        # Payoffs 0..2 give many ties; branching 1..3 gives one-branch nodes.
        yield random_finite_game(rng, low=0, high=2, max_profiles=256)
    for _ in range(60):
        yield random_finite_game(
            rng, low=0, high=3, max_profiles=256, players=("A", "B", "C")
        )


def test_indexed_checker_matches_recursive_reference():
    seen = dict.fromkeys(
        ("ok", "refuted", "root_only_refuted", "threats", "one_branch", "three_players"), 0
    )
    for game in _random_games():
        movers = {s.mover for _, s in walk(game) if isinstance(s, Node)}
        seen["three_players"] += "C" in movers
        seen["one_branch"] += any(
            isinstance(s, Node) and len(s.branches) == 1 for _, s in walk(game)
        )
        profiles = _reference_profiles(game)
        assert list(all_profiles(game)) == profiles
        accepted = set()
        for profile in profiles:
            full = is_spe_finite(game, profile)
            root = is_spe_finite(game, profile, root_only=True)
            assert full == _reference_check(game, profile), (game, profile)
            assert root == _reference_check(game, profile, root_only=True), (game, profile)
            seen["ok" if full.ok else "refuted"] += 1
            seen["root_only_refuted"] += not root.ok
            seen["threats"] += root.ok and not full.ok
            if full.ok:
                accepted.add(profile)
        assert brute_force_spe(game) == accepted, game
    assert all(seen.values()), seen


def _oracle_games():
    rng = random.Random(2525)
    for _ in range(120):
        # Payoffs 0..1: nearly every node ties, so the search keeps several
        # branches at once; branching 1..3 gives one-branch nodes.
        yield random_finite_game(rng, low=0, high=1, max_profiles=512)
    for _ in range(40):
        yield random_finite_game(rng, low=0, high=1, max_profiles=256, players=("A", "B", "C"))
    for _ in range(10):
        # Every payoff tied: every profile is an equilibrium.
        yield random_finite_game(rng, low=1, high=1, max_profiles=256)
    yield leaf(A=0, B=0)
    # Truncations share equal subtrees, which the oracle compiles apart.
    dags = 0
    while dags < 40:
        graph = random_game_graph(rng, max_internal=4, high=1)
        game = truncate(graph, rng.randint(1, 6), ConstantClosure(random_payoffs(rng, 0, 1)))
        if isinstance(game, Node) and 1 < finite.profile_space_size(game) <= 512:
            dags += 1
            yield game


def test_brute_force_matches_best_response_reference():
    seen = dict.fromkeys(
        ("several", "refuted", "all_accepted", "three_players", "one_branch", "leaf", "shared"), 0
    )
    for game in _oracle_games():
        profiles = list(all_profiles(game))
        expected = {p for p in profiles if is_spe_by_best_response(game, p)}
        assert brute_force_spe(game) == expected, game
        nodes = [sub for _, sub in walk(game) if isinstance(sub, Node)]
        seen["several"] += len(expected) > 1
        seen["refuted"] += len(expected) < len(profiles)
        seen["all_accepted"] += len(expected) == len(profiles) > 1
        seen["three_players"] += any(sub.mover == "C" for sub in nodes)
        seen["one_branch"] += any(len(sub.branches) == 1 for sub in nodes)
        seen["leaf"] += not nodes
        seen["shared"] += len(set(map(id, nodes))) < len(nodes)
    assert all(seen.values()), seen


def _raise(*args, **kwargs):
    raise AssertionError("the oracle called the solver")


def test_brute_force_does_not_use_the_solver(monkeypatch):
    for name in ("_analyze", "backward_induction", "enumerate_spe_profiles"):
        monkeypatch.setattr(finite, name, _raise)
    two_node = node(
        "A",
        ("c", node("B", ("c", leaf(A=1, B=0)), ("l", leaf(A=1, B=1)))),
        ("l", leaf(A=0, B=0)),
    )
    assert brute_force_spe(two_node) == {TreeProfile({(): "c", ("c",): "l"})}
    divergent = node(
        "A",
        ("l", node("B", ("x", leaf(A=0, B=5)), ("y", leaf(A=2, B=5)))),
        ("r", leaf(A=1, B=0)),
    )
    assert brute_force_spe(divergent) == {
        TreeProfile({(): "l", ("l",): "y"}),
        TreeProfile({(): "r", ("l",): "x"}),
    }
    assert brute_force_spe(leaf(A=0, B=0)) == {TreeProfile()}
    with pytest.raises(CapExceededError):
        brute_force_spe(two_node, cap=3)


def _alternating_spine(levels):
    """``levels`` nodes in a chain; quitting (``l``) pays the mover 1 and the
    other player 0, and continuing past the last node pays both 0."""
    game = leaf(A=0, B=0)
    for level in reversed(range(levels)):
        mover, other = ("A", "B") if level % 2 == 0 else ("B", "A")
        game = node(mover, ("c", game), ("l", leaf({mover: 1, other: 0})))
    return game


def test_is_spe_finite_on_a_deep_spine():
    levels = 1500
    game = _alternating_spine(levels)
    addresses = [("c",) * k for k in range(levels)]
    quit_everywhere = TreeProfile((address, "l") for address in addresses)
    assert is_spe_finite(game, quit_everywhere).ok
    assert is_spe_finite(game, quit_everywhere, root_only=True).ok
    continue_everywhere = TreeProfile((address, "c") for address in addresses)
    deepest = is_spe_finite(game, continue_everywhere).counterexample
    assert deepest.address == addresses[-1]
    assert (deepest.action, deepest.gain) == ("l", 1)
    # A's greedy best response takes the first maximizer, so it continues
    # (quitting later pays as much) and quits at its own last node.
    root = is_spe_finite(game, continue_everywhere, root_only=True).counterexample
    assert (root.address, root.player, root.action) == (addresses[-2], "A", "l")


def test_solver_on_a_deep_spine():
    levels = 1500
    game = _alternating_spine(levels)
    quit_everywhere = TreeProfile((("c",) * k, "l") for k in range(levels))
    assert max(len(address) for address, _ in walk(game)) == levels
    summary = backward_induction(game)
    assert summary.count == 1
    assert summary.representative == quit_everywhere
    assert summary.payoff == PayoffVector(A=1, B=0)
    assert enumerate_spe_profiles(game) == (quit_everywhere,)
