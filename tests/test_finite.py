import math
import random
from fractions import Fraction

import pytest

from seqgames.core import (
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    TreeProfile,
    UnknownPlayerError,
    check_profile_total,
    leaf,
    node,
    play_finite,
    walk,
)
from seqgames.dsl import parse, serialize
from seqgames.finite import (
    CapExceededError,
    backward_induction,
    brute_force_spe,
    enumerate_spe_profiles,
    is_spe_finite,
    profile_space_size,
)
from tests.conftest import random_distinct_payoff_game, random_finite_game
from tests.reference import (
    all_profiles,
    internal_addresses,
    is_spe_by_best_response,
    subgame_at,
)


def two_node_game() -> Node:
    return node(
        "A",
        ("c", node("B", ("c", leaf(A=1, B=0)), ("l", leaf(A=1, B=1)))),
        ("l", leaf(A=0, B=0)),
    )


def divergent_tie_game() -> Node:
    # B is indifferent between x and y, but the tie pays A differently,
    # so the equilibrium set is not a per-node product.
    inner = node("B", ("x", leaf(A=0, B=5)), ("y", leaf(A=2, B=5)))
    return node("A", ("l", inner), ("r", leaf(A=1, B=0)))


def test_unique_spe_in_two_node_game():
    game = two_node_game()
    summary = backward_induction(game)
    assert summary.count == 1
    assert summary.payoff == PayoffVector(A=1, B=1)
    expected = TreeProfile({(): "c", ("c",): "l"})
    assert brute_force_spe(game) == {expected}
    assert summary.representative == expected


def test_divergent_tie_equilibria_are_not_a_product():
    game = divergent_tie_game()
    summary = backward_induction(game)
    oracle = brute_force_spe(game)
    assert oracle == {
        TreeProfile({(): "l", ("l",): "y"}),
        TreeProfile({(): "r", ("l",): "x"}),
    }
    assert summary.count == 2
    assert math.prod(map(len, summary.optimal_actions.values())) == 4  # per-node sets overcount here
    assert set(enumerate_spe_profiles(game)) == oracle
    assert is_spe_finite(game, summary.representative).ok


def test_tie_over_a_payoff_a_sibling_also_reaches():
    # B is indifferent between x and y.  x pays A what r pays, so A can take
    # either branch when B plays x; y pays A less, so A takes r, and y is
    # then B's choice off the path.  Both of B's actions are optimal.
    game = node("A", ("l", node("B", ("x", leaf(A=1, B=0)), ("y", leaf(A=0, B=0)))), ("r", leaf(A=1, B=0)))
    summary = backward_induction(game)
    assert summary.optimal_actions == {(): ("l", "r"), ("l",): ("x", "y")}
    assert summary.count == len(brute_force_spe(game)) == 3


def test_leaf_game_has_single_empty_profile():
    game = leaf(A=0, B=0)
    assert brute_force_spe(game) == {TreeProfile()}
    assert is_spe_finite(game, TreeProfile()).ok


def test_brute_force_cap():
    rng = random.Random(5)
    game = random_finite_game(rng)
    with pytest.raises(CapExceededError):
        brute_force_spe(game, cap=1)


def test_enumeration_cap_counts_equilibria_not_profiles():
    # Two equilibria among four profiles: the cap bounds the equilibria.
    game = divergent_tie_game()
    with pytest.raises(CapExceededError, match="^equilibrium count 2 exceeds cap 1$"):
        enumerate_spe_profiles(game, cap=1)
    assert len(enumerate_spe_profiles(game, cap=2)) == 2


def _first_maximizer_profile(game):
    """Reference representative: the first maximizer in branch order."""
    choices = {}

    def visit(sub, address):
        if isinstance(sub, Leaf):
            return sub.payoffs
        best_action, best = None, None
        for action, child in sub.branches:
            value = visit(child, address + (action,))
            if best is None or value[sub.mover] > best[sub.mover]:
                best_action, best = action, value
        choices[address] = best_action
        return best

    visit(game, ())
    return TreeProfile(choices)


def test_oracle_equivalence_on_random_games():
    rng = random.Random(2024)
    for _ in range(120):
        game = random_finite_game(rng)
        summary = backward_induction(game)
        oracle = brute_force_spe(game)
        assert set(enumerate_spe_profiles(game)) == oracle
        assert summary.count == len(oracle)
        assert summary.representative in oracle
        assert list(summary.optimal_actions) == internal_addresses(game)
        # Per-node optimal actions are exactly the actions used by some SPE.
        used: dict[tuple, set] = {a: set() for a in internal_addresses(game)}
        for profile in oracle:
            for address, action in profile.items():
                used[address].add(action)
        for address, actions in summary.optimal_actions.items():
            assert set(actions) == used[address], (game, address)
            labels = [a for a, _ in subgame_at(game, address).branches]
            assert list(actions) == [a for a in labels if a in actions], (game, address)
        assert summary.payoff == play_finite(game, summary.representative)
        assert summary.representative == _first_maximizer_profile(game)
        for address, sub in walk(game):
            local = brute_force_spe(sub)
            values = {play_finite(sub, p) for p in local}
            assert set(summary.subgame_values[address]) == values, (game, address)
            if isinstance(sub, Node):
                # Every equilibrium of a subgame extends to one of the whole
                # game: at each node the whole game's equilibria take exactly
                # the actions the subgame's own take at its root.
                assert {p[()] for p in local} == used[address], (game, address)


def _payoff_objects(game) -> int:
    return len({id(sub.payoffs) for _, sub in walk(game) if isinstance(sub, Leaf)})


def test_equal_payoffs_held_by_distinct_objects_get_one_id():
    # Two leaves built apart: equal payoffs in two objects, one value.
    game = node("A", ("a", leaf(A=1, B=1)), ("b", leaf(A=1, B=1)))
    summary = backward_induction(game)
    assert summary.subgame_values[()] == (PayoffVector(A=1, B=1),)
    assert summary.count == len(brute_force_spe(game)) == 2
    # Games built leaf by leaf solve as their parsed copies do, whose reader
    # shares one leaf per leaf text.
    rng = random.Random(36)
    fewer = 0
    for _ in range(60):
        game = random_finite_game(rng, high=1)
        shared = parse(serialize(game))
        fewer += _payoff_objects(shared) < _payoff_objects(game)
        solved = []
        for built in (game, shared):
            summary = backward_induction(built)
            solved.append((summary.count, summary.optimal_actions, summary.subgame_values))
        assert solved[0] == solved[1], game
        assert summary.count == len(brute_force_spe(game))
    assert fewer >= 40, fewer


def test_subgame_values_are_computed_on_first_access():
    game = divergent_tie_game()
    summary = backward_induction(game)
    assert "subgame_values" not in vars(summary)
    values = summary.subgame_values
    assert values is summary.subgame_values
    assert values == {
        ("l", "x"): (PayoffVector(A=0, B=5),),
        ("l", "y"): (PayoffVector(A=2, B=5),),
        ("l",): (PayoffVector(A=0, B=5), PayoffVector(A=2, B=5)),
        ("r",): (PayoffVector(A=1, B=0),),
        (): (PayoffVector(A=2, B=5), PayoffVector(A=1, B=0)),
    }
    assert list(values) == [("l", "x"), ("l", "y"), ("l",), ("r",), ()]
    # What the summary keeps to compute them is neither compared nor printed.
    assert summary == backward_induction(game)
    assert all(name not in repr(summary) for name in ("_game", "_movers", "subgame_values"))


def test_one_shot_equals_full_deviation_check():
    rng = random.Random(99)
    for _ in range(40):
        game = random_finite_game(rng, max_profiles=256)
        for profile in all_profiles(game):
            assert is_spe_finite(game, profile).ok == is_spe_by_best_response(
                game, profile
            )


def test_generic_uniqueness_with_distinct_payoffs():
    rng = random.Random(31)
    for _ in range(60):
        game = random_distinct_payoff_game(rng)
        summary = backward_induction(game)
        assert summary.count == 1
        assert brute_force_spe(game) == {summary.representative}


def _remap_player(game, player, mapping):
    if isinstance(game, Leaf):
        entries = dict(game.payoffs)
        entries[player] = mapping[entries[player]]
        return Leaf(PayoffVector(entries))
    return Node(
        game.mover,
        tuple((a, _remap_player(child, player, mapping)) for a, child in game.branches),
    )


def test_ordinal_invariance_of_optimal_sets():
    rng = random.Random(404)
    for _ in range(40):
        game = random_finite_game(rng, max_profiles=512)
        summary = backward_induction(game)
        for player in ("A", "B"):
            values = sorted(
                {
                    sub.payoffs[player]
                    for _, sub in walk(game)
                    if isinstance(sub, Leaf)
                }
            )
            # Arbitrary strictly increasing rational map.
            mapping = {
                v: Fraction(3 * i * i + 1, 2) for i, v in enumerate(values)
            }
            remapped = _remap_player(game, player, mapping)
            other = backward_induction(remapped)
            assert other.optimal_actions == summary.optimal_actions
            assert other.count == summary.count


def test_counterfactual_totality():
    rng = random.Random(77)
    for _ in range(20):
        game = random_finite_game(rng)
        summary = backward_induction(game)
        assert set(summary.optimal_actions) == set(internal_addresses(game))
        assert all(summary.optimal_actions.values())


def test_counterexample_reports_gain():
    game = two_node_game()
    bad = TreeProfile({(): "l", ("c",): "l"})
    check = is_spe_finite(game, bad)
    assert not check.ok
    ce = check.counterexample
    assert ce.address == ()
    assert ce.player == "A"
    assert ce.action == "c"
    assert ce.gain == 1


def test_counterexamples_are_reported_bottom_up():
    # Both the root and the inner node admit deviations; the deeper one wins.
    game = node(
        "A",
        ("c", node("A", ("c", leaf(A=2, B=0)), ("l", leaf(A=0, B=0)))),
        ("l", leaf(A=1, B=0)),
    )
    bad = TreeProfile({(): "l", ("c",): "l"})
    ce = is_spe_finite(game, bad).counterexample
    assert ce.address == ("c",)


def test_totality_faults_are_reported_in_order():
    # Several faults of each kind.  Missing choices come first, then choices
    # at non-decision addresses, then unknown actions; each names the first
    # offending address in (length, address) order, which is not the
    # lexicographic one here (l before c.c, l.c before c.c.l).
    inner = node("A", ("c", leaf(A=1, B=0)), ("l", leaf(A=0, B=1)))
    game = node(
        "A",
        ("c", node("B", ("c", inner), ("l", inner))),
        ("l", node("B", ("c", leaf(A=2, B=2)), ("l", leaf(A=0, B=0)))),
    )
    choices = {(): "c", ("c",): "c", ("c", "l"): "q"}
    extra = {("l", "c"): "c", ("c", "c", "l"): "c", ("l", "l"): "c"}
    stages = [
        ({**choices, **extra}, "profile not total: no choice at address l"),
        ({**choices, **extra, ("l",): "w", ("c", "c"): "x"},
         "profile has a choice at non-decision address l.c"),
        ({**choices, ("l",): "w", ("c", "c"): "x"}, "profile chooses unknown action 'w' at l"),
    ]
    for profile, message in stages:
        for check in (is_spe_finite, check_profile_total):
            with pytest.raises(ProfileError) as error:
                check(game, TreeProfile(profile))
            assert str(error.value) == message


def test_root_only_accepts_non_credible_threats():
    # Entry deterrence: (out, fight) is an equilibrium of the whole game but
    # fails subgame perfection at the unreached node.
    game = node(
        "A",
        ("in", node("B", ("fight", leaf(A=-1, B=-1)), ("acc", leaf(A=1, B=1)))),
        ("out", leaf(A=0, B=2)),
    )
    threat = TreeProfile({(): "out", ("in",): "fight"})
    assert is_spe_finite(game, threat, root_only=True).ok
    check = is_spe_finite(game, threat)
    assert not check.ok
    assert check.counterexample.address == ("in",)


def test_root_only_rejects_non_equilibria():
    game = two_node_game()
    bad = TreeProfile({(): "l", ("c",): "l"})
    check = is_spe_finite(game, bad, root_only=True)
    assert not check.ok
    assert check.counterexample.player == "A"


def test_a_leaf_without_a_movers_payoff_raises_unknown_player():
    # is_spe_finite does not validate.  The full check reads every leaf's
    # payoff for every mover; the root-only check reads those its best
    # response passes reach.
    lacks_b = leaf(A=1)
    on_play = node(
        "A", ("x", lacks_b), ("y", node("B", ("u", leaf(A=0, B=1)), ("v", leaf(A=2, B=0))))
    )
    on_best_response = node(
        "A", ("x", node("B", ("u", leaf(A=1, B=0)), ("v", lacks_b))), ("y", leaf(A=0, B=0))
    )
    for game, choices in (
        (on_play, {(): "x", ("y",): "u"}),
        (on_best_response, {(): "x", ("x",): "u"}),
    ):
        for root_only in (False, True):
            with pytest.raises(UnknownPlayerError) as error:
                is_spe_finite(game, TreeProfile(choices), root_only=root_only)
            assert str(error.value) == "no payoff entry for player 'B'"
    # Behind a branch of A's that the profile does not take, only A's pass
    # reaches the leaf, and it reads A's payoff.
    unreached = node(
        "A", ("x", leaf(A=-1)), ("y", node("B", ("u", leaf(A=1, B=0)), ("v", leaf(A=0, B=1))))
    )
    profile = TreeProfile({(): "y", ("y",): "v"})
    assert is_spe_finite(unreached, profile, root_only=True).ok
    with pytest.raises(UnknownPlayerError) as error:
        is_spe_finite(unreached, profile)
    assert str(error.value) == "no payoff entry for player 'B'"


def test_profile_space_size():
    assert profile_space_size(two_node_game()) == 4
