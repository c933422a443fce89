import random
from fractions import Fraction

import pytest

from seqgames.core import (
    Leaf,
    Node,
    PayoffVector,
    TreeProfile,
    leaf,
    node,
    play_finite,
    walk,
)
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
    assert summary.choice_product == 4  # per-node sets overcount here
    assert set(enumerate_spe_profiles(game)) == oracle
    assert is_spe_finite(game, summary.representative).ok


def test_leaf_game_has_single_empty_profile():
    game = leaf(A=0, B=0)
    assert brute_force_spe(game) == {TreeProfile()}
    assert is_spe_finite(game, TreeProfile()).ok


def test_brute_force_cap():
    rng = random.Random(5)
    game = random_finite_game(rng)
    with pytest.raises(CapExceededError):
        brute_force_spe(game, cap=1)


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
            values = {play_finite(sub, p) for p in brute_force_spe(sub)}
            assert set(summary.subgame_values[address]) == values, (game, address)


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


def test_profile_space_size():
    assert profile_space_size(two_node_game()) == 4
