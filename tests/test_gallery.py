import pytest

from seqgames.core import PayoffVector, TreeProfile, play_finite
from seqgames.coinduction import enumerate_stationary_spe, StationaryProfile
from seqgames.finite import backward_induction, brute_force_spe, profile_space_size, validate_game
from seqgames.gallery import (
    PRESETS,
    build_preset,
    matching_pennies_sequential,
    zero_one_finite,
)
from seqgames.graphs import unfold, zero_one_graph
from seqgames.truncation import DeciderQuitsClosure


def hth_profile(path_actions, default="h"):
    """Total matching-pennies profile realizing the given 3-move path."""
    game = matching_pennies_sequential()
    from tests.reference import internal_addresses

    choices = {}
    for address in internal_addresses(game):
        if len(address) < len(path_actions) and address == tuple(path_actions[: len(address)]):
            choices[address] = path_actions[len(address)]
        else:
            choices[address] = default
    return TreeProfile(choices)


def test_matching_pennies_validates():
    assert validate_game(matching_pennies_sequential()).ok


def test_matching_pennies_play_hth_loses():
    game = matching_pennies_sequential()
    assert play_finite(game, hth_profile("hth")) == PayoffVector(A=0, B=2)


def test_matching_pennies_play_htt_ties():
    game = matching_pennies_sequential()
    assert play_finite(game, hth_profile("htt")) == PayoffVector(A=1, B=1)


def test_matching_pennies_equilibria():
    game = matching_pennies_sequential()
    assert profile_space_size(game) == 128
    summary = backward_induction(game)
    assert summary.count == 2
    assert summary.payoff == PayoffVector(A=1, B=1)
    # the two equilibria differ only at the root
    spes = sorted(brute_force_spe(game), key=lambda p: p[()])
    assert len(spes) == 2
    first, second = spes
    assert first[()] != second[()]
    assert {a: first[a] for a in first if a != ()} == {
        a: second[a] for a in second if a != ()
    }


def test_zero_one_finite_base_case():
    game = zero_one_finite(1)
    assert validate_game(game).ok
    summary = backward_induction(game)
    assert summary.count == 1
    assert summary.payoff == PayoffVector(A=1, B=0)


def test_zero_one_finite_rejects_zero_turns():
    with pytest.raises(ValueError):
        zero_one_finite(0)


def test_zero_one_finite_seven_and_six():
    for turns, payoff in ((7, PayoffVector(A=1, B=0)), (6, PayoffVector(A=0, B=1))):
        summary = backward_induction(zero_one_finite(turns))
        assert summary.count == 8
        assert summary.payoff == payoff


def test_everyone_continues_in_seven_turn_game():
    game = zero_one_finite(7)
    from tests.reference import internal_addresses

    profile = TreeProfile({a: "c" for a in internal_addresses(game)})
    assert play_finite(game, profile) == PayoffVector(A=1, B=0)


def test_zero_one_finite_matches_unfolding():
    graph = zero_one_graph()
    rule = DeciderQuitsClosure()
    for turns in range(1, 13):
        built = zero_one_finite(turns)
        unfolded = unfold(graph, turns, lambda sid: rule.payoff(graph, sid, 0))
        assert built == unfolded, turns


def test_preset_annotations_reproduced():
    mp = PRESETS["matching_pennies"]
    game = mp.build()
    summary = backward_induction(game)
    assert summary.count == mp.expected["equilibrium_count"]
    assert summary.payoff == mp.expected["equilibrium_payoff"]
    assert profile_space_size(game) == mp.expected["profile_space"]
    for address in mp.expected["tied_addresses"]:
        assert len(summary.optimal_actions[address]) > 1

    zo = PRESETS["zero_one_finite"]
    for turns in (1, 2, 6, 7):
        expected = zo.expected["by_turns"](turns)
        summary = backward_induction(zo.build(turns))
        assert summary.count == expected["equilibrium_count"]
        assert summary.payoff == expected["equilibrium_payoff"]

    graph_preset = PRESETS["zero_one_graph"]
    results = enumerate_stationary_spe(graph_preset.build())
    spes = [dict(p) for p, v in results if v.ok]
    assert spes == [dict(p) for p in map(StationaryProfile, graph_preset.expected["stationary_spes"])]

    auction = PRESETS["dollar_auction"]
    results = enumerate_stationary_spe(auction.build(stake=100))
    spes = [dict(p) for p, v in results if v.ok]
    assert spes == [dict(StationaryProfile(p)) for p in auction.expected["stationary_spes"]]


def test_build_preset_forwards_parameters():
    game = build_preset("zero_one_finite", turns=3)
    assert backward_induction(game).payoff == PayoffVector(A=1, B=0)
    with pytest.raises(KeyError):
        build_preset("no_such_preset")
