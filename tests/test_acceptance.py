"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every check is exact (rational arithmetic throughout); each criterion
also asserts its wall-clock budget.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from seqgames.core import PayoffVector, internal_addresses, play_finite
from seqgames.coinduction import (
    NotAdmissible,
    Refuted,
    StationaryProfile,
    check_spe_param,
    concrete_unfolding_check,
    enumerate_stationary_spe,
    induced_tree_profile,
    play_graph,
    stationary_closure,
    stationary_profiles,
)
from seqgames.dsl import ParseError, parse, serialize
from seqgames.escalation import escalation_witness, rationalizable_actions
from seqgames.finite import (
    backward_induction,
    brute_force_spe,
    enumerate_spe_profiles,
    is_spe_finite,
    profile_space_size,
)
from seqgames.gallery import matching_pennies_sequential, zero_one_finite
from seqgames.graphs import dollar_auction, unfold, validate_graph, zero_one_graph
from seqgames.truncation import DeciderQuitsClosure, ExtrapolationVerdict, extrapolation_report
from tests.conftest import random_finite_game, random_game_graph

GAMES = Path(__file__).resolve().parent.parent / "games"
SRC = Path(__file__).resolve().parent.parent / "src"

# Stderr that means the child never ran the CLI to a verdict.
CHILD_CRASH_MARKERS = (
    "Traceback (most recent call last)",
    "Error while finding module specification for 'seqgames.cli'",
)


class _Criterion:
    def __init__(self, number: int, title: str, budget_seconds: float) -> None:
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def done(self) -> None:
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.budget, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
        )
        print(f"ACCEPTANCE {self.number} PASS ({elapsed:.2f}s): {self.title}")


def run_cli(*argv):
    # The child runs the CLI of this tree's src/, whether or not a copy of
    # seqgames is installed and whatever directory pytest runs from.
    result = subprocess.run(
        [sys.executable, "-m", "seqgames.cli", *argv],
        capture_output=True,
        text=True,
        env={"NO_COLOR": "1", "PYTHONPATH": str(SRC)},
    )
    if any(marker in result.stderr for marker in CHILD_CRASH_MARKERS):
        pytest.fail(result.stderr, pytrace=False)
    return result


def test_criterion_1_matching_pennies():
    crit = _Criterion(1, "matching pennies has exactly two equilibria, both ties", 1.0)
    game = matching_pennies_sequential()
    assert profile_space_size(game) == 128
    summary = backward_induction(game)
    assert summary.count == 2
    oracle = brute_force_spe(game)
    assert len(oracle) == 2
    assert set(enumerate_spe_profiles(game)) == oracle
    for profile in oracle:
        assert play_finite(game, profile) == PayoffVector(A=1, B=1)
    result = run_cli("solve", str(GAMES / "matching_pennies.game"), "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["equilibria"] == 2
    crit.done()


def test_criterion_2_finite_zero_one_games():
    crit = _Criterion(2, "finite 0,1 games: forced continuer flips with parity", 5.0)
    game7 = zero_one_finite(7)
    summary7 = backward_induction(game7)
    assert summary7.count == 8
    assert summary7.payoff == PayoffVector(A=1, B=0)
    addresses = internal_addresses(game7)
    a_nodes = [a for a in addresses if len(a) % 2 == 0]
    b_nodes = [a for a in addresses if len(a) % 2 == 1]
    assert len(a_nodes) == 4 and len(b_nodes) == 3
    equilibria7 = brute_force_spe(game7)
    assert len(equilibria7) == 8
    for profile in equilibria7:
        assert all(profile[a] == "c" for a in a_nodes)
    assert {tuple(p[a] for a in b_nodes) for p in equilibria7} == set(
        itertools.product("cl", repeat=3)
    )

    game6 = zero_one_finite(6)
    summary6 = backward_induction(game6)
    assert summary6.count == 8
    assert summary6.payoff == PayoffVector(A=0, B=1)
    equilibria6 = brute_force_spe(game6)
    assert len(equilibria6) == 8
    for profile in equilibria6:
        for address in internal_addresses(game6):
            if len(address) % 2 == 1:  # Bob's turns
                assert profile[address] == "c"

    for turns in range(1, 11):
        game = zero_one_finite(turns)
        assert set(enumerate_spe_profiles(game)) == brute_force_spe(game)
    crit.done()


def test_criterion_3_infinite_zero_one_stationary_spes():
    crit = _Criterion(3, "infinite 0,1 game: exactly two stationary equilibria", 1.0)
    graph = zero_one_graph()
    results = enumerate_stationary_spe(graph)
    assert len(results) == 4
    verdicts = {tuple(sorted(p.items())): v for p, v in results}
    spes = {p for p, v in results if v.ok}
    assert spes == {
        StationaryProfile(SA="l", SB="c"),
        StationaryProfile(SA="c", SB="l"),
    }
    cc = verdicts[(("SA", "c"), ("SB", "c"))]
    assert isinstance(cc, NotAdmissible)
    ll = verdicts[(("SA", "l"), ("SB", "l"))]
    assert isinstance(ll, Refuted)
    # the witness re-validates: one-shot deviation then back to the profile
    target = {action: target for action, target, _ in graph.states[ll.state].edges}[ll.action]
    replay = play_graph(graph, StationaryProfile(SA="l", SB="l"), target)
    assert replay.payoffs == ll.deviation_payoffs
    assert replay.payoffs[ll.player] > ll.profile_payoffs[ll.player]
    crit.done()


def test_criterion_4_dollar_auction():
    crit = _Criterion(4, "dollar auction: one-sided equilibria hold, never-bid fails", 2.0)
    auction = dollar_auction(100)
    alice = StationaryProfile(S0="bid", DA="raise", DB="quit")
    bob = StationaryProfile(S0="pass", DA="quit", DB="raise")
    never = StationaryProfile(S0="pass", DA="quit", DB="quit")
    assert check_spe_param(auction, alice, cross_check_depth=20).ok
    assert check_spe_param(auction, bob, cross_check_depth=20).ok
    verdict = check_spe_param(auction, never, cross_check_depth=20)
    assert isinstance(verdict, Refuted)
    assert verdict.state == "S0" and verdict.action == "bid"
    assert verdict.deviation_payoffs["A"] == 99
    assert verdict.profile_payoffs["A"] == 0
    assert verdict.gain == 99
    # symbolic verdicts agree with concrete depth-20 unfolding checks
    for profile in stationary_profiles(auction):
        symbolic = check_spe_param(auction, profile, cross_check_depth=20)
        if isinstance(symbolic, NotAdmissible):
            continue
        concrete = concrete_unfolding_check(auction, profile, 20)
        assert symbolic.ok == concrete.ok, dict(profile)
    crit.done()


def test_criterion_5_extrapolation_failure():
    crit = _Criterion(5, "truncations disagree by parity and miss the infinite equilibria", 5.0)
    report = extrapolation_report(zero_one_graph(), range(1, 13), DeciderQuitsClosure())
    assert report.verdict is ExtrapolationVerdict.PARITY_DISAGREEMENT
    for summary in report.summaries:
        chars = {p: c.describe() for p, c in summary.characterization.items()}
        if summary.depth >= 3 and summary.depth % 2 == 1:
            assert chars == {"A": "forced:c", "B": "free"}
        if summary.depth >= 2 and summary.depth % 2 == 0:
            assert chars == {"A": "free", "B": "forced:c"}
    infinite = [
        {p: c[p].describe() for p in c} for c in report.infinite_characterizations
    ]
    assert {"A": "forced:l", "B": "forced:c"} in infinite
    assert {"A": "forced:c", "B": "forced:l"} in infinite
    for summary in report.summaries:
        chars = {p: c.describe() for p, c in summary.characterization.items()}
        assert chars not in infinite
    result = run_cli(
        "extrapolate",
        str(GAMES / "zero_one.ggraph"),
        "--depths",
        "1..12",
        "--closure",
        "quit",
        "--format",
        "json",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "ParityDisagreement"
    crit.done()


def test_criterion_6_escalation_witnesses():
    crit = _Criterion(6, "escalation lassos exist; a single equilibrium yields none", 1.0)
    graph = zero_one_graph()
    spes = [p for p, v in enumerate_stationary_spe(graph) if v.ok]
    witness = escalation_witness(graph, rationalizable_actions(graph, spes))
    assert witness is not None
    assert witness.prefix == ()
    assert [s.state for s in witness.cycle] == ["SA", "SB"]
    assert escalation_witness(
        graph, rationalizable_actions(graph, [spes[0]])
    ) is None

    auction = dollar_auction(100)
    aspes = [p for p, v in enumerate_stationary_spe(auction) if v.ok]
    awitness = escalation_witness(auction, rationalizable_actions(auction, aspes))
    assert awitness is not None
    assert [s.state for s in awitness.prefix] == ["S0"]
    cycle_states = [s.state for s in awitness.cycle]
    assert sorted(cycle_states) == ["DA", "DB"]
    result = run_cli("escalate", str(GAMES / "zero_one.ggraph"))
    assert result.returncode == 0 and "cycle [SA(c) SB(c)]" in result.stdout
    crit.done()


def test_criterion_7_oracle_equivalence_suite():
    crit = _Criterion(7, "backward induction equals brute force on 500 random games", 60.0)
    rng = random.Random(20260810)
    for index in range(500):
        game = random_finite_game(rng, max_depth=4, max_branching=3, low=0, high=5)
        oracle = brute_force_spe(game)
        summary = backward_induction(game)
        assert set(enumerate_spe_profiles(game)) == oracle, f"game {index}"
        assert summary.count == len(oracle), f"game {index}"
        assert is_spe_finite(game, summary.representative).ok, f"game {index}"
    crit.done()


def test_criterion_8_soundness_versus_unfolding():
    crit = _Criterion(8, "graph equilibria stay equilibria on every truncation", 60.0)
    rng = random.Random(4242)
    graphs = [zero_one_graph()]
    while len(graphs) < 40:
        candidate = random_game_graph(rng, max_internal=3)
        if validate_graph(candidate).ok:
            graphs.append(candidate)
    checked = 0
    for graph in graphs:
        for profile, verdict in enumerate_stationary_spe(graph):
            if not verdict.ok:
                continue
            closure = stationary_closure(graph, profile)
            for depth in range(1, 13):
                tree = unfold(graph, depth, closure)
                induced = induced_tree_profile(graph, profile, depth)
                assert is_spe_finite(tree, induced).ok, (graph.name, dict(profile), depth)
                checked += 1
    assert checked >= 12 * 2  # at least the two zero-one equilibria, all depths
    crit.done()


def test_criterion_9_parser_round_trip():
    crit = _Criterion(9, "serialize and reparse is the identity; errors carry positions", 10.0)
    from seqgames.dsl import ProfileDoc

    shipped = sorted(GAMES.iterdir())
    assert len(shipped) >= 5
    for path in shipped:
        value = parse(path.read_text())
        again = parse(serialize(value))
        if isinstance(value, ProfileDoc):
            assert again.entries == value.entries
        else:
            assert again == value
        assert serialize(again) == serialize(value)

    rng = random.Random(909)
    documents = 0
    while documents < 200:
        game = random_finite_game(rng, max_depth=3)
        assert parse(serialize(game)) == game
        documents += 1

    truncated_errors = 0
    base = serialize(dollar_auction(100))
    for cut in range(1, min(len(base), 120)):
        try:
            parse(base[:cut])
        except ParseError as error:
            assert error.span.line >= 1 and error.span.column >= 1
            assert 0 <= error.span.offset <= cut
            truncated_errors += 1
    assert truncated_errors > 100
    crit.done()
