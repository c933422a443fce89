"""The one-entry ``core._Kept`` helpers of ``finite._require_valid``,
``graphs._require_valid_graph`` and ``coinduction._checker``: what they
reuse, what they must compile again, and that they keep at most one compile
of each kind, released with its game; the walk the kept checker keeps; and
the read-only graph states that make keeping a graph's compile by identity
sound."""

import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import time
from collections import Counter
from types import MappingProxyType

import pytest

from seqgames import coinduction, finite, graphs, leaf, node
from seqgames.coinduction import StationaryProfile, check_spe_graph, enumerate_stationary_spe
from seqgames.core import CapExceededError, GameError, PayoffVector, TreeProfile
from seqgames.dsl import parse, serialize
from seqgames.escalation import credible_threat_report, escalation_witness, rationalizable_actions
from seqgames.finite import backward_induction, brute_force_spe, enumerate_spe_profiles, is_spe_finite
from seqgames.gallery import zero_one_finite
from seqgames.graphs import (
    Decision,
    GameGraph,
    ParamGraph,
    StageReachability,
    Terminal,
    dollar_auction,
    validate_graph,
    zero_one_graph,
)
from tests.conftest import random_finite_game, random_param_graph, random_ring_graph

ROUTES = {
    "backward_induction": backward_induction,
    "enumerate_spe_profiles": enumerate_spe_profiles,
    "brute_force_spe": brute_force_spe,
}


@pytest.fixture
def compiles(monkeypatch):
    """Counts of ``_Tree`` compiles, ``_analyze`` passes and payoff tables
    (``_payoff_ids``)."""
    counts = Counter()
    init, analyze, rank = finite._Tree.__init__, finite._analyze, finite._payoff_ids

    def counting_init(self, game):
        counts["compile"] += 1
        init(self, game)

    def counting_analyze(*args):
        counts["analyze"] += 1
        return analyze(*args)

    def counting_rank(*args):
        counts["rank"] += 1
        return rank(*args)

    monkeypatch.setattr(finite._Tree, "__init__", counting_init)
    monkeypatch.setattr(finite, "_analyze", counting_analyze)
    monkeypatch.setattr(finite, "_payoff_ids", counting_rank)
    return counts


@pytest.fixture
def walks(monkeypatch):
    """The checkers ``_ProfileChecker.walk`` is called on, in order."""
    calls = []
    walk = coinduction._ProfileChecker.walk

    def counting_walk(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(coinduction._ProfileChecker, "walk", counting_walk)
    return calls


@pytest.fixture
def validations(monkeypatch):
    """The graphs ``validate_graph`` is called on, in order."""
    calls = []
    monkeypatch.setattr(
        "seqgames.graphs.validate_graph", lambda graph: calls.append(graph) or validate_graph(graph)
    )
    return calls


def test_the_finite_routes_compile_and_analyse_a_game_once(compiles):
    rng = random.Random(29)
    for order in itertools.permutations(ROUTES):
        game = random_finite_game(rng)
        compiles.clear()
        for name in order:
            analysed = compiles["analyze"]
            ROUTES[name](game)
            if name == "brute_force_spe":
                assert compiles["analyze"] == analysed, order
        backward_induction(game).subgame_values
        assert compiles == {"compile": 1, "analyze": 1, "rank": 1}, order
    # The oracle alone ranks the game's payoffs once, on the compile's
    # table, and another game's again.
    for game in (random_finite_game(rng), random_finite_game(rng)):
        compiles.clear()
        brute_force_spe(game)
        brute_force_spe(game)
        assert compiles == {"compile": 1, "rank": 1}


def _escalate(graph) -> tuple:
    """The escalation sequence on one graph: its equilibria, the actions
    they support, the least lasso of those and the threat report."""
    spes = [profile for profile, verdict in enumerate_stationary_spe(graph) if verdict.ok]
    rmap = rationalizable_actions(graph, spes)
    return rmap, escalation_witness(graph, rmap), credible_threat_report(graph, spes)


def test_the_escalation_sequence_walks_a_graph_once(walks):
    rng = random.Random(37)
    other = random_ring_graph(rng, 4)
    for graph in (zero_one_graph(), dollar_auction(10), random_ring_graph(rng, 5), random_ring_graph(rng, 6)):
        cold = _escalate(parse(serialize(graph)))
        walks.clear()
        enumerated = enumerate_stationary_spe(graph)
        assert enumerate_stationary_spe(graph) == enumerated
        assert _escalate(graph) == cold
        assert len(walks) == 1
        # Another graph's checker evicts the walk, so the graph walks again.
        enumerate_stationary_spe(other)
        assert enumerate_stationary_spe(graph) == enumerated
        assert len(walks) == 3
        # An equal graph built apart is a graph of its own, with its own walk.
        twin = parse(serialize(graph))
        assert twin == graph and twin is not graph
        assert enumerate_stationary_spe(twin) == enumerated
        assert enumerate_stationary_spe(twin) == enumerated
        assert len(walks) == 4 and walks[-1] is not walks[-2]


def test_a_caller_cannot_change_the_kept_walk(walks):
    rng = random.Random(38)
    for graph in (random_ring_graph(rng, 5), random_param_graph(rng, ranked=True), zero_one_graph()):
        cold = enumerate_stationary_spe(parse(serialize(graph)))
        for change in (list.clear, lambda results: results.append(results[0]), list.reverse):
            results = enumerate_stationary_spe(graph)
            assert results == cold
            change(results)
            assert enumerate_stationary_spe(graph) == cold
        assert walks.count(walks[-1]) == 1


def test_the_cap_is_tested_when_a_walk_is_kept(walks):
    rng = random.Random(39)
    for graph in (random_ring_graph(rng, 5), dollar_auction(10)):
        total = len(enumerate_stationary_spe(parse(serialize(graph))))
        with pytest.raises(CapExceededError) as cold:
            enumerate_stationary_spe(parse(serialize(graph)), cap=total - 1)
        assert str(cold.value) == f"stationary profile space {total} exceeds cap {total - 1}"
        assert len(enumerate_stationary_spe(graph)) == total
        for cap in (total - 1, 1):
            with pytest.raises(CapExceededError) as kept:
                enumerate_stationary_spe(graph, cap=cap)
            assert str(kept.value) == f"stationary profile space {total} exceeds cap {cap}"
        assert len(enumerate_stationary_spe(graph, cap=total)) == total
        assert walks[-1] is coinduction._checker.entry[1] and walks.count(walks[-1]) == 1


def test_a_walk_that_raised_is_walked_again(walks, monkeypatch):
    # The auction's stage reachability holds 8 entries; under a budget of 4
    # its walk raises, on every call, and none is kept.
    graph = dollar_auction(10)
    cold = enumerate_stationary_spe(parse(serialize(graph)))
    budget = graphs._ENTRY_BUDGET
    monkeypatch.setattr(graphs, "_ENTRY_BUDGET", 4)
    walks.clear()
    for tries in (1, 2):
        with pytest.raises(CapExceededError, match="^stage reachability exceeds 4 layer entries$"):
            enumerate_stationary_spe(graph)
        assert len(walks) == tries and "walked" not in vars(coinduction._checker.entry[1])
    monkeypatch.setattr(graphs, "_ENTRY_BUDGET", budget)
    assert enumerate_stationary_spe(graph) == enumerate_stationary_spe(graph) == cold
    assert walks.count(walks[0]) == 3


def test_is_spe_finite_checks_the_compile_the_solvers_keep(compiles):
    game = zero_one_finite(7)
    summary = backward_induction(game)
    for root_only in (False, True):
        assert is_spe_finite(game, summary.representative, root_only).ok
    assert compiles["compile"] == 1
    # Another game with the same addresses is compiled, not judged on the
    # kept one: quitting at once is the kept game's equilibrium, not its.
    quit_first = TreeProfile({(): "l"})
    kept = node("A", ("c", leaf(A=0)), ("l", leaf(A=1)))
    other = node("A", ("c", leaf(A=1)), ("l", leaf(A=0)))
    backward_induction(kept)
    assert is_spe_finite(kept, quit_first).ok
    assert is_spe_finite(other, quit_first).counterexample.action == "c"
    assert compiles["compile"] == 3


def test_equal_games_are_each_compiled(compiles, validations):
    game = random_finite_game(random.Random(3))
    twin = parse(serialize(game))
    assert twin == game and twin is not game
    for solved in (game, twin, game):
        backward_induction(solved)
    assert compiles["compile"] == 3
    graph = zero_one_graph()
    twin = zero_one_graph()
    profile = StationaryProfile(SA="c", SB="l")
    for checked in (graph, twin, graph):
        check_spe_graph(checked, profile)
    assert [id(g) for g in validations] == [id(graph), id(twin), id(graph)]


def test_an_invalid_game_raises_on_every_call(validations):
    # A valid game and graph, kept alive, whose entries the invalid ones
    # release before they are compiled.
    valid = node("A", ("a", leaf(A=1, B=0)))
    backward_induction(valid)
    bad = node("A", ("a", leaf(A=1)), ("b", leaf(A=0, B=1)))
    for _ in range(2):
        for route in ROUTES.values():
            with pytest.raises(GameError, match=r"^invalid game: a: missing payoff for B \(1"):
                route(bad)
    assert finite._require_valid.entry == (None, None)
    valid = zero_one_graph()
    enumerate_stationary_spe(valid)
    broken = GameGraph(
        name="g", states={"S": Decision("A", (("go", "X", 0),)), "T": Terminal(PayoffVector(A=0))}, start="S"
    )
    profile = StationaryProfile(S="go")
    validations.clear()
    for _ in range(2):
        for call in (
            lambda: check_spe_graph(broken, profile),
            lambda: enumerate_stationary_spe(broken),
            lambda: escalation_witness(broken, None),
        ):
            with pytest.raises(GameError, match="^invalid graph: S: edge 'go' targets unknown state 'X'"):
                call()
    assert len(validations) == 6
    assert coinduction._checker.entry == graphs._require_valid_graph.entry == (None, None)


def test_a_collected_game_leaves_its_memo_empty():
    game = random_finite_game(random.Random(5))
    backward_induction(game)
    assert finite._require_valid.entry[0]() is game
    del game
    gc.collect()
    assert finite._require_valid.entry == (None, None)
    graph = dollar_auction(10)
    enumerate_stationary_spe(graph)
    assert coinduction._checker.entry[0]() is graph
    assert graphs._require_valid_graph.entry[0]() is graph
    del graph
    gc.collect()
    assert coinduction._checker.entry == graphs._require_valid_graph.entry == (None, None)


def _alive(cls) -> int:
    gc.collect()
    return sum(type(o) is cls for o in gc.get_objects())


def test_the_memos_keep_at_most_one_compile_alive():
    before = _alive(finite._Tree), _alive(coinduction._ProfileChecker)
    rng = random.Random(7)
    games = [random_finite_game(rng) for _ in range(5)]
    graphs = [random_ring_graph(rng, 4) for _ in range(5)]
    for game, graph in zip(games, graphs):
        brute_force_spe(game)
        backward_induction(game)
        enumerate_stationary_spe(graph)
        assert (_alive(finite._Tree), _alive(coinduction._ProfileChecker)) == (before[0] + 1, before[1] + 1)
    del games, graphs, game, graph
    assert (_alive(finite._Tree), _alive(coinduction._ProfileChecker)) == before


def test_a_released_compile_is_freed_without_the_collector():
    # No compile is part of a reference cycle, so one released with its
    # game is freed at once, not by the next collection.
    # The walk the checker keeps goes with it, every profile included.
    kinds = (finite._Tree, coinduction._ProfileChecker, StageReachability, StationaryProfile)
    gc.collect()
    gc.disable()
    try:
        before = [sum(type(o) is cls for o in gc.get_objects()) for cls in kinds]
        game, graph = random_finite_game(random.Random(8)), dollar_auction(10)
        backward_induction(game)
        enumerate_stationary_spe(graph)
        kept = vars(coinduction._checker.entry[1])
        assert "reach" in kept and len(kept["walked"]) == 8
        assert sum(type(o) is StationaryProfile for o in gc.get_objects()) == before[-1] + 8
        del game, graph, kept
        assert [sum(type(o) is cls for o in gc.get_objects()) for cls in kinds] == before
    finally:
        gc.enable()


def test_a_graphs_states_are_read_only():
    states = dict(zero_one_graph().states)
    graph = GameGraph("zero_one", states, "SA")
    bob_leaves = StationaryProfile(SA="c", SB="l")
    assert check_spe_graph(graph, bob_leaves).ok
    with pytest.raises(TypeError):
        graph.states["TB"] = Terminal(PayoffVector(A=-1, B=0))
    with pytest.raises(TypeError):
        del graph.states["TB"]
    # The dict it was built from does not reach it: were it to, leaving at
    # SB would cost A, and a state SC would need a choice.
    states["TB"] = Terminal(PayoffVector(A=-1, B=0))
    states["SC"] = Decision("B", (("l", "TB", 0),))
    del states["TA"]
    assert graph == zero_one_graph() and list(graph.states) == ["SA", "TA", "SB", "TB"]
    cold = parse(serialize(graph))
    assert check_spe_graph(cold, bob_leaves).ok
    assert enumerate_stationary_spe(graph) == enumerate_stationary_spe(cold)
    for original in (graph, dollar_auction(10)):
        for restored in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert type(restored) is type(original) and restored == original
            assert type(restored.states) is MappingProxyType
            assert enumerate_stationary_spe(restored) == enumerate_stationary_spe(original)
            with pytest.raises(TypeError):
                hash(restored)
    assert type(restored) is ParamGraph


def test_every_order_of_the_finite_routes_matches_cold_calls():
    rng = random.Random(2929)
    for _ in range(30):
        game, other = random_finite_game(rng, max_profiles=256), random_finite_game(rng, max_profiles=256)
        text = serialize(game)
        # Cold: each call on a fresh parse, which no memo holds.
        cold = {name: route(parse(text)) for name, route in ROUTES.items()}
        values = backward_induction(parse(text)).subgame_values
        for order in itertools.permutations(ROUTES):
            for name in order:
                if rng.random() < 0.3:
                    enumerate_spe_profiles(other)  # evicts game
                assert ROUTES[name](game) == cold[name], (game, order)
            assert backward_induction(game).subgame_values == values


def test_every_order_of_the_escalation_sequence_matches_cold_calls():
    rng = random.Random(4242)
    makers = {
        "plain": lambda: random_ring_graph(rng, rng.randint(3, 6)),
        "param": lambda: random_param_graph(rng, ranked=True),
    }
    tried = Counter()
    for kind, make in makers.items():
        for _ in range(30):
            graph, other = make(), make()
            text = serialize(graph)
            spes = [p for p, v in enumerate_stationary_spe(parse(text)) if v.ok]
            if not spes:
                continue
            rmap = rationalizable_actions(parse(text), spes)
            calls = {
                "enumerate": lambda g: enumerate_stationary_spe(g),
                "rationalizable": lambda g: rationalizable_actions(g, spes),
                "witness": lambda g: escalation_witness(g, rmap),
                "threats": lambda g: credible_threat_report(g, spes),
            }
            cold = {name: call(parse(text)) for name, call in calls.items()}
            for order in itertools.permutations(calls):
                for name in order:
                    if rng.random() < 0.3:
                        enumerate_stationary_spe(other)  # evicts graph
                    assert calls[name](graph) == cold[name], (graph, order)
            tried[kind] += 1
    assert min(tried.values()) >= 10, tried


def _yielding(init):
    def compile_and_yield(self, *args):
        time.sleep(0)
        init(self, *args)

    return compile_and_yield


def test_two_threads_solving_two_games_get_cold_results(monkeypatch):
    # Each compile yields the interpreter lock halfway, so the other thread
    # runs while an entry is being replaced.
    for cls in (finite._Tree, coinduction._ProfileChecker):
        monkeypatch.setattr(cls, "__init__", _yielding(cls.__init__))
    rng = random.Random(31)
    games = [random_finite_game(rng, max_profiles=64) for _ in range(2)]
    graphs = [random_ring_graph(rng, 4) for _ in range(2)]

    def solve(k: int) -> tuple:
        summary = backward_induction(games[k])
        enumerated = enumerate_stationary_spe(graphs[k])
        return (
            summary,
            summary.subgame_values,
            enumerate_spe_profiles(games[k]),
            brute_force_spe(games[k]),
            enumerated,
            [check_spe_graph(graphs[k], profile) for profile, _ in enumerated],
        )

    cold = [solve(0), solve(1)]
    assert cold[0] != cold[1]
    errors = []

    # Both threads solve the games in one random order, 250 solves each, so
    # they often compile the same game at once and then race to the other.
    order = random.Random(31).choices((0, 1), k=250)

    def run() -> None:
        try:
            for i, k in enumerate(order):
                if solve(k) != cold[k]:
                    errors.append(i)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
