import random
from collections import Counter
from dataclasses import dataclass

import pytest

from seqgames.core import GameError, Node, PayoffVector, walk
from seqgames.finite import _Tree, backward_induction, brute_force_spe, profile_space_size
from seqgames.graphs import (
    Decision,
    GameGraph,
    MissingClosureError,
    Terminal,
    dollar_auction,
    graph_players,
    zero_one_graph,
)
from seqgames.truncation import (
    CharKind,
    Characterization,
    ClosureRule,
    ConstantClosure,
    DeciderQuitsClosure,
    DepthSummary,
    ExtrapolationVerdict,
    StateClosure,
    _stage_slope,
    _summaries,
    extrapolation_report,
    parse_closure_spec,
    summarize_depth,
    truncate,
)
from tests.conftest import random_game_graph, random_param_graph, random_payoffs, random_sloped_graph


def char_map(summary):
    return {p: c.describe() for p, c in summary.characterization.items()}


def test_depth_seven_forces_alice():
    summary = summarize_depth(zero_one_graph(), 7, DeciderQuitsClosure())
    assert summary.count == 8
    assert char_map(summary) == {"A": "forced:c", "B": "free"}
    assert summary.payoff == PayoffVector(A=1, B=0)


def test_depth_six_forces_bob():
    summary = summarize_depth(zero_one_graph(), 6, DeciderQuitsClosure())
    assert summary.count == 8
    assert char_map(summary) == {"A": "free", "B": "forced:c"}
    assert summary.payoff == PayoffVector(A=0, B=1)


def test_deep_truncation_keeps_the_parity_pattern():
    summary = summarize_depth(zero_one_graph(), 800, DeciderQuitsClosure())
    assert summary.count == 2**400
    assert char_map(summary) == {"A": "free", "B": "forced:c"}
    assert summary.payoff == PayoffVector(A=0, B=1)


def test_depth_one_single_equilibrium():
    summary = summarize_depth(
        zero_one_graph(), 1, StateClosure({"SB": PayoffVector(A=1, B=0)})
    )
    assert summary.count == 1
    assert summary.characterization["A"].describe() == "forced:c"
    assert summary.characterization["B"].kind is CharKind.ABSENT


def test_parity_disagreement_on_zero_one():
    report = extrapolation_report(zero_one_graph(), range(1, 13), DeciderQuitsClosure())
    assert report.verdict is ExtrapolationVerdict.PARITY_DISAGREEMENT
    odd = {s.depth: char_map(s) for s in report.summaries if s.depth % 2}
    even = {s.depth: char_map(s) for s in report.summaries if not s.depth % 2}
    for depth, chars in odd.items():
        if depth >= 3:
            assert chars == {"A": "forced:c", "B": "free"}
    for depth, chars in even.items():
        if depth >= 2:
            assert chars == {"A": "free", "B": "forced:c"}
    # neither finite characterization matches any infinite equilibrium's
    finite_chars = [
        {p: c.describe() for p, c in s.characterization.items()}
        for s in report.summaries
        if s.depth >= 2
    ]
    infinite_chars = [
        {p: c[p].describe() for p in c} for c in report.infinite_characterizations
    ]
    for finite in finite_chars:
        assert finite not in infinite_chars


def test_finite_tree_graph_is_consistent():
    graph = GameGraph(
        name="tree",
        states={
            "ROOT": Decision("A", (("go", "MID", 0), ("stop", "OUT", 0))),
            "MID": Decision("B", (("x", "WIN", 0), ("y", "OUT", 0))),
            "OUT": Terminal(PayoffVector(A=0, B=0)),
            "WIN": Terminal(PayoffVector(A=2, B=2)),
        },
        start="ROOT",
    )
    report = extrapolation_report(graph, range(2, 9), ConstantClosure(PayoffVector(A=0, B=0)))
    assert report.verdict is ExtrapolationVerdict.CONSISTENT_LIMIT


def test_dollar_auction_report_is_generated():
    report = extrapolation_report(dollar_auction(100), range(2, 11), DeciderQuitsClosure())
    assert len(report.summaries) == 9
    assert [dict(p) for p in report.infinite_spes] == [
        {"S0": "pass", "DA": "quit", "DB": "raise"},
        {"S0": "bid", "DA": "raise", "DB": "quit"},
    ]
    assert report.verdict in set(ExtrapolationVerdict)


def test_report_is_deterministic():
    first = extrapolation_report(zero_one_graph(), range(1, 13), DeciderQuitsClosure())
    second = extrapolation_report(zero_one_graph(), range(1, 13), DeciderQuitsClosure())
    assert first.to_json() == second.to_json()


def test_truncate_respects_closure_rules():
    graph = zero_one_graph()
    constant = ConstantClosure(PayoffVector(A=7, B=7))
    tree = truncate(graph, 1, constant)
    assert dict(tree.branches)["c"].payoffs == PayoffVector(A=7, B=7)
    per_state = StateClosure({"SB": PayoffVector(A=3, B=4)})
    tree = truncate(graph, 1, per_state)
    assert dict(tree.branches)["c"].payoffs == PayoffVector(A=3, B=4)
    with pytest.raises(MissingClosureError):
        truncate(graph, 2, per_state)  # depth-2 cut lands on SA


def test_quit_closure_requires_a_terminal_edge():
    graph = GameGraph(
        name="loop",
        states={
            "S": Decision("A", (("go", "S", 0),)),
        },
        start="S",
    )
    with pytest.raises(MissingClosureError):
        truncate(graph, 1, DeciderQuitsClosure())


def test_parse_closure_spec_round_trip():
    for spec in (
        "quit",
        "const:(A:1,B:0)",
        "map:SA=(A:0,B:1);SB=(A:1,B:0)",
        "const:(A:-1/2,B:3)",
    ):
        rule = parse_closure_spec(spec)
        assert rule.describe() == spec
    with pytest.raises(ValueError):
        parse_closure_spec("nothing")
    with pytest.raises(ValueError):
        parse_closure_spec("const:(A)")
    with pytest.raises(ValueError):
        parse_closure_spec("map:")


def test_extrapolation_requires_depths():
    with pytest.raises(ValueError):
        extrapolation_report(zero_one_graph(), [], DeciderQuitsClosure())


def per_depth_summary(graph, depth, rule):
    """The reference route: cut the tree, solve it, and characterize each
    player from the optimal actions at each of the player's nodes.  Returns
    the tree, its solution and the depth's summary."""
    tree = truncate(graph, depth, rule)
    summary = backward_induction(tree)
    nodes = {}
    for address, sub in walk(tree):
        if isinstance(sub, Node):
            used = set(summary.optimal_actions[address])
            nodes.setdefault(sub.mover, []).append((used, len(sub.branches)))
    characterization = {}
    for player in sorted(graph_players(graph)):
        own = nodes.get(player)
        if own is None:
            characterization[player] = Characterization(CharKind.ABSENT)
        elif all(len(used) == 1 for used, _ in own) and len(set().union(*(u for u, _ in own))) == 1:
            characterization[player] = Characterization(CharKind.FORCED, next(iter(own[0][0])))
        elif all(len(used) == count for used, count in own):
            characterization[player] = Characterization(CharKind.FREE)
        else:
            characterization[player] = Characterization(CharKind.MIXED)
    return tree, summary, DepthSummary(depth, rule.describe(), summary.count, characterization, summary.payoff)


def outcome(run):
    """A run's result, or its error's type and message."""
    try:
        return run()
    except (GameError, ValueError) as error:
        return type(error), str(error)


def random_closures(rng, graph):
    internal = graph.internal_ids()
    # Some cut payoffs name only A, so some truncations are invalid games.
    players = ("A", "B") if rng.random() < 0.8 else ("A",)
    mapped = rng.sample(internal, rng.randint(1, len(internal)))
    return (
        DeciderQuitsClosure(),
        ConstantClosure(random_payoffs(rng, players=players)),
        StateClosure({sid: random_payoffs(rng, players=players) for sid in mapped}),
    )


@dataclass(frozen=True)
class Unframed(ClosureRule):
    """A rule that cuts as ``rule`` does but is of no type ``_stage_slope``
    knows, so its truncations are solved on the table keyed by stage."""

    rule: ClosureRule

    def describe(self) -> str:
        return self.rule.describe()

    def payoff(self, graph, sid, stage):
        return self.rule.payoff(graph, sid, stage)


def test_shared_table_matches_per_depth_solving(monkeypatch):
    # One table for all depths against cutting and solving each depth on
    # its own, errors included.  Where brute force is cheap, the counts and
    # the optimal actions of every node are checked against the profiles it
    # finds, so _analyze's used masks answer to an oracle that never calls it.
    # Graphs whose payoffs past stage 0 share one slope are solved on a
    # framed table; they are also held to the table keyed by stage at
    # depths 0..40.
    tables = []
    build = _Tree.from_graph

    def spy(graph, depths, cut, framed=False):
        table, roots = build(graph, depths, cut, framed)
        tables.append((framed, len(table.shifts)))
        return table, roots

    monkeypatch.setattr(_Tree, "from_graph", staticmethod(spy))
    rng = random.Random(1010)
    cases = [(g, (DeciderQuitsClosure(),)) for g in (zero_one_graph(), dollar_auction(3), dollar_auction(10), dollar_auction(100))]
    graphs = [random_game_graph(rng, max_internal=4) for _ in range(150)]
    graphs += [random_param_graph(rng, max_internal=4) for _ in range(150)]
    cases += [(g, random_closures(rng, g)) for g in graphs]
    # With payoffs of 0 or 1 a mover is often indifferent between a
    # terminal that a sibling branch also reaches and one its parent's mover
    # likes less; _analyze's used mask must keep both.
    cases += [(g, random_closures(rng, g)) for g in (random_game_graph(rng, max_internal=4, high=1) for _ in range(100))]
    cases += [(g, random_closures(rng, g)) for g in (random_sloped_graph(rng) for _ in range(150))]
    seen = Counter()
    depths = range(9)
    for graph, rules in cases:
        for rule in rules:
            expected = []
            for depth in depths:
                result = outcome(lambda: per_depth_summary(graph, depth, rule))
                if not isinstance(result[-1], DepthSummary):
                    expected = result
                    break
                tree, solved, summary = result
                expected.append(summary)
                if profile_space_size(tree) <= 256:
                    profiles = brute_force_spe(tree)
                    assert len(profiles) == summary.count, (graph, depth, rule)
                    for address, sub in walk(tree):
                        if isinstance(sub, Node):
                            taken = {profile[address] for profile in profiles}
                            actions = tuple(a for a, _ in sub.branches if a in taken)
                            assert solved.optimal_actions[address] == actions, (graph, depth, rule, address)
                            seen["tied nodes"] += len(actions) > 1
                    seen["brute"] += 1
            tables.clear()
            shared = outcome(lambda: list(extrapolation_report(graph, depths, rule).summaries))
            assert shared == expected, (graph, rule)
            if any(framed for framed, _ in tables):
                seen["framed"] += 1
                seen[f"framed {type(rule).__name__}"] += 1
                seen["framed with a stage-0 exit"] += "X" in graph.states
                # Some stage-1 position steps a stage, by a non-zero slope.
                seen["moved"] += tables[0][1] > 0 and any(_stage_slope(graph, rule).values())
            # Ties can make counts grow doubly exponentially with depth, so
            # only graphs whose counts stay small to depth 8 go deeper.
            small = not isinstance(expected, list) or max(s.count for s in expected) < 256
            if _stage_slope(graph, rule) is not None and small:
                deep = range(41)
                assert _stage_slope(graph, Unframed(rule)) is None
                framed = outcome(lambda: _summaries(graph, deep, rule))
                assert framed == outcome(lambda: _summaries(graph, deep, Unframed(rule))), (graph, rule)
                seen["deep"] += 1
            if isinstance(expected, list):
                seen["solved"] += 1
                # Valid truncations whose cut payoffs name only A.
                seen["off-players"] += expected[-1].payoff.players != graph_players(graph)
                last = depths[-1]
                assert summarize_depth(graph, last, rule) == expected[last]
            else:
                seen[expected[0].__name__] += 1
    # Every route was taken: solved reports, both kinds of error, and
    # valid truncations whose cut payoffs name fewer players than the graph.
    # Most small truncations get the brute-force check, and thousands of
    # their nodes keep more than one action.
    assert seen["solved"] >= 300 and seen["brute"] >= 5000 and seen["tied nodes"] >= 3000, seen
    assert seen["MissingClosureError"] >= 50 and seen["_InvalidGame"] >= 20, seen
    assert seen["off-players"] >= 1, seen
    # Framed tables: with each closure, past a stage-0 exit, and with values
    # moved by a non-zero slope.
    assert seen["framed"] >= 300 and seen["moved"] >= 40 and seen["framed with a stage-0 exit"] >= 50, seen
    assert min(seen[f"framed {kind.__name__}"] for kind in (DeciderQuitsClosure, ConstantClosure, StateClosure)) >= 50, seen
    assert seen["deep"] >= 350, seen


def test_the_auction_table_grows_linearly_in_depth(monkeypatch):
    # Past stage 0 both bidders' payoffs fall by 1 per stage, so every later
    # stage is keyed as stage 1: doubling the depths about doubles the
    # table, where keys by stage would make it four times as large.
    # Positions are counted, not timed.
    sizes = []
    build = _Tree.from_graph

    def counted(*args):
        table, roots = build(*args)
        sizes.append(len(table.movers))
        return table, roots

    monkeypatch.setattr(_Tree, "from_graph", staticmethod(counted))
    graph = dollar_auction(100)
    for top in (1000, 2000):
        extrapolation_report(graph, range(1, top + 1), DeciderQuitsClosure())
    assert len(sizes) == 2 and sizes[1] <= 2.1 * sizes[0], sizes


def test_shared_table_holds_one_position_per_key():
    graph = zero_one_graph()
    for top in (1, 2, 10, 300):
        tree, roots = _Tree.from_graph(
            graph, range(1, top + 1), lambda sid, stage: DeciderQuitsClosure().payoff(graph, sid, stage)
        )
        assert len(tree.movers) <= 4 * (top + 1)
        assert len(set(tree.addresses)) == len(tree.movers)
        assert len(set(roots)) == top


def test_one_profile_is_never_free_but_a_set_of_one_can_be():
    # A moves at two one-edge states with different labels, and B's choice
    # is strict, so the graph has exactly one stationary equilibrium.  As
    # one profile it picks x and y, so A is mixed; as the whole set of
    # equilibria it takes every action A has, so A is free.
    graph = GameGraph(
        name="chain",
        states={
            "S0": Decision("B", (("go", "P", 0), ("stop", "OUT", 0))),
            "P": Decision("A", (("x", "Q", 0),)),
            "Q": Decision("A", (("y", "WIN", 0),)),
            "OUT": Terminal(PayoffVector(A=0, B=0)),
            "WIN": Terminal(PayoffVector(A=1, B=1)),
        },
        start="S0",
    )
    report = extrapolation_report(graph, range(1, 5), ConstantClosure(PayoffVector(A=0, B=0)))
    assert [dict(p) for p in report.infinite_spes] == [{"S0": "go", "P": "x", "Q": "y"}]
    assert [{p: c.describe() for p, c in chars.items()} for chars in report.infinite_characterizations] == [
        {"A": "mixed", "B": "forced:go"}
    ]
    assert {p: c.describe() for p, c in report.spe_set_characterization.items()} == {
        "A": "free",
        "B": "forced:go",
    }
