import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from seqgames.coinduction import (
    SpeOk,
    StationaryProfile,
    check_spe,
    check_spe_graph,
    check_spe_param,
    concrete_unfolding_check,
    enumerate_stationary_spe,
    induced_tree_profile,
    stationary_closure,
)
from seqgames.core import GameError, Leaf, Node, PayoffVector
from seqgames.escalation import rationalizable_actions
from seqgames.finite import backward_induction
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    Decision,
    GameGraph,
    MissingClosureError,
    ParamGraph,
    StageReachability,
    Terminal,
    dollar_auction,
    unfold,
    unfold_param,
    validate_graph,
    zero_one_graph,
    _ENTRY_BUDGET,
)
from seqgames.truncation import parse_closure_spec, truncate
from tests.conftest import random_game_graph, random_param_graph
from tests.reference import reachable_stages, recursive_unfolding

QUIT_CLOSURE = {"SA": PayoffVector(A=0, B=1), "SB": PayoffVector(A=1, B=0)}


def test_zero_one_graph_validates():
    assert validate_graph(zero_one_graph()).ok


def test_zero_one_graph_terminals():
    g = zero_one_graph()
    assert g.states["TA"] == Terminal(PayoffVector(A=0, B=1))
    assert g.states["TB"] == Terminal(PayoffVector(A=1, B=0))


def test_validate_reports_dangling_target():
    g = GameGraph(
        name="bad",
        states={"S": Decision("A", (("go", "nowhere", 0),))},
        start="S",
    )
    report = validate_graph(g)
    assert any("unknown state" in v.message for v in report.violations)


def test_validate_reports_missing_start():
    g = GameGraph(name="bad", states={"S": Terminal(PayoffVector(A=0))}, start="X")
    assert not validate_graph(g).ok


@pytest.mark.parametrize(
    "states, message",
    [
        (
            {
                "S": Decision("A", (("go", "T", 0), ("stop", "U", 0))),
                "T": Terminal(PayoffVector(A=1)),
                "U": Terminal(PayoffVector(A=0, B=0)),
            },
            "T: missing payoff for B",
        ),
        (
            {
                "S": Decision("A", (("go", "T", 0),)),
                "E": Decision("B", ()),
                "T": Terminal(PayoffVector(A=1, B=0)),
            },
            "E: empty edge list",
        ),
        (
            {"S": Decision("B", (("go", "T", 0), ("go", "S", 0))), "T": Terminal(PayoffVector(B=0))},
            "S: duplicate action label 'go'",
        ),
    ],
)
def test_validate_reports_each_structural_fault(states, message):
    # A terminal must pay every mover; a decision state needs edges, each
    # with its own label.
    report = validate_graph(GameGraph(name="bad", states=states, start="S"))
    assert [str(v) for v in report.violations] == [message]


def test_affine_eval():
    assert AffineExpr(-1, -1).at(3) == -4
    assert AffineExpr(99, -1).at(0) == 99
    assert AffineExpr(0, 0).at(12345) == 0


def test_affine_shift():
    expr = AffineExpr(Fraction(99), Fraction(-1))
    assert expr.shifted(1) == AffineExpr(98, -1)
    assert expr.shifted(0) == expr


def test_unfold_depth_zero_uses_closure():
    g = zero_one_graph()
    tree = unfold(g, 0, {"SA": PayoffVector(A=7, B=7)})
    assert tree == Leaf(PayoffVector(A=7, B=7))


def test_unfold_missing_closure():
    with pytest.raises(MissingClosureError):
        unfold(zero_one_graph(), 1, {})


def test_unfold_depth_two_shape():
    tree = unfold(zero_one_graph(), 2, QUIT_CLOSURE)
    assert isinstance(tree, Node) and tree.mover == "A"
    labels = [a for a, _ in tree.branches]
    assert labels == ["c", "l"]
    inner = dict(tree.branches)["c"]
    assert isinstance(inner, Node) and inner.mover == "B"
    # two decision nodes on the continue spine
    cut = dict(inner.branches)["c"]
    assert cut == Leaf(PayoffVector(A=0, B=1))  # cut lands back on SA


def test_unfold_seven_matches_hand_built_final_leaf():
    tree = unfold(zero_one_graph(), 7, QUIT_CLOSURE)
    current = tree
    movers = []
    while isinstance(current, Node):
        movers.append(current.mover)
        current = dict(current.branches)["c"]
    assert movers == ["A", "B", "A", "B", "A", "B", "A"]
    assert current == Leaf(PayoffVector(A=1, B=0))


def test_unfold_six_matches_hand_built_final_leaf():
    tree = unfold(zero_one_graph(), 6, QUIT_CLOSURE)
    current = tree
    movers = []
    while isinstance(current, Node):
        movers.append(current.mover)
        current = dict(current.branches)["c"]
    assert movers == ["A", "B", "A", "B", "A", "B"]
    assert current == Leaf(PayoffVector(A=0, B=1))


def _truncate(tree, d):
    """Compare helper: the tree with its whole depth-d frontier erased."""
    if d == 0:
        return None
    if isinstance(tree, Leaf):
        return tree
    return Node(
        tree.mover,
        tuple((a, _truncate(child, d - 1)) for a, child in tree.branches),
    )


def test_unfold_approximants_cohere():
    rng = random.Random(11)
    closure = lambda sid: PayoffVector(A=0, B=0)
    for _ in range(20) :
        g = random_game_graph(rng)
        if not validate_graph(g).ok:
            continue
        for d in range(0, 4):
            shallow = unfold(g, d, closure)
            deep = unfold(g, d + 1, closure)
            assert _truncate(shallow, d) == _truncate(deep, d)


def test_dollar_auction_rejects_small_stakes():
    with pytest.raises(ValueError):
        dollar_auction(1)


def test_dollar_auction_terminal_bookkeeping():
    d = dollar_auction(100)
    qb = d.states["QB"].payoffs
    # B quits at stage 0: B forfeits nothing, A takes the prize minus her 1.
    assert qb.at_stage(0) == PayoffVector(A=99, B=0)
    qa = d.states["QA"].payoffs
    assert qa.at_stage(0) == PayoffVector(A=0, B=99)
    t0 = d.states["T0"].payoffs
    assert t0.at_stage(0) == PayoffVector(A=0, B=0)


def test_dollar_auction_stage_deltas():
    d = dollar_auction(100)
    assert d.states["DB"].edges == (("quit", "QB", 0), ("raise", "DA", 1))
    assert d.states["DA"].edges == (("quit", "QA", 0), ("raise", "DB", 1))


def test_param_walk_accumulates_deltas():
    rng = random.Random(13)
    d = dollar_auction(50)
    for _ in range(50):
        sid, stage, hops = d.start, 0, 0
        stages = [0]
        while hops < 12:
            state = d.states[sid]
            if not isinstance(state, Decision):
                break
            action, target, delta = rng.choice(state.edges)
            stage += delta
            stages.append(stage)
            sid = target
            hops += 1
        assert stages == sorted(stages)  # never decreases
        assert stage == stages[-1]


def test_unfold_param_evaluates_stages():
    d = dollar_auction(100)
    closure = lambda sid, stage: PayoffVector(A=0, B=0)
    tree = unfold_param(d, 3, closure)
    # path bid -> raise -> quit: B raised to 2, A quit at stage 1
    sub = tree
    for action in ("bid", "raise", "quit"):
        sub = dict(sub.branches)[action]
    assert sub == Leaf(PayoffVector(A=-1, B=98))


def test_unfold_evaluates_an_affine_closure_at_each_cut_stage():
    # On a pgraph stationary_closure gives play values affine in the stage;
    # unfold evaluates each at its cut state's stage, so the leaves hold
    # exact payoffs and the tree solves.
    g = dollar_auction(5)
    closure = stationary_closure(g, StationaryProfile(S0="pass", DB="quit", DA="quit"))
    assert isinstance(closure["DB"], AffinePayoffs)
    for depth in range(6):
        tree = unfold(g, depth, closure)
        assert tree == unfold_param(g, depth, lambda sid, stage: closure[sid].at_stage(stage))
        assert backward_induction(tree).count >= 1
    # bid, raise, raise cuts DB at stage 2, where B quitting leaves A the
    # prize of 5 less her bid of 3, and costs B his 2.
    sub = unfold(g, 3, closure)
    for action in ("bid", "raise", "raise"):
        sub = dict(sub.branches)[action]
    assert sub == Leaf(PayoffVector(A=2, B=-2))


def test_stage_reachability_dollar_auction():
    reach = StageReachability(dollar_auction(100))
    assert reach.least_at_least("S0", 0) == 0 and reach.least_at_least("S0", 1) is None
    assert reach.least_at_least("S0", len(reach.layers)) is None
    assert reach.least_at_least("DA", len(reach.layers)) is not None
    assert reach.least_at_least("DA", 0) == 1
    assert reach.least_at_least("DB", len(reach.layers)) is not None
    assert reach.least_at_least("DB", 0) == 0
    # DA at odd stages, DB at even stages
    assert [k for k in range(8) if reach.least_at_least("DA", k) == k] == [1, 3, 5, 7]
    assert [k for k in range(8) if reach.least_at_least("DB", k) == k] == [0, 2, 4, 6]
    assert reach.least_at_least("DA", 4) == 5
    assert reach.least_at_least("DB", 4) == 4
    assert reach.least_at_least("S0", 1) is None


def _stage_path(rng: random.Random, n: int, ring: bool) -> ParamGraph:
    """A pgraph path of ``n`` decision states, each continuing to the next
    (on a ring, the last to the first) with a random stage delta and
    leaving to a terminal of its own with another."""
    states = {}
    for i in range(n):
        onward = f"S{(i + 1) % n}" if ring or i + 1 < n else "END"
        edges = (("c", onward, rng.randint(0, 1)), ("l", f"T{i}", rng.randint(0, 1)))
        states[f"S{i}"] = Decision("AB"[i % 2], edges)
        states[f"T{i}"] = Terminal(AffinePayoffs(A=AffineExpr(i % 3, -1), B=AffineExpr(1)))
    states["END"] = Terminal(AffinePayoffs(A=AffineExpr(0), B=AffineExpr(0)))
    return ParamGraph(name="ring" if ring else "chain", states=states, start="S0")


def test_least_at_least_matches_a_search_over_states_and_stages():
    # Every state, at every stage k0 past the prefix plus two periods,
    # against a breadth-first search bounded one period further, which
    # holds the least reachable stage >= k0 whenever there is one.  The
    # layers themselves are the stage sets of the search.
    rng = random.Random(17)
    cases = [random_param_graph(rng, max_internal=6, ranked=rng.random() < 0.5) for _ in range(240)]
    cases += [_stage_path(rng, n, ring) for n in range(1, 13) for ring in (False, True) for _ in range(3)]
    periods = set()
    for graph in cases:
        reach = StageReachability(graph)
        period = reach.period or 0
        last = len(reach.layers) + 2 * period + 2
        stages = reachable_stages(graph, last + period)
        for k, layer in enumerate(reach.layers):
            assert layer == {sid for sid in graph.states if k in stages[sid]}, (graph, k)
        for sid in graph.states:
            for k0 in range(last + 1):
                expected = min((k for k in stages[sid] if k >= k0), default=None)
                assert reach.least_at_least(sid, k0) == expected, (graph, sid, k0)
        periods.add(period)
    assert len(cases) >= 200 and {0, 1, 2, 3} <= periods


def test_stage_reachability_decides_coprime_cycles_within_its_budget():
    # Cycles of 3, 5, 7, 11 and 13 states off one start state: 15,016
    # layers, the last 15,015 repeating, 150,161 entries in all, inside the
    # budget; each cycle state is entered at the stages of its residue.
    lengths = (3, 5, 7, 11, 13)
    leave = Terminal(AffinePayoffs(A=AffineExpr(1, -1), B=AffineExpr(2)))
    states = {"S": Decision("A", tuple((f"e{n}", f"C{n}_0", 0) for n in lengths))}
    for n in lengths:
        for i in range(n):
            states[f"C{n}_{i}"] = Decision("B", (("c", f"C{n}_{(i + 1) % n}", 1), ("l", f"L{n}_{i}", 0)))
            states[f"L{n}_{i}"] = leave
    graph = ParamGraph(name="cycles", states=states, start="S")
    reach = StageReachability(graph)
    assert (len(reach.layers), reach.loop_start, reach.period) == (15016, 1, 15015)
    assert sum(map(len, reach.layers)) == 150161 <= _ENTRY_BUDGET
    assert [reach.least_at_least("C11_4", k) for k in (0, 4, 5, 16, 10**9)] == [4, 4, 15, 26, 10**9 + 5]
    quit = StationaryProfile({sid: "l" if sid != "S" else "e3" for sid in graph.internal_ids()})
    assert check_spe_graph(graph, quit) == SpeOk()


def test_stage_reachability_acyclic():
    g = ParamGraphFixture()
    reach = StageReachability(g)
    assert reach.loop_start is None
    assert reach.least_at_least("END", 1) == 1
    assert reach.least_at_least("END", 2) is None


def ParamGraphFixture():
    return ParamGraph(
        name="line",
        states={
            "GO": Decision("A", (("step", "END", 1),)),
            "END": Terminal(AffinePayoffs(A=AffineExpr(1), B=AffineExpr(0))),
        },
        start="GO",
    )


def logging_cut(log):
    """A cut payoff that depends only on (state, stage) and records each
    call."""

    def cut(sid, stage):
        log.append((sid, stage))
        return PayoffVector(A=len(sid) + ord(sid[-1]), B=stage)

    return cut


# A map that misses every cut state beyond S1, and a quit that fails at a
# state with no exit, make some truncations below fail.
TRUNCATION_RULES = [
    parse_closure_spec(spec)
    for spec in ("quit", "const:(A:1,B:-1/2)", "map:S0=(A:2,B:0);S1=(A:0,B:3)")
]


def test_unfold_matches_recursive_reference():
    rng = random.Random(77)
    graphs = [random_game_graph(rng, max_internal=4) for _ in range(40)]
    graphs += [random_param_graph(rng, max_internal=4) for _ in range(40)]
    for graph in graphs:
        for depth in range(7):
            calls, expected_calls = [], []
            cut = logging_cut(calls)
            if not isinstance(graph, ParamGraph):
                tree = unfold(graph, depth, lambda sid: cut(sid, 0))
            else:
                tree = unfold_param(graph, depth, cut)
            expected = recursive_unfolding(graph, depth, logging_cut(expected_calls))
            assert tree == expected, (graph, depth)
            # The cut is asked once per distinct (state, stage), in the
            # order the depth-first walk first meets it.
            assert calls == list(dict.fromkeys(expected_calls))
    # truncate, with every closure rule, against the same reference.
    failures = set()
    for graph in graphs:
        for rule in TRUNCATION_RULES:
            reference_cut = lambda sid, stage: rule.payoff(graph, sid, stage)
            for depth in range(9):
                try:
                    expected = recursive_unfolding(graph, depth, reference_cut)
                except MissingClosureError as error:
                    with pytest.raises(MissingClosureError) as raised:
                        truncate(graph, depth, rule)
                    assert str(raised.value) == str(error), (graph, rule, depth)
                    failures.add(str(error))
                    continue
                assert truncate(graph, depth, rule) == expected, (graph, rule, depth)
    assert "no closure payoff for cut state 'S2'" in failures
    assert "quit closure undefined: state 'S0' has no edge to a terminal" in failures


def test_validate_rejects_payload_of_the_other_graph_kind():
    affine = Terminal(AffinePayoffs(A=AffineExpr(1, -1), B=AffineExpr(0)))
    constant = Terminal(PayoffVector(A=1, B=0))
    step = Decision("A", (("go", "T", 0),))

    plain_with_affine = GameGraph(name="g", states={"S": step, "T": affine}, start="S")
    messages = [str(v) for v in validate_graph(plain_with_affine).violations]
    assert messages == ["T: payoffs are AffinePayoffs, expected PayoffVector"]

    param_with_constant = ParamGraph(name="p", states={"S": step, "T": constant}, start="S")
    messages = [str(v) for v in validate_graph(param_with_constant).violations]
    assert messages == ["T: payoffs are PayoffVector, expected AffinePayoffs"]

    staged = Decision("A", (("go", "T", 1),))
    plain_with_delta = GameGraph(name="g", states={"S": staged, "T": constant}, start="S")
    messages = [str(v) for v in validate_graph(plain_with_delta).violations]
    assert messages == ["S: edge 'go' has stage delta 1, expected 0"]
    assert validate_graph(ParamGraph(name="p", states={"S": staged, "T": affine}, start="S")).ok

    # Every checker entry point refuses such graphs with a typed error, not
    # a traceback; rationalizable_actions before it looks at its list, and
    # the unfoldings before they look at the depth.
    go = StationaryProfile(S="go")
    entry_points = [
        lambda graph: check_spe(graph, go),
        lambda graph: check_spe_graph(graph, go),
        lambda graph: check_spe_param(graph, go),
        lambda graph: concrete_unfolding_check(graph, go, 2),
        lambda graph: enumerate_stationary_spe(graph),
        lambda graph: stationary_closure(graph, go),
        lambda graph: rationalizable_actions(graph, []),
        lambda graph: induced_tree_profile(graph, go, 2),
        lambda graph: unfold(graph, -1, {}),
        lambda graph: unfold_param(graph, -1, lambda sid, stage: None),
    ]
    for graph in (plain_with_affine, param_with_constant, plain_with_delta):
        for call in entry_points:
            with pytest.raises(GameError, match="^invalid graph: "):
                call(graph)


def test_each_checker_entry_point_validates_once(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "seqgames.graphs.validate_graph", lambda graph: calls.append(graph) or validate_graph(graph)
    )
    alice_raises = StationaryProfile(S0="bid", DA="raise", DB="quit")
    entry_points = (
        lambda auction: check_spe(auction, alice_raises),
        lambda auction: check_spe_graph(auction, alice_raises),
        lambda auction: check_spe_param(auction, alice_raises),
        lambda auction: concrete_unfolding_check(auction, alice_raises, 4),
        lambda auction: enumerate_stationary_spe(auction),
        lambda auction: stationary_closure(auction, alice_raises),
        lambda auction: rationalizable_actions(auction, [alice_raises]),
        lambda auction: induced_tree_profile(auction, alice_raises, 4),
        lambda auction: unfold_param(auction, 4, lambda sid, stage: PayoffVector(A=0, B=0)),
        lambda auction: unfold(auction, 2, stationary_closure(auction, alice_raises)),
    )
    for call in entry_points:
        auction = dollar_auction(10)
        calls.clear()
        call(auction)
        assert calls == [auction]
    # The last graph checked is kept, so all ten in a row validate once.
    auction = dollar_auction(10)
    calls.clear()
    for call in entry_points:
        call(auction)
    assert len(calls) == 1 and calls[0] is auction


def test_unfold_keeps_to_the_package_it_was_imported_with():
    # The benchmark imports the package afresh for every pass and checks
    # the first pass's results at the end, with its modules: their graphs
    # must not reach the checker of a later import.
    script = textwrap.dedent(
        """
        import sys
        from seqgames import graphs as first
        for name in [n for n in sys.modules if n.split(".")[0] == "seqgames"]:
            del sys.modules[name]
        import seqgames
        quit = {"SA": first.PayoffVector(A=0, B=1), "SB": first.PayoffVector(A=1, B=0)}
        print(first.unfold(first.zero_one_graph(), 1, quit))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert "Node" in result.stdout


def test_validate_game_keeps_to_the_package_it_was_imported_with():
    # validate_game compiles with finite's _Tree, whose isinstance tests
    # must be against the Leaf of the same import as the game's.
    script = textwrap.dedent(
        """
        import sys
        from seqgames import core, finite as first
        for name in [n for n in sys.modules if n.split(".")[0] == "seqgames"]:
            del sys.modules[name]
        import seqgames
        print(first.validate_game(core.node("A", x=core.leaf(A=1), y=core.leaf(A=2))))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ValidationReport(")
