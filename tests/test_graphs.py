import random
from fractions import Fraction

import pytest

from seqgames.coinduction import StationaryProfile, check_spe
from seqgames.core import GameError, Leaf, Node, PayoffVector
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
)
from tests.conftest import random_game_graph, random_param_graph

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


def test_stage_reachability_dollar_auction():
    reach = StageReachability(dollar_auction(100))
    assert reach.min_offset("S0") == 0
    assert reach.least_at_least("S0", 0) == 0 and reach.least_at_least("S0", 1) is None
    assert reach.least_at_least("S0", len(reach.layers)) is None
    assert reach.least_at_least("DA", len(reach.layers)) is not None
    assert reach.min_offset("DA") == 1
    assert reach.least_at_least("DB", len(reach.layers)) is not None
    assert reach.min_offset("DB") == 0
    # DA at odd stages, DB at even stages
    assert [k for k in range(8) if reach.least_at_least("DA", k) == k] == [1, 3, 5, 7]
    assert [k for k in range(8) if reach.least_at_least("DB", k) == k] == [0, 2, 4, 6]
    assert reach.least_at_least("DA", 4) == 5
    assert reach.least_at_least("DB", 4) == 4
    assert reach.least_at_least("S0", 1) is None


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


def recursive_unfolding(graph, depth, cut):
    """Reference for the iterative builder: the recursive walk it replaced,
    with ``cut(state, stage)`` called at cut states in the same order."""

    def build(sid, stage, d):
        state = graph.states[sid]
        if isinstance(state, Terminal):
            payoffs = state.payoffs
            return Leaf(payoffs.at_stage(stage) if isinstance(payoffs, AffinePayoffs) else payoffs)
        if d == depth:
            return Leaf(cut(sid, stage))
        return Node(
            state.mover,
            tuple((action, build(target, stage + delta, d + 1)) for action, target, delta in state.edges),
        )

    return build(graph.start, 0, 0)


def logging_cut(log):
    """A cut payoff that records each call and depends on the call order."""

    def cut(sid, stage):
        log.append((sid, stage))
        return PayoffVector(A=len(log), B=stage)

    return cut


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
            assert calls == expected_calls


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

    # The checkers refuse such graphs with a typed error, not a traceback.
    for graph in (plain_with_affine, param_with_constant, plain_with_delta):
        with pytest.raises(GameError, match="invalid graph"):
            check_spe(graph, StationaryProfile(S="go"))
