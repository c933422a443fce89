import random

import pytest

from seqgames.core import GameError, PayoffVector
from seqgames.coinduction import (
    StationaryProfile,
    enumerate_stationary_spe,
)
from seqgames.escalation import (
    EscalationWitness,
    RationalizableMap,
    WitnessStep,
    credible_threat_report,
    escalation_witness,
    rationalizable_actions,
)
from seqgames.graphs import (
    Decision,
    GameGraph,
    Terminal,
    dollar_auction,
    validate_graph,
    zero_one_graph,
)
from tests.conftest import random_game_graph, random_param_graph, random_ring_graph
from tests.reference import least_lasso

ALICE_LEAVES = StationaryProfile(SA="l", SB="c")
BOB_LEAVES = StationaryProfile(SA="c", SB="l")


def zero_one_spes():
    return [p for p, v in enumerate_stationary_spe(zero_one_graph()) if v.ok]


def test_rationalizable_map_zero_one():
    g = zero_one_graph()
    rmap = rationalizable_actions(g, [ALICE_LEAVES, BOB_LEAVES])
    assert set(rmap.actions["SA"]) == {"l", "c"}
    assert set(rmap.actions["SB"]) == {"c", "l"}
    assert rmap.supported("SA", "l") == (1,)
    assert rmap.supported("SA", "c") == (2,)


def test_rationalizable_map_single_spe():
    g = zero_one_graph()
    rmap = rationalizable_actions(g, [ALICE_LEAVES])
    assert dict(rmap.actions["SA"]) == {"l": (1,)}
    assert dict(rmap.actions["SB"]) == {"c": (1,)}


def test_rationalizable_requires_nonempty_verified_input():
    g = zero_one_graph()
    with pytest.raises(GameError):
        rationalizable_actions(g, [])
    with pytest.raises(GameError):
        rationalizable_actions(g, [StationaryProfile(SA="l", SB="l")])


def test_a_one_shot_iterable_of_equilibria_is_read_once():
    g = zero_one_graph()
    spes = zero_one_spes()
    assert rationalizable_actions(g, iter(spes)) == rationalizable_actions(g, spes)
    assert rationalizable_actions(g, iter(spes)).supported("SA", "l") != ()
    assert credible_threat_report(g, iter(spes)) == credible_threat_report(g, spes)
    assert credible_threat_report(g, iter(spes)).rows != ()
    with pytest.raises(GameError, match="^rationalizable actions need at least one equilibrium$"):
        rationalizable_actions(g, iter([]))
    with pytest.raises(GameError, match="^rationalizable actions need at least one equilibrium$"):
        credible_threat_report(g, (p for p in ()))


def test_rationalizable_map_matches_a_scan_of_every_profile():
    # The tags, and the order of states, actions and tags, are those of a
    # lookup of each state in each equilibrium, branch by branch.
    rng = random.Random(808)
    tried = 0
    for n in range(60):
        g = random_ring_graph(rng, rng.randint(3, 7)) if n % 2 else random_param_graph(rng, ranked=True)
        spes = [p for p, v in enumerate_stationary_spe(g) if v.ok]
        if not spes:
            continue
        spes = rng.sample(spes, len(spes)) + spes[:1]
        expected = []
        for sid in g.internal_ids():
            per_state = []
            for action, _, _ in g.states[sid].edges:
                tags = tuple(i for i, p in enumerate(spes, start=1) if p[sid] == action)
                if tags:
                    per_state.append((action, tags))
            expected.append((sid, per_state))
        rmap = rationalizable_actions(g, spes)
        assert [(sid, list(acts.items())) for sid, acts in rmap.actions.items()] == expected
        tried += len(spes) > 2
    assert tried >= 10


def test_escalation_witness_zero_one():
    g = zero_one_graph()
    rmap = rationalizable_actions(g, zero_one_spes())
    witness = escalation_witness(g, rmap)
    assert witness is not None
    assert witness.prefix == ()
    assert [s.state for s in witness.cycle] == ["SA", "SB"]
    assert all(s.action == "c" for s in witness.cycle)


def test_escalation_witness_validates_against_map():
    g = zero_one_graph()
    rmap = rationalizable_actions(g, zero_one_spes())
    witness = escalation_witness(g, rmap)
    steps = witness.prefix + witness.cycle
    for step in steps:
        assert step.spe_id in rmap.supported(step.state, step.action)
    # the path is valid and the cycle closes
    path = [s.state for s in steps]
    for i, step in enumerate(steps):
        targets = {a: t for a, t, _ in g.states[step.state].edges}
        nxt = path[i + 1] if i + 1 < len(path) else witness.cycle[0].state
        assert targets[step.action] == nxt


def test_escalation_witness_dollar_auction():
    d = dollar_auction(100)
    spes = [p for p, v in enumerate_stationary_spe(d) if v.ok]
    rmap = rationalizable_actions(d, spes)
    witness = escalation_witness(d, rmap)
    assert [s.state for s in witness.prefix] == ["S0"]
    assert witness.prefix[0].action == "bid"
    assert {s.state for s in witness.cycle} == {"DA", "DB"}
    assert all(s.action == "raise" for s in witness.cycle)


def test_single_spe_gives_no_escalation():
    g = zero_one_graph()
    rmap = rationalizable_actions(g, [ALICE_LEAVES])
    assert escalation_witness(g, rmap) is None


def test_escalation_stable_under_spe_reordering():
    g = zero_one_graph()
    fwd = escalation_witness(g, rationalizable_actions(g, [ALICE_LEAVES, BOB_LEAVES]))
    rev = escalation_witness(g, rationalizable_actions(g, [BOB_LEAVES, ALICE_LEAVES]))
    assert [(s.state, s.action) for s in fwd.cycle] == [
        (s.state, s.action) for s in rev.cycle
    ]
    d = dollar_auction(100)
    spes = [p for p, v in enumerate_stationary_spe(d) if v.ok]
    fwd = escalation_witness(d, rationalizable_actions(d, spes))
    rev = escalation_witness(d, rationalizable_actions(d, list(reversed(spes))))
    assert [(s.state, s.action) for s in fwd.cycle] == [
        (s.state, s.action) for s in rev.cycle
    ]


def _has_rationalizable_cycle(graph, rmap) -> bool:
    """Independent check: DFS for a cycle reachable from the start."""
    edges = {
        sid: [
            t
            for a, t, _ in graph.states[sid].edges
            if rmap.supported(sid, a) and t in set(graph.internal_ids())
        ]
        for sid in graph.internal_ids()
    }
    if graph.start not in edges:
        return False
    reachable = set()
    stack = [graph.start]
    while stack:
        sid = stack.pop()
        if sid in reachable:
            continue
        reachable.add(sid)
        stack.extend(edges[sid])
    color: dict[str, int] = {}

    def dfs(sid: str) -> bool:
        color[sid] = 1
        for nxt in edges[sid]:
            if nxt not in reachable:
                continue
            if color.get(nxt) == 1:
                return True
            if color.get(nxt, 0) == 0 and dfs(nxt):
                return True
        color[sid] = 2
        return False

    return any(dfs(sid) for sid in sorted(reachable) if color.get(sid, 0) == 0)


def test_witness_none_iff_acyclic_on_random_graphs():
    rng = random.Random(515)
    tried = 0
    for _ in range(80):
        g = random_game_graph(rng)
        if not validate_graph(g).ok:
            continue
        spes = [p for p, v in enumerate_stationary_spe(g) if v.ok]
        if not spes:
            continue
        rmap = rationalizable_actions(g, spes)
        witness = escalation_witness(g, rmap)
        assert (witness is not None) == _has_rationalizable_cycle(g, rmap)
        tried += 1
    assert tried > 20


def test_witness_matches_depth_first_reference_on_random_graphs():
    # Besides the map of every stationary equilibrium, each graph gets a
    # random map, which reaches deeper prefixes and more ties between them.
    rng = random.Random(2718)
    prefixes = set()
    for _ in range(1000):
        g = random_game_graph(rng, max_internal=7, max_terminals=2)
        if not validate_graph(g).ok:
            continue
        rmaps = [
            RationalizableMap(
                {
                    sid: {
                        action: (rng.randint(1, 3),)
                        for action, _, _ in g.states[sid].edges
                        if rng.random() < 0.7
                    }
                    for sid in g.internal_ids()
                }
            )
        ]
        spes = [p for p, v in enumerate_stationary_spe(g) if v.ok]
        if spes:
            rmaps.append(rationalizable_actions(g, spes))
        for rmap in rmaps:
            witness = escalation_witness(g, rmap)
            assert witness == least_lasso(g, rmap), (g, rmap)
            if witness is not None:
                prefixes.add(len(witness.prefix))
    assert len(prefixes) >= 4, prefixes


def _all_backed(moves: dict[str, tuple[str, ...]]):
    """A one-player graph whose state ``sid`` moves to ``moves[sid]`` by
    actions ``a``, ``b``, ``c`` in that branch order, or exits by ``x``, and
    a map that backs ``a``, ``b``, ``c`` by equilibria 1, 2, 3 and never the
    exit.  The first state listed is the start."""
    states, backed = {}, {}
    for sid, targets in moves.items():
        edges = [(label, target, 0) for label, target in zip("abc", targets)]
        states[sid] = Decision("A", (*edges, ("x", "OUT", 0)))
        backed[sid] = {label: (i,) for i, (label, _, _) in enumerate(edges, start=1)}
    states["OUT"] = Terminal(PayoffVector(A=0))
    graph = GameGraph(name="ties", states=states, start=next(iter(moves)))
    return graph, RationalizableMap(backed)


def _steps(*moves: str) -> tuple[WitnessStep, ...]:
    """Witness steps from ``"state.action"`` moves, as ``_all_backed`` backs them."""
    return tuple(
        WitnessStep(state, action, "abc".index(action) + 1)
        for state, action in (move.split(".") for move in moves)
    )


def test_equal_witnesses_go_to_the_first_branch_not_the_first_id():
    # Both ends of a one-step prefix loop on themselves; the first branch
    # leads to the state whose id sorts later.
    graph, rmap = _all_backed({"S": ("Y", "X"), "X": ("X",), "Y": ("Y",)})
    witness = escalation_witness(graph, rmap)
    assert witness == EscalationWitness(_steps("S.a"), _steps("Y.a"))
    assert witness == least_lasso(graph, rmap)


def test_a_shorter_prefix_beats_a_shorter_cycle():
    # A 3-cycle one step from the start, a self-loop two steps from it.
    graph, rmap = _all_backed(
        {"S": ("C1", "P"), "C1": ("C2",), "C2": ("C3",), "C3": ("C1",), "P": ("Q",), "Q": ("Q",)}
    )
    witness = escalation_witness(graph, rmap)
    assert witness == EscalationWitness(_steps("S.a"), _steps("C1.a", "C2.a", "C3.a"))
    assert witness == least_lasso(graph, rmap)


def test_a_start_on_a_cycle_gives_an_empty_prefix():
    # Two 2-cycles through the start, and a self-loop one step away.
    graph, rmap = _all_backed({"S": ("T1", "T2", "U"), "T1": ("S",), "T2": ("S",), "U": ("U",)})
    witness = escalation_witness(graph, rmap)
    assert witness == EscalationWitness((), _steps("S.a", "T1.a"))
    assert witness == least_lasso(graph, rmap)


def test_credible_threat_report_zero_one():
    g = zero_one_graph()
    report = credible_threat_report(g, zero_one_spes())
    assert set(report.mutually_non_credible) == {"SA", "SB"}
    row = next(r for r in report.rows if r.state == "SA" and r.action == "c")
    assert row.continues and row.target == "SB"
    assert row.response in {"c", "l"}


def test_credible_threat_report_single_spe_flags_nothing():
    report = credible_threat_report(zero_one_graph(), [ALICE_LEAVES])
    assert report.mutually_non_credible == ()


def test_credible_threat_report_dollar_auction():
    d = dollar_auction(100)
    spes = [p for p, v in enumerate_stationary_spe(d) if v.ok]
    report = credible_threat_report(d, spes)
    assert set(report.mutually_non_credible) == {"DA", "DB"}
