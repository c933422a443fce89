import random

import pytest

from seqgames.core import GameError
from seqgames.coinduction import (
    StationaryProfile,
    enumerate_stationary_spe,
)
from seqgames.escalation import (
    EscalationWitness,
    RationalizableMap,
    WitnessStep,
    _least_cycle,
    _rational_edges,
    credible_threat_report,
    dist_to,
    escalation_witness,
    rationalizable_actions,
)
from seqgames.graphs import (
    dollar_auction,
    validate_graph,
    zero_one_graph,
)
from tests.conftest import random_game_graph

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


def _reference_witness(graph, rmap):
    """The least lasso found by depth-first search over minimal prefixes,
    as ``escalation_witness`` did before it worked layer by layer."""
    edges = _rational_edges(graph, rmap)
    internal = set(edges)
    if graph.start not in internal:
        return None
    from_start = {graph.start: 0}
    queue = [graph.start]
    while queue:
        sid = queue.pop(0)
        for _, target, _ in edges[sid]:
            if target in internal and target not in from_start:
                from_start[target] = from_start[sid] + 1
                queue.append(target)
    cycle_len = {}
    for sid in sorted(from_start):
        back = dist_to(edges, internal, sid)
        lengths = [1 + back[t] for _, t, _ in edges[sid] if t in back]
        if lengths:
            cycle_len[sid] = min(lengths)
    if not cycle_len:
        return None
    prefix_len = min(from_start[sid] for sid in cycle_len)
    best_cycle = min(
        cycle_len[sid] for sid in cycle_len if from_start[sid] == prefix_len
    )

    def search(sid, remaining, path):
        if remaining == 0:
            if cycle_len.get(sid) == best_cycle:
                return EscalationWitness(
                    tuple(path), _least_cycle(edges, internal, sid, best_cycle)
                )
            return None
        for action, target, tag in edges[sid]:
            if target in internal and from_start.get(target) == len(path) + 1:
                path.append(WitnessStep(sid, action, tag))
                found = search(target, remaining - 1, path)
                if found is not None:
                    return found
                path.pop()
        return None

    return search(graph.start, prefix_len, [])


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
            assert witness == _reference_witness(g, rmap), (g, rmap)
            if witness is not None:
                prefixes.add(len(witness.prefix))
    assert len(prefixes) >= 4, prefixes


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
