"""Escalation analysis over verified equilibria of a game graph.

An action is *rationalizable* at a state when at least one verified
equilibrium prescribes it there.  When the subgraph of rationalizable edges
contains a cycle reachable from the start, an infinite play exists in which
every single step is prescribed by some equilibrium for its mover: each
player keeps choosing rationally while believing her own equilibrium, and
the play never ends.  The witness for that situation is the least lasso of
such a cycle.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from seqgames.core import GameError
from seqgames.coinduction import StationaryProfile, _ProfileChecker
from seqgames.graphs import Decision, GameGraph, require_valid_graph


@dataclass(frozen=True)
class RationalizableMap:
    """Per state, the actions chosen by at least one verified equilibrium.

    Each action is tagged with the (1-based) indices of the equilibria in
    the originating list that prescribe it.
    """

    actions: Mapping[str, Mapping[str, tuple[int, ...]]]

    def supported(self, state: str, action: str) -> tuple[int, ...]:
        return self.actions.get(state, {}).get(action, ())


@dataclass(frozen=True)
class WitnessStep:
    state: str
    action: str
    spe_id: int  # index of one equilibrium prescribing the action


@dataclass(frozen=True)
class EscalationWitness:
    """A lasso of rationalizable steps: finite prefix, then a repeating cycle."""

    prefix: tuple[WitnessStep, ...]
    cycle: tuple[WitnessStep, ...]

    def states(self) -> tuple[str, ...]:
        return tuple(step.state for step in self.prefix + self.cycle)


def rationalizable_actions(
    graph: GameGraph, spes: Sequence[StationaryProfile]
) -> RationalizableMap:
    """Union of the equilibria's chosen actions, per state.

    Every supplied profile is re-verified; a non-equilibrium input is a
    caller bug and raises.
    """
    require_valid_graph(graph)
    if not spes:
        raise GameError("rationalizable actions need at least one equilibrium")
    checker = _ProfileChecker(graph)
    for i, profile in enumerate(spes, start=1):
        verdict = checker.check(profile)
        if not verdict.ok:
            raise GameError(f"profile #{i} is not an equilibrium: {verdict.describe()}")
    actions: dict[str, dict[str, tuple[int, ...]]] = {}
    for sid in graph.internal_ids():
        per_state: dict[str, tuple[int, ...]] = {}
        for action, _, _ in graph.states[sid].edges:
            tags = tuple(
                i for i, profile in enumerate(spes, start=1) if profile[sid] == action
            )
            if tags:
                per_state[action] = tags
        actions[sid] = per_state
    return RationalizableMap(actions)


def _rational_edges(graph: GameGraph, rmap: RationalizableMap) -> dict[str, list[tuple[str, str, int]]]:
    """Per state: (action, target, first supporting equilibrium), branch order."""
    edges: dict[str, list[tuple[str, str, int]]] = {}
    for sid in graph.internal_ids():
        kept = []
        for action, target, _ in graph.states[sid].edges:
            tags = rmap.supported(sid, action)
            if tags:
                kept.append((action, target, tags[0]))
        edges[sid] = kept
    return edges


def escalation_witness(
    graph: GameGraph, rmap: RationalizableMap
) -> EscalationWitness | None:
    """Least lasso of rationalizable edges reachable from the start.

    Minimality order: shortest prefix, then shortest cycle, then branch
    order along the path.  Returns None exactly when the rationalizable
    subgraph reachable from the start is acyclic.
    """
    require_valid_graph(graph)
    edges = _rational_edges(graph, rmap)
    internal = set(edges)

    def dist(origin: str) -> dict[str, int]:
        found = {origin: 0}
        queue = [origin]
        while queue:
            sid = queue.pop(0)
            for _, target, _ in edges.get(sid, ()):  # terminals have no edges
                if target in internal and target not in found:
                    found[target] = found[sid] + 1
                    queue.append(target)
        return found

    if graph.start not in internal:
        return None
    from_start = dist(graph.start)
    cycle_len: dict[str, int] = {}
    for sid in sorted(from_start):
        best = None
        back = dist_to(edges, internal, sid)
        for _, target, _ in edges[sid]:
            if target in back:
                length = 1 + back[target]
                if best is None or length < best:
                    best = length
        if best is not None:
            cycle_len[sid] = best
    if not cycle_len:
        return None
    prefix_len = min(from_start[sid] for sid in cycle_len)
    best_cycle = min(
        cycle_len[sid] for sid in cycle_len if from_start[sid] == prefix_len
    )

    # The least prefix is the first in branch order among paths that step
    # one BFS layer at a time and end at a state with a least cycle.  Mark
    # the states from which such a path goes on, from the last layer back
    # to the start, then walk forward taking the first edge to a marked one.
    good = {
        sid
        for sid, layer in from_start.items()
        if layer == prefix_len and cycle_len.get(sid) == best_cycle
    }
    for layer in reversed(range(prefix_len)):
        good |= {
            sid
            for sid, at in from_start.items()
            if at == layer
            and any(
                target in good and from_start[target] == layer + 1
                for _, target, _ in edges[sid]
            )
        }
    path: list[WitnessStep] = []
    sid = graph.start
    while len(path) < prefix_len:
        action, target, tag = next(
            (action, target, tag)
            for action, target, tag in edges[sid]
            if target in good and from_start[target] == len(path) + 1
        )
        path.append(WitnessStep(sid, action, tag))
        sid = target
    return EscalationWitness(tuple(path), _least_cycle(edges, internal, sid, best_cycle))


def dist_to(edges, internal, goal: str) -> dict[str, int]:
    """Shortest rationalizable-edge distance from each state to ``goal``."""
    reverse: dict[str, list[str]] = {sid: [] for sid in internal}
    for sid in internal:
        for _, target, _ in edges[sid]:
            if target in internal:
                reverse[target].append(sid)
    found = {goal: 0}
    queue = [goal]
    while queue:
        sid = queue.pop(0)
        for source in reverse[sid]:
            if source not in found:
                found[source] = found[sid] + 1
                queue.append(source)
    return found


def _least_cycle(edges, internal, origin: str, length: int) -> tuple[WitnessStep, ...]:
    """Lexicographically least (by branch order) cycle of ``length`` at origin."""
    back = dist_to(edges, internal, origin)
    steps: list[WitnessStep] = []
    sid = origin
    remaining = length
    while remaining:
        for action, target, tag in edges[sid]:
            target_ok = target == origin if remaining == 1 else (
                target in back and back[target] == remaining - 1 and target in internal
            )
            if target_ok:
                steps.append(WitnessStep(sid, action, tag))
                sid = target
                remaining -= 1
                break
        else:
            raise AssertionError("cycle reconstruction lost its way")
    return tuple(steps)


@dataclass(frozen=True)
class ThreatRow:
    """One rationalizable action with its equilibrium backing."""

    state: str
    mover: str
    action: str
    target: str
    continues: bool  # the edge stays inside the game rather than exiting
    supported_by: tuple[int, ...]
    response: str | None  # what the target's mover does, per the first backer


@dataclass(frozen=True)
class ThreatReport:
    """Credible-threat table plus the mutually non-credible states.

    A state is flagged when its mover has an equilibrium-backed way of
    continuing and some other player has an equilibrium-backed continuation
    into it: each side can treat the other's threat as empty, which is the
    precondition for escalation.
    """

    rows: tuple[ThreatRow, ...]
    mutually_non_credible: tuple[str, ...]


def credible_threat_report(
    graph: GameGraph, spes: Sequence[StationaryProfile]
) -> ThreatReport:
    rmap = rationalizable_actions(graph, spes)
    rows: list[ThreatRow] = []
    continuing_out: dict[str, set[str]] = {}
    continuing_in: dict[str, set[str]] = {}
    for sid in graph.internal_ids():
        state = graph.states[sid]
        mover = state.mover  # type: ignore[union-attr]
        for action, target, _ in state.edges:
            tags = rmap.supported(sid, action)
            if not tags:
                continue
            target_state = graph.states[target]
            continues = isinstance(target_state, Decision)
            response = None
            if continues:
                responder = spes[tags[0] - 1]
                response = responder[target]
            rows.append(
                ThreatRow(sid, mover, action, target, continues, tags, response)
            )
            if continues:
                continuing_out.setdefault(sid, set()).add(mover)
                continuing_in.setdefault(target, set()).add(mover)
    flagged = tuple(
        sid
        for sid in graph.internal_ids()
        if continuing_out.get(sid)
        and any(
            mover != graph.states[sid].mover  # type: ignore[union-attr]
            for mover in continuing_in.get(sid, ())
        )
    )
    return ThreatReport(tuple(rows), flagged)
