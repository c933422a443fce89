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

from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain

from seqgames.core import GameError, _record
from seqgames.coinduction import StationaryProfile, _checker
from seqgames.graphs import Decision, GameGraph


@_record
class RationalizableMap:
    """Per state, the actions chosen by at least one verified equilibrium.

    Each action is tagged with the (1-based) indices of the equilibria in
    the originating list that prescribe it.
    """

    actions: Mapping[str, Mapping[str, tuple[int, ...]]]

    def supported(self, state: str, action: str) -> tuple[int, ...]:
        return self.actions.get(state, {}).get(action, ())


@_record
class WitnessStep:
    state: str
    action: str
    spe_id: int  # index of one equilibrium prescribing the action


@_record
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
    checker = _checker(graph)
    if not spes:
        raise GameError("rationalizable actions need at least one equilibrium")
    for i, profile in enumerate(spes, start=1):
        verdict = checker.check(profile)
        if not verdict.ok:
            raise GameError(f"profile #{i} is not an equilibrium: {verdict.describe()}")
    return _rationalizable_map(graph, spes)


def _rationalizable_map(
    graph: GameGraph, spes: Sequence[StationaryProfile]
) -> RationalizableMap:
    """``rationalizable_actions`` for profiles the caller has verified, by
    one pass over each profile's entries."""
    tags: dict[tuple[str, str], list[int]] = {}
    for i, profile in enumerate(spes, start=1):
        for entry in profile._entries:
            tags.setdefault(entry, []).append(i)
    return RationalizableMap({
        sid: {a: tuple(tags[sid, a]) for a, _, _ in graph.states[sid].edges if (sid, a) in tags}
        for sid in graph.internal_ids()
    })


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


def _least_paths(
    edges: Mapping[str, Sequence[tuple[str, str, int]]], origin: str
) -> Iterator[tuple[str, tuple[WitnessStep, ...]]]:
    """Breadth-first search from ``origin`` over rationalizable edges between
    decision states, taking each state's edges in branch order.

    Yields each reached state with its least shortest path from ``origin``,
    in the order the states are reached.  The origin does not count as
    reached at the outset, so it comes out with its least cycle, if any,
    when an edge first leads back to it.
    """
    reached: set[str] = set()
    queue: deque[tuple[str, tuple[WitnessStep, ...]]] = deque([(origin, ())])
    while queue:
        sid, path = queue.popleft()
        for action, target, tag in edges[sid]:
            if target in edges and target not in reached:
                reached.add(target)
                to_target = path + (WitnessStep(sid, action, tag),)
                yield target, to_target
                queue.append((target, to_target))


def escalation_witness(
    graph: GameGraph, rmap: RationalizableMap
) -> EscalationWitness | None:
    """Least lasso of rationalizable edges reachable from the start.

    Minimality order: shortest prefix, then shortest cycle, then branch
    order along the path.  Returns None exactly when the rationalizable
    subgraph reachable from the start is acyclic.

    A breadth-first search that takes each state's edges in branch order
    dequeues states by path length and, within a length, in branch order of
    their paths, so the first edge to reach a state ends that state's least
    shortest path.  The search from the start lists the prefixes least
    first; the search from a state, stopped at the first edge back to it,
    gives its least cycle.  The witness is the first prefix of the shortest
    length whose end has the shortest cycle.
    """
    _checker(graph)  # validates the graph
    edges = _rational_edges(graph, rmap)
    if graph.start not in edges:
        return None
    best: EscalationWitness | None = None
    # The search from the start yields the start again only along a cycle,
    # by which time a cycle with the empty prefix has ended the loop.
    for sid, prefix in chain([(graph.start, ())], _least_paths(edges, graph.start)):
        if best is not None and len(prefix) > len(best.prefix):
            break
        cycle = next((path for back, path in _least_paths(edges, sid) if back == sid), None)
        if cycle is not None and (best is None or len(cycle) < len(best.cycle)):
            best = EscalationWitness(prefix, cycle)
    return best


@_record
class ThreatRow:
    """One rationalizable action with its equilibrium backing."""

    state: str
    mover: str
    action: str
    target: str
    continues: bool  # the edge stays inside the game rather than exiting
    supported_by: tuple[int, ...]
    response: str | None  # what the target's mover does, per the first backer


@_record
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
    """Every equilibrium-backed action with its backers and the target's
    response, plus the mutually non-credible states (see ``ThreatReport``).

    The profiles are re-verified through ``rationalizable_actions``, so an
    empty list or a non-equilibrium profile raises ``GameError``.
    """
    return _threat_report(graph, spes, rationalizable_actions(graph, spes))


def _threat_report(
    graph: GameGraph, spes: Sequence[StationaryProfile], rmap: RationalizableMap
) -> ThreatReport:
    """``credible_threat_report`` for profiles the caller has verified, with
    their rationalizable map."""
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
