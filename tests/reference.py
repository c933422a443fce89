"""Reference implementations the tests compare the engine against.

None of these is part of the library: each is a slow, direct statement of
what some faster library code must agree with.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator
from fractions import Fraction

from seqgames.coinduction import Refuted, StationaryProfile
from seqgames.core import (
    Address,
    FiniteGame,
    GameError,
    Leaf,
    Node,
    PayoffVector,
    TreeProfile,
    ValidationReport,
    Violation,
    check_profile_total,
    format_address,
    walk,
)
from seqgames.escalation import (
    EscalationWitness,
    RationalizableMap,
    WitnessStep,
    _rational_edges,
)
from seqgames.finite import SpeCheck, is_spe_finite
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    GameGraph,
    ParamGraph,
    StageReachability,
    Terminal,
)


def subgame_at(game: FiniteGame, address: Address) -> FiniteGame:
    """Return the subgame rooted at ``address``; raises on a bad path."""
    current = game
    for step, label in enumerate(address):
        if isinstance(current, Leaf):
            raise GameError(f"address {address!r} descends below a leaf at step {step}")
        for action, child in current.branches:
            if action == label:
                current = child
                break
        else:
            raise GameError(f"no action {label!r} at address {address[:step]!r}")
    return current


def internal_addresses(game: FiniteGame) -> list[Address]:
    """Addresses of all decision nodes, in depth-first (preorder) order."""
    return [address for address, sub in walk(game) if isinstance(sub, Node)]


def validate_game_by_walk(
    game: FiniteGame, players: Iterable[str] | None = None
) -> ValidationReport:
    """``validate_game`` by walking the game object: two walks, one to
    collect the declared players and one to check every position."""
    if players is not None:
        expected = frozenset(players)
    else:
        declared: set[str] = set()
        for _, sub in walk(game):
            if isinstance(sub, Leaf):
                declared.update(sub.payoffs.players)
            else:
                declared.add(sub.mover)
        expected = frozenset(declared)
    found: list[Violation] = []
    for address, sub in walk(game):
        where = format_address(address)
        if isinstance(sub, Leaf):
            missing = expected - sub.payoffs.players
            extra = sub.payoffs.players - expected
            for pid in sorted(missing):
                found.append(Violation(where, f"missing payoff for {pid}"))
            for pid in sorted(extra):
                found.append(Violation(where, f"payoff for undeclared player {pid}"))
            continue
        if not sub.branches:
            found.append(Violation(where, "empty branch list"))
        seen: set[str] = set()
        for action, _ in sub.branches:
            if action in seen:
                found.append(Violation(where, f"duplicate action label {action!r}"))
            seen.add(action)
        if players is not None and sub.mover not in expected:
            found.append(Violation(where, f"undeclared mover {sub.mover}"))
    return ValidationReport(tuple(found))


def is_spe_by_best_response(game: FiniteGame, profile: TreeProfile) -> bool:
    """Reference check allowing arbitrary (multi-node) unilateral deviations.

    Accepts the profile iff in every subgame, every player's payoff under the
    profile already equals her best response against the others.  Both are
    computed bottom-up over the game object, so the check shares no code with
    the engine's.  Used to confirm that one-shot deviations suffice on finite
    games.
    """
    check_profile_total(game, profile)
    # Per address: the leaf payoffs the profile reaches from there, and each
    # player's best payoff against the others' choices.
    played: dict[Address, PayoffVector] = {}
    best: dict[tuple[Address, str], Fraction] = {}
    positions = list(walk(game))
    players = sorted({sub.mover for _, sub in positions if isinstance(sub, Node)})
    for address, sub in reversed(positions):
        if isinstance(sub, Leaf):
            played[address] = sub.payoffs
            for player in players:
                best[address, player] = sub.payoffs[player]
            continue
        chosen = address + (profile[address],)
        played[address] = played[chosen]
        for player in players:
            if sub.mover == player:
                best[address, player] = max(best[address + (a,), player] for a, _ in sub.branches)
            else:
                best[address, player] = best[chosen, player]
            if best[address, player] > played[address][player]:
                return False
    return True


def all_profiles(game: FiniteGame) -> Iterator[TreeProfile]:
    """Every total profile, in lexicographic (address, branch order) order."""
    nodes = sorted(
        (address, tuple(action for action, _ in sub.branches))
        for address, sub in walk(game)
        if isinstance(sub, Node)
    )
    addresses = [address for address, _ in nodes]
    for combo in itertools.product(*(labels for _, labels in nodes)):
        yield TreeProfile(zip(addresses, combo))


def _walks(edges, sid: str, length: int) -> Iterator[tuple[tuple[WitnessStep, ...], str]]:
    """Every walk of ``length`` rationalizable steps between decision states
    from ``sid``, with the state it ends at, in branch order."""
    if length == 0:
        yield (), sid
        return
    for action, target, tag in edges[sid]:
        if target in edges:
            for rest, end in _walks(edges, target, length - 1):
                yield (WitnessStep(sid, action, tag),) + rest, end


def least_lasso(graph: GameGraph, rmap: RationalizableMap) -> EscalationWitness | None:
    """The first lasso in (prefix length, cycle length, branch order), found
    by trying every walk from the start.

    A least lasso's prefix and cycle are simple paths, so neither is longer
    than the number of decision states.
    """
    edges = _rational_edges(graph, rmap)
    if graph.start not in edges:
        return None
    for prefix_len in range(len(edges)):
        for cycle_len in range(1, len(edges) + 1):
            for prefix, sid in _walks(edges, graph.start, prefix_len):
                for cycle, end in _walks(edges, sid, cycle_len):
                    if end == sid:
                        return EscalationWitness(prefix, cycle)
    return None


def violation_interval(a: AffineExpr, b: AffineExpr) -> tuple[int, int | None] | None:
    """The set {k : a(k) > b(k)} as an interval of naturals, by Fraction
    arithmetic on the expressions' fields.

    Returns None when empty, else (low, high) with high=None for unbounded.
    An affine difference changes sign at most once, so an interval suffices.
    """
    slope = b.slope - a.slope
    intercept = b.intercept - a.intercept  # diff(k) = intercept + slope*k; violation iff < 0
    if slope == 0:
        return (0, None) if intercept < 0 else None
    if slope > 0:
        if intercept >= 0:
            return None
        # diff < 0 exactly for k*slope < -intercept
        bound = -intercept / slope
        last = int(bound) if bound != int(bound) else int(bound) - 1
        return (0, last) if last >= 0 else None
    # slope < 0: diff eventually negative
    bound = intercept / -slope  # diff(k) < 0 iff k > bound
    first = int(bound) + 1 if bound >= 0 else 0
    return (first, None)


def reachable_stages(graph: ParamGraph, bound: int) -> dict[str, set[int]]:
    """Per state, the stages up to ``bound`` it can be entered with, play
    starting at the start state at stage 0: a breadth-first search over
    (state, stage) pairs, each edge adding its delta to the stage."""
    seen = {(graph.start, 0)}
    queue = deque(seen)
    while queue:
        sid, stage = queue.popleft()
        state = graph.states[sid]
        if isinstance(state, Terminal):
            continue
        for _, target, delta in state.edges:
            pair = (target, stage + delta)
            if pair[1] <= bound and pair not in seen:
                seen.add(pair)
                queue.append(pair)
    stages: dict[str, set[int]] = {sid: set() for sid in graph.states}
    for sid, stage in seen:
        stages[sid].add(stage)
    return stages


def least_reachable_violation(
    reach: StageReachability, sid: str, deviation: AffineExpr, current: AffineExpr
) -> int | None:
    """Least stage k reachable at ``sid`` with deviation(k) > current(k)."""
    interval = violation_interval(deviation, current)
    if interval is None:
        return None
    low, high = interval
    least = reach.least_at_least(sid, low)
    if least is None:
        return None
    if high is not None and least > high:
        return None
    return least


def _at_stage(payoffs: AffinePayoffs | PayoffVector, k: int) -> PayoffVector:
    if isinstance(payoffs, PayoffVector):
        return payoffs
    return PayoffVector({p: expr.intercept + expr.slope * k for p, expr in payoffs.items()})


def _shifted(payoffs: AffinePayoffs, delta: int) -> AffinePayoffs:
    return AffinePayoffs(
        {p: AffineExpr(expr.intercept + expr.slope * delta, expr.slope) for p, expr in payoffs.items()}
    )


def staged_deviation(
    reach: StageReachability,
    sid: str,
    mover: str,
    action: str,
    current: AffinePayoffs,
    deviation: AffinePayoffs,
) -> Refuted | None:
    """Whether deviating to ``action`` at ``sid`` pays ``mover``, when play
    from ``sid`` is worth ``current`` and play after the deviating edge is
    worth ``deviation``, both affine in the stage ``sid`` is entered with:
    the refutation at the least reachable violating stage."""
    witness = least_reachable_violation(reach, sid, deviation[mover], current[mover])
    if witness is None:
        return None
    return Refuted(
        sid, witness, mover, action, _at_stage(current, witness), _at_stage(deviation, witness)
    )


def _play_value(
    graph: GameGraph, profile: StationaryProfile, sid: str
) -> AffinePayoffs | PayoffVector | None:
    """The payoffs play under ``profile`` reaches from ``sid``, affine in the
    stage ``sid`` is entered with on a pgraph, or None when play revisits a
    state."""
    seen: set[str] = set()
    delta = 0
    while not isinstance(graph.states[sid], Terminal):
        if sid in seen:
            return None
        seen.add(sid)
        edge = next(e for e in graph.states[sid].edges if e[0] == profile[sid])
        sid, delta = edge[1], delta + edge[2]
    payoffs = graph.states[sid].payoffs
    return payoffs if isinstance(payoffs, PayoffVector) else _shifted(payoffs, delta)


def staged_deviations(graph: ParamGraph, profile: StationaryProfile) -> list[Refuted | None] | None:
    """Every one-shot deviation's refutation or None, in state and branch
    order, at states some play enters, by Fraction arithmetic throughout;
    None when play diverges from some state (the profile is not
    admissible)."""
    values = {sid: _play_value(graph, profile, sid) for sid in graph.internal_ids()}
    if None in values.values():
        return None
    reach = StageReachability(graph)
    found = []
    for sid, value in values.items():
        if reach.least_at_least(sid, 0) is None:
            continue
        state = graph.states[sid]
        for action, target, delta in state.edges:
            if action != profile[sid]:
                after = values[target] if target in values else graph.states[target].payoffs
                found.append(
                    staged_deviation(reach, sid, state.mover, action, value, _shifted(after, delta))
                )
    return found


def recursive_unfolding(graph: GameGraph, depth: int, cut) -> FiniteGame:
    """The depth-``depth`` unfolding by one recursive walk that builds every
    position as its own object, with ``cut(state, stage)`` called at each cut
    state, in depth-first order with branches in order."""

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


def unfolding_check(graph: GameGraph, profile: StationaryProfile, depth: int) -> SpeCheck:
    """``concrete_unfolding_check`` on a tree built by direct recursion: the
    depth-``depth`` unfolding, each cut state closed with the payoffs play
    under ``profile`` reaches from it (``_play_value``) at its stage, and
    the profile's choice at every decision node, copied by the same
    recursion; ``is_spe_finite`` judges the pair.  Raises GameError when
    play diverges from some decision state."""
    values = {sid: _play_value(graph, profile, sid) for sid in graph.internal_ids()}
    diverging = [sid for sid, value in values.items() if value is None]
    if diverging:
        raise GameError(f"play from {diverging[0]} diverges")
    choices: dict[Address, str] = {}

    def build(sid: str, stage: int, address: Address) -> FiniteGame:
        state = graph.states[sid]
        if isinstance(state, Terminal):
            return Leaf(_at_stage(state.payoffs, stage))
        if len(address) == depth:
            return Leaf(_at_stage(values[sid], stage))
        choices[address] = profile[sid]
        return Node(
            state.mover,
            tuple(
                (action, build(target, stage + delta, address + (action,)))
                for action, target, delta in state.edges
            ),
        )

    return is_spe_finite(build(graph.start, 0, ()), TreeProfile(choices))
