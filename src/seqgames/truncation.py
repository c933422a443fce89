"""Truncation lab: solve finite approximants and compare with the infinite game.

Cutting an infinite game at depth d needs a payoff for each cut point (the
closure); the choice of closure is part of the experiment, so it is a
first-class rule here.  The lab solves the truncations at many depths,
characterizes each player as forced or free, and reports whether the odd and
even depths settle on different characterizations, which is exactly the
situation in which extrapolating from the finite games is unjustified.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Collection, Mapping, Sequence
from enum import Enum
from fractions import Fraction

from seqgames.core import PayoffVector, _count_repr, _record, _setattr
from seqgames.coinduction import StationaryProfile, _checker, enumerate_stationary_spe
from seqgames.finite import _require_valid, _solve_unfoldings
from seqgames.graphs import (
    GameGraph,
    MissingClosureError,
    Terminal,
    graph_players,
    unfold_param,
)


class ClosureRule:
    """Assigns a payoff to each internal state cut off by a truncation."""

    def describe(self) -> str:
        raise NotImplementedError

    def payoff(self, graph: GameGraph, sid: str, stage: int) -> PayoffVector:
        raise NotImplementedError


@_record
class ConstantClosure(ClosureRule):
    payoffs: PayoffVector

    def describe(self) -> str:
        inner = ",".join(f"{p}:{v}" for p, v in self.payoffs.items())
        return f"const:({inner})"

    def payoff(self, graph: GameGraph, sid: str, stage: int) -> PayoffVector:
        return self.payoffs


@_record
class StateClosure(ClosureRule):
    mapping: Mapping[str, PayoffVector]

    def describe(self) -> str:
        parts = []
        for sid in sorted(self.mapping):
            inner = ",".join(f"{p}:{v}" for p, v in self.mapping[sid].items())
            parts.append(f"{sid}=({inner})")
        return "map:" + ";".join(parts)

    def payoff(self, graph: GameGraph, sid: str, stage: int) -> PayoffVector:
        try:
            return self.mapping[sid]
        except KeyError:
            raise MissingClosureError(f"no closure payoff for cut state {sid!r}") from None


@_record
class DeciderQuitsClosure(ClosureRule):
    """Close each cut state as if its mover immediately took her exit:
    the first edge, in branch order, that leads straight to a terminal."""

    def describe(self) -> str:
        return "quit"

    def payoff(self, graph: GameGraph, sid: str, stage: int) -> PayoffVector:
        for action, target, delta in graph.states[sid].edges:
            target_state = graph.states[target]
            if isinstance(target_state, Terminal):
                return target_state.payoffs.at_stage(stage + delta)
        raise MissingClosureError(
            f"quit closure undefined: state {sid!r} has no edge to a terminal"
        )


def truncate(graph: GameGraph, depth: int, rule: ClosureRule):
    """Unfold the graph to ``depth`` with the rule supplying cut payoffs,
    asked once per distinct cut (state, stage); equal subgames are shared."""
    return unfold_param(graph, depth, lambda sid, stage: rule.payoff(graph, sid, stage))


class CharKind(Enum):
    FORCED = "forced"
    FREE = "free"
    MIXED = "mixed"
    ABSENT = "absent"


@_record
class Characterization:
    """How a truncation constrains one player across all her nodes."""

    kind: CharKind
    action: str | None = None

    # Built once per player and depth: a direct ``__init__``.
    def __init__(self, kind: CharKind, action: str | None = None) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "action", action)

    def describe(self) -> str:
        if self.kind is CharKind.FORCED:
            return f"forced:{self.action}"
        return self.kind.value


@_record
class DepthSummary:
    depth: int
    closure: str
    count: int
    characterization: Mapping[str, Characterization]
    payoff: PayoffVector
    __repr__ = _count_repr

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "closure": self.closure,
            "equilibrium_count": self.count,
            "characterization": {
                player: self.characterization[player].describe()
                for player in sorted(self.characterization)
            },
            "payoff": {p: str(v) for p, v in self.payoff.items()},
        }


def _characterize(nodes: Sequence[tuple[Collection[str], int | None]]) -> Characterization:
    """Forced / free / mixed from each of a player's nodes: the actions used
    there and its branch count; absent when she has no node.  A node with no
    branch count is one profile's choice, which leaves nothing free."""
    if not nodes:
        return Characterization(CharKind.ABSENT)
    used = [set(actions) for actions, _ in nodes]
    if all(len(s) == 1 for s in used) and len(set().union(*used)) == 1:
        return Characterization(CharKind.FORCED, next(iter(used[0])))
    if all(len(s) == count for s, (_, count) in zip(used, nodes)):
        return Characterization(CharKind.FREE)
    return Characterization(CharKind.MIXED)


class _OffPlayers(Exception):
    """A cut payoff names other players than the graph does."""


def _summaries(graph: GameGraph, depths: Sequence[int], rule: ClosureRule) -> list[DepthSummary]:
    """Solve the truncations at ``depths``, in ascending order, on one shared
    table of subgames, and characterize each player at each depth.

    When every payoff names exactly the graph's players, every truncation is
    a valid game.  A cut payoff that names others can make a truncation
    invalid; then each depth is cut and validated in turn, so the error
    names the first invalid depth's first violation, as solving depth by
    depth does.
    """
    _checker(graph)  # validates the graph; extrapolation_report's enumeration reuses it
    players = graph_players(graph)

    def cut(sid: str, stage: int) -> PayoffVector:
        payoff = rule.payoff(graph, sid, stage)
        if payoff.players != players:
            raise _OffPlayers
        return payoff

    try:
        solved = _solve_unfoldings(graph, depths, cut, _stage_slope(graph, rule))
    except _OffPlayers:
        for depth in depths:
            _require_valid(truncate(graph, depth, rule))
        solved = _solve_unfoldings(
            graph, depths, lambda sid, stage: rule.payoff(graph, sid, stage)
        )
    summaries = []
    for depth, (count, payoff, triples) in zip(depths, solved):
        nodes: dict[str, list[tuple[tuple[str, ...], int]]] = {}
        for mover, used, branches in triples:
            nodes.setdefault(mover, []).append((used, branches))
        characterization = {player: _characterize(nodes.get(player, [])) for player in sorted(players)}
        summaries.append(DepthSummary(depth, rule.describe(), count, characterization, payoff))
    return summaries


def _stage_slope(graph: GameGraph, rule: ClosureRule) -> dict[str, Fraction] | None:
    """The one slope vector of every payoff met at a stage k >= 1, if any
    (``finite._solve_unfoldings``).  Those are the terminals and cut states
    of the zone: the states reachable from the target of an edge that steps
    the stage.  A quit cut pays a zone terminal, so it has its slope; a
    const or map cut ignores the stage: slope 0.  Other rules get None.
    """
    if type(rule) not in (DeciderQuitsClosure, ConstantClosure, StateClosure):
        return None
    players = sorted(graph_players(graph))
    zone: set[str] = set()
    pending = [target for state in graph.states.values() for _, target, delta in state.edges if delta]
    while pending:
        if (sid := pending.pop()) not in zone:
            zone.add(sid)
            pending += [target for _, target, _ in graph.states[sid].edges]
    slopes = {
        tuple(state.payoffs[p].slope for p in players) if isinstance(state, Terminal) else (0,) * len(players)
        for state in map(graph.states.__getitem__, zone)
        if isinstance(state, Terminal) or type(rule) is not DeciderQuitsClosure
    }
    return dict(zip(players, slopes.pop())) if len(slopes) == 1 else None


def summarize_depth(graph: GameGraph, depth: int, rule: ClosureRule) -> DepthSummary:
    """Solve the depth-``depth`` truncation and characterize each player.

    A player is forced when her optimal-action set is the same singleton at
    every node she moves at, free when every such set contains all of her
    actions, absent when the truncation gives her no move at all.
    """
    return _summaries(graph, [depth], rule)[0]


def parse_closure_spec(text: str) -> ClosureRule:
    """Parse a closure rule: ``quit``, ``const:(A:1,B:0)``, or
    ``map:SA=(A:0,B:1);SB=(A:1,B:0)``.  Rationals may be ``p`` or ``p/q``."""
    text = text.strip()
    if text == "quit":
        return DeciderQuitsClosure()
    if text.startswith("const:"):
        return ConstantClosure(_parse_payoff_group(text[len("const:"):]))
    if text.startswith("map:"):
        mapping: dict[str, PayoffVector] = {}
        body = text[len("map:"):]
        for part in body.split(";"):
            part = part.strip()
            if not part:
                continue
            sid, _, group = part.partition("=")
            if not _:
                raise ValueError(f"bad closure map entry {part!r}; expected STATE=(...)")
            mapping[sid.strip()] = _parse_payoff_group(group)
        if not mapping:
            raise ValueError("closure map is empty")
        return StateClosure(mapping)
    raise ValueError(
        f"unknown closure spec {text!r}; use quit, const:(...), or map:STATE=(...)"
    )


def _parse_payoff_group(group: str) -> PayoffVector:
    group = group.strip()
    if not (group.startswith("(") and group.endswith(")")):
        raise ValueError(f"bad payoff group {group!r}; expected (A:1,B:0)")
    entries: dict[str, Fraction] = {}
    for item in group[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        player, sep, value = item.partition(":")
        if not sep:
            raise ValueError(f"bad payoff entry {item!r}; expected PLAYER:value")
        try:
            entries[player.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational in payoff entry {item!r}") from exc
    if not entries:
        raise ValueError(f"empty payoff group {group!r}")
    return PayoffVector(entries)


class ExtrapolationVerdict(Enum):
    CONSISTENT_LIMIT = "ConsistentLimit"
    PARITY_DISAGREEMENT = "ParityDisagreement"
    NO_PATTERN = "NoPattern"


@_record
class ExtrapolationReport:
    """Finite-depth summaries against the infinite game's stationary equilibria."""

    summaries: tuple[DepthSummary, ...]
    infinite_spes: tuple[StationaryProfile, ...]
    infinite_characterizations: tuple[Mapping[str, Characterization], ...]
    spe_set_characterization: Mapping[str, Characterization]
    verdict: ExtrapolationVerdict
    explanation: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "explanation": self.explanation,
            "depths": [s.to_dict() for s in self.summaries],
            "infinite_stationary_spes": [
                {sid: profile[sid] for sid in sorted(profile)}
                for profile in self.infinite_spes
            ],
            "infinite_spe_characterizations": [
                {p: c[p].describe() for p in sorted(c)}
                for c in self.infinite_characterizations
            ],
            "spe_set_characterization": {
                p: self.spe_set_characterization[p].describe()
                for p in sorted(self.spe_set_characterization)
            },
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict()) + "\n"


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2)``, with the int digit limit that
    int.__repr__ obeys lifted only while rendering: parsing relies on it to
    refuse numbers too long to convert."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(payload, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def _decision_states(graph: GameGraph) -> dict[str, list[str]]:
    """Each player's decision states in state order, players sorted; a
    player who never moves gets an empty list."""
    own: dict[str, list[str]] = {player: [] for player in sorted(graph_players(graph))}
    for sid in graph.internal_ids():
        own[graph.states[sid].mover].append(sid)  # type: ignore[union-attr]
    return own


def _stabilized(summaries: list[DepthSummary]) -> Mapping[str, Characterization] | None:
    """The characterization the largest two depths agree on, if they do."""
    if not summaries:
        return None
    if len(summaries) == 1:
        return summaries[0].characterization
    last, previous = summaries[-1], summaries[-2]
    if last.characterization == previous.characterization:
        return last.characterization
    return None


def _describe_char(c: Mapping[str, Characterization]) -> str:
    return ", ".join(f"{p} {c[p].describe()}" for p in sorted(c))


def extrapolation_report(
    graph: GameGraph,
    depths: Sequence[int],
    rule: ClosureRule,
) -> ExtrapolationReport:
    """Summarize truncations at each depth and compare against the infinite game.

    The comparison is between characterizations (which player is forced to
    what), not equilibrium counts; counts grow with depth while the question
    is who must keep playing.  Odd and even depths stabilizing to different
    characterizations yields ParityDisagreement.  The infinite game's
    stationary profiles are enumerated up to ``DEFAULT_STATIONARY_CAP``.
    """
    if not depths:
        raise ValueError("at least one depth is required")
    ordered = sorted(set(depths))
    if ordered[0] < 0:
        raise ValueError("depths must be >= 0")
    summaries = tuple(_summaries(graph, ordered, rule))
    spes = [p for p, v in enumerate_stationary_spe(graph) if v.ok]
    own_states = _decision_states(graph).items()
    # One profile makes one choice per state, so it leaves nothing free: a
    # player whose one-edge states differ in label is mixed, not free.
    infinite_chars = tuple(
        {player: _characterize([((p[sid],), None) for sid in own]) for player, own in own_states}
        for p in spes
    )
    set_char = {
        player: _characterize(
            [({p[sid] for p in spes}, len(graph.states[sid].edges)) for sid in own] if spes else []
        )
        for player, own in own_states
    }

    odd = _stabilized([s for s in summaries if s.depth % 2 == 1])
    even = _stabilized([s for s in summaries if s.depth % 2 == 0])
    if odd is None or even is None:
        verdict = ExtrapolationVerdict.NO_PATTERN
        explanation = "the truncations do not settle on a characterization per parity"
    elif odd == even:
        verdict = ExtrapolationVerdict.CONSISTENT_LIMIT
        explanation = (
            f"odd and even depths agree on: {_describe_char(odd)}"
        )
    else:
        verdict = ExtrapolationVerdict.PARITY_DISAGREEMENT
        explanation = (
            f"odd depths settle on [{_describe_char(odd)}] but even depths on "
            f"[{_describe_char(even)}]; the infinite game's stationary equilibria are "
            + (
                "; ".join(_describe_char(c) for c in infinite_chars)
                if infinite_chars
                else "absent"
            )
        )
    return ExtrapolationReport(
        summaries=summaries,
        infinite_spes=tuple(spes),
        infinite_characterizations=infinite_chars,
        spe_set_characterization=set_char,
        verdict=verdict,
        explanation=explanation,
    )
