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
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from seqgames.core import Node, PayoffVector, walk
from seqgames.coinduction import (
    DEFAULT_STATIONARY_CAP,
    StationaryProfile,
    enumerate_stationary_spe,
)
from seqgames.finite import backward_induction
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


@dataclass(frozen=True)
class ConstantClosure(ClosureRule):
    payoffs: PayoffVector

    def describe(self) -> str:
        inner = ",".join(f"{p}:{v}" for p, v in self.payoffs.items())
        return f"const:({inner})"

    def payoff(self, graph: GameGraph, sid: str, stage: int) -> PayoffVector:
        return self.payoffs


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """Unfold the graph to ``depth`` with the rule supplying cut payoffs."""
    return unfold_param(graph, depth, lambda sid, stage: rule.payoff(graph, sid, stage))


class CharKind(Enum):
    FORCED = "forced"
    FREE = "free"
    MIXED = "mixed"
    ABSENT = "absent"


@dataclass(frozen=True)
class Characterization:
    """How a truncation constrains one player across all her nodes."""

    kind: CharKind
    action: str | None = None

    def describe(self) -> str:
        if self.kind is CharKind.FORCED:
            return f"forced:{self.action}"
        return self.kind.value


@dataclass(frozen=True)
class DepthSummary:
    depth: int
    closure: str
    count: int
    characterization: Mapping[str, Characterization]
    payoff: PayoffVector

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


def _characterize(nodes: Sequence[tuple[Collection[str], int]]) -> Characterization:
    """Forced / free / mixed from each of a player's nodes: the actions used
    there and its branch count."""
    used = [set(actions) for actions, _ in nodes]
    if all(len(s) == 1 for s in used) and len(set().union(*used)) == 1:
        return Characterization(CharKind.FORCED, next(iter(used[0])))
    if all(len(s) == count for s, (_, count) in zip(used, nodes)):
        return Characterization(CharKind.FREE)
    return Characterization(CharKind.MIXED)


def _characterize_summary(tree, summary) -> dict[str, Characterization]:
    """Forced / free / mixed per player, from the per-node optimal sets."""
    nodes: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for address, sub in walk(tree):
        if isinstance(sub, Node):
            nodes.setdefault(sub.mover, []).append(
                (summary.optimal_actions[address], len(sub.branches))
            )
    return {player: _characterize(nodes[player]) for player in sorted(nodes)}


def summarize_depth(graph: GameGraph, depth: int, rule: ClosureRule) -> DepthSummary:
    """Solve the depth-``depth`` truncation and characterize each player.

    A player is forced when her optimal-action set is the same singleton at
    every node she moves at, free when every such set contains all of her
    actions, absent when the truncation gives her no move at all.
    """
    tree = truncate(graph, depth, rule)
    summary = backward_induction(tree)
    characterization = _characterize_summary(tree, summary)
    for player in sorted(graph_players(graph)):
        characterization.setdefault(player, Characterization(CharKind.ABSENT))
    return DepthSummary(
        depth=depth,
        closure=rule.describe(),
        count=summary.count,
        characterization=characterization,
        payoff=summary.payoff,
    )


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


@dataclass(frozen=True)
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
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _decision_states(graph: GameGraph) -> dict[str, list[str]]:
    """Each player's decision states in state order, players sorted; a
    player who never moves gets an empty list."""
    own: dict[str, list[str]] = {player: [] for player in sorted(graph_players(graph))}
    for sid in graph.internal_ids():
        own[graph.states[sid].mover].append(sid)  # type: ignore[union-attr]
    return own


def _profile_characterization(
    decision_states: Mapping[str, list[str]], profile: StationaryProfile
) -> dict[str, Characterization]:
    result: dict[str, Characterization] = {}
    for player, own in decision_states.items():
        if not own:
            result[player] = Characterization(CharKind.ABSENT)
            continue
        chosen = {profile[sid] for sid in own}
        if len(chosen) == 1:
            result[player] = Characterization(CharKind.FORCED, chosen.pop())
        else:
            result[player] = Characterization(CharKind.MIXED)
    return result


def _spe_set_characterization(
    graph: GameGraph,
    decision_states: Mapping[str, list[str]],
    spes: Sequence[StationaryProfile],
) -> dict[str, Characterization]:
    result: dict[str, Characterization] = {}
    for player, own in decision_states.items():
        if not own or not spes:
            result[player] = Characterization(CharKind.ABSENT)
            continue
        result[player] = _characterize(
            [({p[sid] for p in spes}, len(graph.states[sid].edges)) for sid in own]
        )
    return result


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
    cap: int = DEFAULT_STATIONARY_CAP,
) -> ExtrapolationReport:
    """Summarize truncations at each depth and compare against the infinite game.

    The comparison is between characterizations (which player is forced to
    what), not equilibrium counts; counts grow with depth while the question
    is who must keep playing.  Odd and even depths stabilizing to different
    characterizations yields ParityDisagreement.
    """
    if not depths:
        raise ValueError("at least one depth is required")
    ordered = sorted(set(depths))
    if ordered[0] < 0:
        raise ValueError("depths must be >= 0")
    summaries = tuple(summarize_depth(graph, d, rule) for d in ordered)
    spes = [p for p, v in enumerate_stationary_spe(graph, cap=cap) if v.ok]
    decision_states = _decision_states(graph)
    infinite_chars = tuple(_profile_characterization(decision_states, p) for p in spes)
    set_char = _spe_set_characterization(graph, decision_states, spes)

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
