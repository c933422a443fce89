"""Backward induction and equilibrium checking for finite games.

The solver keeps exact track of ties.  Every subgame is annotated with the
full set of payoff vectors achievable by its equilibria, and an action at a
node counts as equilibrium-optimal when at least one equilibrium of the whole
game chooses it there.  With divergent ties (tied actions whose continuations
pay an ancestor differently) the equilibrium set is not a per-node product,
so counts and enumeration are computed from the tie structure directly; on
games whose ties are payoff-identical the count equals the product of the
per-node choice counts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction

from seqgames.core import (
    Address,
    CapExceededError,
    FiniteGame,
    GameError,
    Leaf,
    Node,
    PayoffVector,
    TreeProfile,
    check_profile_total,
    format_address,
    internal_addresses,
    validate_game,
    walk,
)

DEFAULT_PROFILE_CAP = 2**20


@dataclass(frozen=True)
class Counterexample:
    """A profitable deviation refuting an equilibrium claim."""

    address: Address
    player: str
    action: str
    profile_payoff: Fraction
    deviation_payoff: Fraction

    @property
    def gain(self) -> Fraction:
        return self.deviation_payoff - self.profile_payoff

    def __str__(self) -> str:
        return (
            f"{self.player} gains {self.gain} at {format_address(self.address)} "
            f"by deviating to {self.action!r} ({self.deviation_payoff} over {self.profile_payoff})"
        )


@dataclass(frozen=True)
class SpeCheck:
    """Outcome of an equilibrium check: OK, or the first counterexample."""

    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class EquilibriumSummary:
    """Result of backward induction over a finite game.

    Attributes:
        optimal_actions: per decision node (by address), the actions chosen
            there by at least one equilibrium, in branch order.  Computed for
            every node, including nodes off every equilibrium path.
        count: exact number of equilibrium profiles.
        representative: a deterministic equilibrium (first maximizer in
            branch order at every node); always passes ``is_spe_finite``.
        payoff: the payoff vector induced by the representative.
        subgame_values: per node, all payoff vectors achievable by the
            equilibria of that subgame.
    """

    optimal_actions: Mapping[Address, tuple[str, ...]]
    count: int
    representative: TreeProfile
    payoff: PayoffVector
    subgame_values: Mapping[Address, tuple[PayoffVector, ...]]

    @property
    def choice_product(self) -> int:
        """Product of per-node optimal action counts; an upper bound on count."""
        return math.prod(len(acts) for acts in self.optimal_actions.values())


def _require_valid(game: FiniteGame) -> None:
    report = validate_game(game)
    if not report.ok:
        first = report.violations[0]
        raise GameError(f"invalid game: {first} ({len(report.violations)} violation(s))")


@dataclass
class _Analysis:
    """Per-subgame equilibrium structure used by the solver."""

    values: tuple[PayoffVector, ...]
    counts: dict[PayoffVector, int]


def _analyze(game: FiniteGame) -> dict[Address, _Analysis]:
    """Bottom-up pass: equilibrium value sets and counts for every subgame."""
    analyses: dict[Address, _Analysis] = {}

    def visit(sub: FiniteGame, address: Address) -> _Analysis:
        if isinstance(sub, Leaf):
            result = _Analysis((sub.payoffs,), {sub.payoffs: 1})
            analyses[address] = result
            return result
        mover = sub.mover
        children = [
            visit(child, address + (action,)) for action, child in sub.branches
        ]
        mins = [min(w[mover] for w in child.values) for child in children]
        values: list[PayoffVector] = []
        counts: dict[PayoffVector, int] = {}
        for i, child in enumerate(children):
            for v in child.values:
                # Branch i can carry an equilibrium of value v as long as
                # every other branch offers some continuation it beats.
                if any(mins[j] > v[mover] for j in range(len(children)) if j != i):
                    continue
                ways = child.counts[v]
                for j, other in enumerate(children):
                    if j == i:
                        continue
                    ways *= sum(
                        n for w, n in other.counts.items() if w[mover] <= v[mover]
                    )
                counts[v] = counts.get(v, 0) + ways
                if v not in values:
                    values.append(v)
        result = _Analysis(tuple(values), counts)
        analyses[address] = result
        return result

    visit(game, ())
    return analyses


def _greedy_representative(game: FiniteGame) -> tuple[TreeProfile, PayoffVector]:
    choices: dict[Address, str] = {}

    def visit(sub: FiniteGame, address: Address) -> PayoffVector:
        if isinstance(sub, Leaf):
            return sub.payoffs
        best_action: str | None = None
        best_value: PayoffVector | None = None
        for action, child in sub.branches:
            value = visit(child, address + (action,))
            if best_value is None or value[sub.mover] > best_value[sub.mover]:
                best_action, best_value = action, value
        assert best_action is not None and best_value is not None
        choices[address] = best_action
        return best_value

    payoff = visit(game, ())
    return TreeProfile(choices), payoff


def backward_induction(game: FiniteGame) -> EquilibriumSummary:
    """Solve a finite game bottom-up, keeping all tied optimal actions.

    Each subgame is assigned the set of payoff vectors its equilibria can
    induce; at a decision node an action is kept when some equilibrium of the
    game takes it, which at ties means its continuation payoff is not beaten
    by every alternative continuation of each sibling branch.
    """
    _require_valid(game)
    analyses = _analyze(game)

    # Top-down pass: which subgame equilibrium values survive inside a whole
    # game equilibrium, and hence which actions are used at each node.
    reachable: dict[Address, set[PayoffVector]] = {(): set(analyses[()].values)}
    optimal: dict[Address, tuple[str, ...]] = {}

    for address, sub in walk(game):
        if isinstance(sub, Leaf):
            continue
        mover = sub.mover
        live = reachable[address]
        children = [
            (action, analyses[address + (action,)]) for action, _ in sub.branches
        ]
        mins = [min(w[mover] for w in child.values) for _, child in children]

        def feasible(i: int, v: PayoffVector) -> bool:
            return v in children[i][1].values and all(
                mins[j] <= v[mover] for j in range(len(children)) if j != i
            )

        realizers = {v: {i for i in range(len(children)) if feasible(i, v)} for v in live}
        optimal[address] = tuple(
            action
            for i, (action, _) in enumerate(children)
            if any(i in realizers[v] for v in live)
        )
        for i, (action, child) in enumerate(children):
            into_child: set[PayoffVector] = set()
            for v in live:
                if i in realizers[v]:
                    into_child.add(v)
                if realizers[v] - {i}:
                    into_child.update(
                        w for w in child.values if w[mover] <= v[mover]
                    )
            reachable[address + (action,)] = into_child

    representative, payoff = _greedy_representative(game)
    root = analyses[()]
    return EquilibriumSummary(
        optimal_actions=optimal,
        count=sum(root.counts.values()),
        representative=representative,
        payoff=payoff,
        subgame_values={
            address: analysis.values for address, analysis in analyses.items()
        },
    )


def _profile_values(game: FiniteGame, profile: TreeProfile) -> dict[Address, PayoffVector]:
    """Payoff at every position when both players follow the profile."""
    values: dict[Address, PayoffVector] = {}

    def visit(sub: FiniteGame, address: Address) -> PayoffVector:
        if isinstance(sub, Leaf):
            values[address] = sub.payoffs
            return sub.payoffs
        chosen = profile.action_at(address)
        result: PayoffVector | None = None
        for action, child in sub.branches:
            value = visit(child, address + (action,))
            if action == chosen:
                result = value
        if result is None:
            raise GameError(f"unknown action {chosen!r} at {format_address(address)}")
        values[address] = result
        return result

    visit(game, ())
    return values


def best_response_value(game: FiniteGame, profile: TreeProfile, player: str) -> Fraction:
    """Best payoff ``player`` can reach against the others' profile choices."""

    def visit(sub: FiniteGame, address: Address) -> Fraction:
        if isinstance(sub, Leaf):
            return sub.payoffs[player]
        if sub.mover == player:
            return max(
                visit(child, address + (action,)) for action, child in sub.branches
            )
        chosen = profile.action_at(address)
        for action, child in sub.branches:
            if action == chosen:
                return visit(child, address + (action,))
        raise GameError(f"unknown action {chosen!r} at {format_address(address)}")

    return visit(game, ())


def _best_response_choices(
    game: FiniteGame, profile: TreeProfile, player: str
) -> dict[Address, str]:
    """Greedy best response for ``player``: first maximizer in branch order."""
    choices: dict[Address, str] = {}

    def visit(sub: FiniteGame, address: Address) -> Fraction:
        if isinstance(sub, Leaf):
            return sub.payoffs[player]
        values = [
            (action, visit(child, address + (action,)))
            for action, child in sub.branches
        ]
        if sub.mover == player:
            best_action, best = values[0]
            for action, value in values[1:]:
                if value > best:
                    best_action, best = action, value
            choices[address] = best_action
            return best
        chosen = profile.action_at(address)
        for action, value in values:
            if action == chosen:
                return value
        raise GameError(f"unknown action {chosen!r} at {format_address(address)}")

    visit(game, ())
    return choices


def _nash_counterexample(
    game: FiniteGame, profile: TreeProfile, values: dict[Address, PayoffVector]
) -> Counterexample | None:
    """Root-payoff deviation check: can any player improve on the whole game?"""
    for player in sorted({s.mover for _, s in walk(game) if isinstance(s, Node)}):
        current = values[()][player]
        best = best_response_value(game, profile, player)
        if best <= current:
            continue
        # Witness: first node on the improved play path where the best
        # response departs from the profile.
        response = _best_response_choices(game, profile, player)
        sub, address = game, ()
        while isinstance(sub, Node):
            chosen = response.get(address, profile.action_at(address))
            if sub.mover == player and chosen != profile.action_at(address):
                return Counterexample(address, player, chosen, current, best)
            sub = dict(sub.branches)[chosen]
            address = address + (chosen,)
        raise AssertionError("improving best response with no deviation on path")
    return None


def is_spe_finite(
    game: FiniteGame, profile: TreeProfile, root_only: bool = False
) -> SpeCheck:
    """One-shot deviation check for subgame perfection.

    Deviations are evaluated bottom-up (deepest subgames first, branches in
    order), so the returned counterexample is the first one in depth-first
    order.  With ``root_only`` the profile is instead checked as a plain
    equilibrium of the whole game: each player may re-plan all her choices
    but only the payoff at the root counts, so non-credible threats off the
    play path are not questioned.
    """
    check_profile_total(game, profile)
    values = _profile_values(game, profile)
    if root_only:
        return SpeCheck(_nash_counterexample(game, profile, values))

    def visit(sub: FiniteGame, address: Address) -> Counterexample | None:
        if isinstance(sub, Leaf):
            return None
        for action, child in sub.branches:
            found = visit(child, address + (action,))
            if found is not None:
                return found
        chosen = profile.action_at(address)
        current = values[address][sub.mover]
        for action, _ in sub.branches:
            if action == chosen:
                continue
            deviation = values[address + (action,)][sub.mover]
            if deviation > current:
                return Counterexample(address, sub.mover, action, current, deviation)
        return None

    return SpeCheck(visit(game, ()))


def is_spe_by_best_response(game: FiniteGame, profile: TreeProfile) -> bool:
    """Reference check allowing arbitrary (multi-node) unilateral deviations.

    Accepts the profile iff in every subgame, every player's payoff under the
    profile already equals her best response against the others.  Used to
    confirm that one-shot deviations suffice on finite games.
    """
    check_profile_total(game, profile)
    values = _profile_values(game, profile)
    players = sorted({s.mover for _, s in walk(game) if isinstance(s, Node)})

    def best(sub: FiniteGame, address: Address, player: str) -> Fraction:
        if isinstance(sub, Leaf):
            return sub.payoffs[player]
        if sub.mover == player:
            return max(
                best(child, address + (action,), player)
                for action, child in sub.branches
            )
        chosen = profile.action_at(address)
        return best(dict(sub.branches)[chosen], address + (chosen,), player)

    for address, sub in walk(game):
        if isinstance(sub, Leaf):
            continue
        for player in players:
            if best(sub, address, player) > values[address][player]:
                return False
    return True


def profile_space_size(game: FiniteGame) -> int:
    """Number of total profiles: product of branch counts over decision nodes."""
    return math.prod(
        len(sub.branches) for _, sub in walk(game) if isinstance(sub, Node)
    )


def all_profiles(game: FiniteGame) -> Iterator[TreeProfile]:
    """Every total profile, in lexicographic (address, branch order) order."""
    addresses = sorted(internal_addresses(game))
    options = [
        [action for action, _ in _node_at(game, address).branches]
        for address in addresses
    ]
    for combo in itertools.product(*options):
        yield TreeProfile(zip(addresses, combo))


def _node_at(game: FiniteGame, address: Address) -> Node:
    current = game
    for label in address:
        assert isinstance(current, Node)
        current = dict(current.branches)[label]
    assert isinstance(current, Node)
    return current


def brute_force_spe(
    game: FiniteGame, cap: int = DEFAULT_PROFILE_CAP
) -> frozenset[TreeProfile]:
    """Oracle: enumerate every total profile and filter with is_spe_finite."""
    _require_valid(game)
    size = profile_space_size(game)
    if size > cap:
        raise CapExceededError(f"profile space {size} exceeds cap {cap}")
    return frozenset(
        profile for profile in all_profiles(game) if is_spe_finite(game, profile).ok
    )


def enumerate_spe_profiles(
    game: FiniteGame, cap: int = DEFAULT_PROFILE_CAP
) -> tuple[TreeProfile, ...]:
    """All equilibrium profiles, derived from the backward-induction structure.

    Equivalent to ``brute_force_spe`` but built compositionally: a profile is
    an equilibrium iff its restriction to every branch is one and the chosen
    branch's value is not beaten by any sibling restriction's value.
    """
    _require_valid(game)
    analyses = _analyze(game)
    total = sum(analyses[()].counts.values())
    if total > cap:
        raise CapExceededError(f"equilibrium count {total} exceeds cap {cap}")

    def enum(sub: FiniteGame, address: Address) -> list[tuple[PayoffVector, dict[Address, str]]]:
        if isinstance(sub, Leaf):
            return [(sub.payoffs, {})]
        mover = sub.mover
        per_branch = [
            (action, enum(child, address + (action,)))
            for action, child in sub.branches
        ]
        results: list[tuple[PayoffVector, dict[Address, str]]] = []
        for i, (action, mine) in enumerate(per_branch):
            for value, choices in mine:
                pools = []
                for j, (_, theirs) in enumerate(per_branch):
                    if j == i:
                        continue
                    pool = [
                        entry for entry in theirs if entry[0][mover] <= value[mover]
                    ]
                    if not pool:
                        break
                    pools.append(pool)
                else:
                    for combo in itertools.product(*pools):
                        merged = {address: action}
                        merged.update(choices)
                        for _, other_choices in combo:
                            merged.update(other_choices)
                        results.append((value, merged))
        return results

    return tuple(TreeProfile(choices) for _, choices in enum(game, ()))


def robust_action_sets(game: FiniteGame) -> dict[Address, tuple[str, ...]]:
    """Strict tie rule, for experimentation: an action survives at a node only
    when all of its equilibrium continuations achieve the node maximum.

    Unlike ``backward_induction`` this rule can leave a node with no
    surviving action (empty tuple); such nodes have no "robust" choice.
    """
    _require_valid(game)
    sets: dict[Address, tuple[str, ...]] = {}

    def visit(sub: FiniteGame, address: Address) -> tuple[PayoffVector, ...]:
        if isinstance(sub, Leaf):
            return (sub.payoffs,)
        mover = sub.mover
        child_values = [
            (action, visit(child, address + (action,)))
            for action, child in sub.branches
        ]
        candidates = [(a, vs) for a, vs in child_values if vs]
        if not candidates:
            sets[address] = ()
            return ()
        best = max(v[mover] for _, vs in candidates for v in vs)
        surviving = [
            (a, vs) for a, vs in candidates if all(v[mover] == best for v in vs)
        ]
        sets[address] = tuple(a for a, _ in surviving)
        merged: list[PayoffVector] = []
        for _, vs in surviving:
            for v in vs:
                if v not in merged:
                    merged.append(v)
        return tuple(merged)

    visit(game, ())
    return sets
