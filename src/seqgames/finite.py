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


def _analyze(tree: _Tree) -> list[_Analysis]:
    """Bottom-up pass: equilibrium value sets and counts for every position."""
    analyses = [_Analysis((p,), {p: 1}) if p is not None else None for p in tree.payoffs]
    for i in tree.post:
        mover = tree.movers[i]
        children = [analyses[k] for k in tree.children[i]]
        mins = [min(w[mover] for w in child.values) for child in children]
        values: list[PayoffVector] = []
        counts: dict[PayoffVector, int] = {}
        for b, child in enumerate(children):
            for v in child.values:
                # Branch b can carry an equilibrium of value v as long as
                # every other branch offers some continuation it beats.
                if any(mins[j] > v[mover] for j in range(len(children)) if j != b):
                    continue
                ways = child.counts[v]
                for j, other in enumerate(children):
                    if j == b:
                        continue
                    ways *= sum(
                        n for w, n in other.counts.items() if w[mover] <= v[mover]
                    )
                counts[v] = counts.get(v, 0) + ways
                if v not in values:
                    values.append(v)
        analyses[i] = _Analysis(tuple(values), counts)
    return analyses


def backward_induction(game: FiniteGame) -> EquilibriumSummary:
    """Solve a finite game bottom-up, keeping all tied optimal actions.

    Each subgame is assigned the set of payoff vectors its equilibria can
    induce; at a decision node an action is kept when some equilibrium of the
    game takes it, which at ties means its continuation payoff is not beaten
    by every alternative continuation of each sibling branch.
    """
    _require_valid(game)
    tree = _Tree(game)
    analyses = _analyze(tree)

    # Top-down pass, in preorder: which subgame equilibrium values survive
    # inside a whole game equilibrium, and hence which actions are used at
    # each node.
    reachable: list[set[PayoffVector]] = [set() for _ in tree.movers]
    reachable[0] = set(analyses[0].values)
    optimal: dict[Address, tuple[str, ...]] = {}
    for i, mover in enumerate(tree.movers):
        if mover is None:
            continue
        live = reachable[i]
        kids = tree.children[i]
        children = [analyses[k] for k in kids]
        mins = [min(w[mover] for w in child.values) for child in children]

        def feasible(b: int, v: PayoffVector) -> bool:
            return v in children[b].values and all(
                mins[j] <= v[mover] for j in range(len(children)) if j != b
            )

        realizers = {v: {b for b in range(len(children)) if feasible(b, v)} for v in live}
        optimal[tree.addresses[i]] = tuple(
            action
            for b, action in enumerate(tree.labels[i])
            if any(b in realizers[v] for v in live)
        )
        for b, (k, child) in enumerate(zip(kids, children)):
            into_child = reachable[k]
            for v in live:
                if b in realizers[v]:
                    into_child.add(v)
                if realizers[v] - {b}:
                    into_child.update(
                        w for w in child.values if w[mover] <= v[mover]
                    )

    # The representative takes the first maximizer in branch order.
    best = list(tree.payoffs)
    choices: dict[Address, str] = {}
    for i in tree.post:
        mover = tree.movers[i]
        kids = tree.children[i]
        b = max(range(len(kids)), key=lambda j: best[kids[j]][mover])
        choices[tree.addresses[i]] = tree.labels[i][b]
        best[i] = best[kids[b]]
    return EquilibriumSummary(
        optimal_actions=optimal,
        count=sum(analyses[0].counts.values()),
        representative=TreeProfile(choices),
        payoff=best[0],
        subgame_values={
            tree.addresses[i]: analyses[i].values for i in tree.postorder
        },
    )


class _Tree:
    """A finite game compiled once into preorder arrays.

    Position 0 is the root and every position comes before its descendants.
    For position ``i``: ``addresses[i]`` is its address, ``movers[i]`` its
    mover (None at a leaf), ``children[i]`` the positions of its branches in
    branch order and ``labels[i]`` their action labels (both empty at a
    leaf), and ``payoffs[i]`` its leaf payoffs (None at a decision node).
    ``postorder`` lists every position in post-order with children in branch
    order, and ``post`` the decision nodes among them: the order in which
    the solver fills in subgames and the one-shot deviation check visits
    them.
    """

    __slots__ = ("addresses", "movers", "children", "labels", "payoffs", "postorder", "post")

    def __init__(self, game: FiniteGame) -> None:
        self.addresses: list[Address] = []
        self.movers: list[str | None] = []
        self.children: list[list[int]] = []
        self.labels: list[tuple[str, ...]] = []
        self.payoffs: list[PayoffVector | None] = []
        stack: list[tuple[int, Address, FiniteGame]] = [(-1, (), game)]
        while stack:
            parent, address, sub = stack.pop()
            position = len(self.addresses)
            if parent >= 0:
                self.children[parent].append(position)
            self.addresses.append(address)
            self.children.append([])
            if isinstance(sub, Leaf):
                self.movers.append(None)
                self.labels.append(())
                self.payoffs.append(sub.payoffs)
                continue
            self.movers.append(sub.mover)
            self.labels.append(tuple(action for action, _ in sub.branches))
            self.payoffs.append(None)
            for action, child in reversed(sub.branches):
                stack.append((position, address + (action,), child))
        # A preorder that visits children last to first, reversed, is the
        # post-order that visits them first to last.
        order: list[int] = []
        pending = [0]
        while pending:
            position = pending.pop()
            order.append(position)
            pending.extend(self.children[position])
        self.postorder: list[int] = order[::-1]
        self.post: list[int] = [i for i in self.postorder if self.movers[i] is not None]

    def rows(self) -> dict[str, list[Fraction | None]]:
        """Each mover's payoff at every leaf, by position (None elsewhere).

        Raises UnknownPlayerError if some leaf has no payoff for a mover.
        """
        return {
            player: [None if p is None else p[player] for p in self.payoffs]
            for player in self.players()
        }

    def picks(self, profile: TreeProfile) -> tuple[int, ...]:
        """Branch index chosen by a total profile at each node of ``post``."""
        return tuple(
            self.labels[i].index(profile[self.addresses[i]]) for i in self.post
        )

    def checked_nodes(self, rows: Mapping[str, list]) -> list[tuple[int, list[int], list]]:
        """(position, children, mover's row) for each node of ``post``."""
        return [(i, self.children[i], rows[self.movers[i]]) for i in self.post]

    def players(self) -> list[str]:
        return sorted({m for m in self.movers if m is not None})


def _first_deviation(
    nodes: list[tuple[int, list[int], list]],
    picks: tuple[int, ...],
    reached: list[int],
) -> tuple[int, int] | None:
    """One post-order pass: the first profitable one-shot deviation.

    ``nodes`` come from ``_Tree.checked_nodes`` and ``picks`` gives the chosen
    branch at each.  ``reached`` maps every position to a leaf position: at
    leaves it must map a leaf to itself, and at each node passed here it is
    set to the leaf the profile reaches from there.  Returns (index into
    ``nodes``, deviating branch) for the first node, in post-order, where a
    branch (the first in branch order) beats the chosen one for the mover,
    or None when there is no such node.
    """
    for n, (position, kids, row) in enumerate(nodes):
        leaf = reached[kids[picks[n]]]
        own = row[leaf]
        for branch, kid in enumerate(kids):
            if row[reached[kid]] > own:
                return n, branch
        reached[position] = leaf
    return None


def _reached(tree: _Tree, picks: tuple[int, ...]) -> list[int]:
    """The leaf position each position leads to when the profile is followed."""
    reached = list(range(len(tree.addresses)))
    for i, pick in zip(tree.post, picks):
        reached[i] = reached[tree.children[i][pick]]
    return reached


def _best_responses(
    tree: _Tree, player: str, choose, start: int = 0
) -> dict[int, Fraction]:
    """Best payoff ``player`` can reach from each position reachable from
    ``start`` when the others follow ``choose`` (position -> branch index).

    ``choose`` is called only at the others' nodes on the way, in preorder.
    """
    order: list[int] = []
    followed: dict[int, int] = {}
    stack = [start]
    while stack:
        i = stack.pop()
        order.append(i)
        if tree.movers[i] == player:
            stack.extend(reversed(tree.children[i]))
        elif tree.movers[i] is not None:
            followed[i] = tree.children[i][choose(i)]
            stack.append(followed[i])
    best: dict[int, Fraction] = {}
    for i in reversed(order):
        if tree.movers[i] is None:
            best[i] = tree.payoffs[i][player]
        elif i in followed:
            best[i] = best[followed[i]]
        else:
            best[i] = max(best[k] for k in tree.children[i])
    return best


def _nash_counterexample(
    tree: _Tree, picks: tuple[int, ...], reached: list[int]
) -> Counterexample | None:
    """Root-payoff deviation check: can any player improve on the whole game?"""
    choose = dict(zip(tree.post, picks)).__getitem__
    for player in tree.players():
        current = tree.payoffs[reached[0]][player]
        best = _best_responses(tree, player, choose)
        if best[0] <= current:
            continue
        # Witness: first node on the improved play path where the greedy
        # best response (first maximizer in branch order) departs from the
        # profile.
        i = 0
        while tree.movers[i] is not None:
            kids = tree.children[i]
            pick = choose(i)
            if tree.movers[i] == player:
                response = next(b for b, k in enumerate(kids) if best[k] == best[i])
                if response != pick:
                    return Counterexample(
                        tree.addresses[i], player, tree.labels[i][response], current, best[0]
                    )
            i = kids[pick]
        raise AssertionError("improving best response with no deviation on path")
    return None


def is_spe_finite(
    game: FiniteGame, profile: TreeProfile, root_only: bool = False
) -> SpeCheck:
    """One-shot deviation check for subgame perfection.

    The game is compiled once into preorder arrays and checked in one
    iterative post-order pass (deepest subgames first, branches in order),
    so the returned counterexample is the first one in depth-first order and
    the depth of the tree is not limited by the recursion limit.  With
    ``root_only`` the profile is instead checked as a plain equilibrium of
    the whole game: each player may re-plan all her choices but only the
    payoff at the root counts, so non-credible threats off the play path are
    not questioned.

    Raises ProfileError if the profile is not total (``check_profile_total``)
    and UnknownPlayerError if a leaf lacks a mover's payoff.
    """
    check_profile_total(game, profile)
    tree = _Tree(game)
    picks = tree.picks(profile)
    if root_only:
        return SpeCheck(_nash_counterexample(tree, picks, _reached(tree, picks)))
    nodes = tree.checked_nodes(tree.rows())
    reached = list(range(len(tree.addresses)))
    found = _first_deviation(nodes, picks, reached)
    if found is None:
        return SpeCheck()
    n, branch = found
    i, kids, row = nodes[n]
    return SpeCheck(
        Counterexample(
            tree.addresses[i],
            tree.movers[i],
            tree.labels[i][branch],
            row[reached[kids[picks[n]]]],
            row[reached[kids[branch]]],
        )
    )


def is_spe_by_best_response(game: FiniteGame, profile: TreeProfile) -> bool:
    """Reference check allowing arbitrary (multi-node) unilateral deviations.

    Accepts the profile iff in every subgame, every player's payoff under the
    profile already equals her best response against the others.  Used to
    confirm that one-shot deviations suffice on finite games.
    """
    check_profile_total(game, profile)
    tree = _Tree(game)
    picks = tree.picks(profile)
    reached = _reached(tree, picks)
    choose = dict(zip(tree.post, picks)).__getitem__
    for player in tree.players():
        for i in tree.post:
            best = _best_responses(tree, player, choose, i)[i]
            if best > tree.payoffs[reached[i]][player]:
                return False
    return True


def profile_space_size(game: FiniteGame) -> int:
    """Number of total profiles: product of branch counts over decision nodes."""
    return math.prod(
        len(sub.branches) for _, sub in walk(game) if isinstance(sub, Node)
    )


def all_profiles(game: FiniteGame) -> Iterator[TreeProfile]:
    """Every total profile, in lexicographic (address, branch order) order."""
    tree = _Tree(game)
    nodes = sorted((tree.addresses[i], tree.labels[i]) for i in tree.post)
    addresses = [address for address, _ in nodes]
    for combo in itertools.product(*(labels for _, labels in nodes)):
        yield TreeProfile(zip(addresses, combo))


def _ranks(row: list[Fraction | None]) -> list[int]:
    """Each leaf payoff replaced by its rank among the row's distinct values."""
    rank = {v: r for r, v in enumerate(sorted({v for v in row if v is not None}))}
    return [-1 if v is None else rank[v] for v in row]


def brute_force_spe(
    game: FiniteGame, cap: int = DEFAULT_PROFILE_CAP
) -> frozenset[TreeProfile]:
    """Oracle: enumerate every total profile and keep those that pass the
    one-shot deviation check.

    Independent of the solver: it never calls ``_analyze``,
    ``backward_induction`` or ``enumerate_spe_profiles``.  The game is
    validated and compiled once; each profile is a tuple of branch indices,
    total by construction, checked by one post-order pass of the check
    ``is_spe_finite`` makes (``_first_deviation``) on payoff ranks, which
    order the leaves exactly as the payoffs do.  A ``TreeProfile`` is built
    only for accepted profiles.
    """
    _require_valid(game)
    size = profile_space_size(game)
    if size > cap:
        raise CapExceededError(f"profile space {size} exceeds cap {cap}")
    tree = _Tree(game)
    nodes = tree.checked_nodes({p: _ranks(row) for p, row in tree.rows().items()})
    reached = list(range(len(tree.addresses)))
    accepted = [
        picks
        for picks in itertools.product(*(range(len(kids)) for _, kids, _ in nodes))
        if _first_deviation(nodes, picks, reached) is None
    ]
    addresses = [tree.addresses[i] for i in tree.post]
    labels = [tree.labels[i] for i in tree.post]
    return frozenset(
        TreeProfile(zip(addresses, map(tuple.__getitem__, labels, picks)))
        for picks in accepted
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
    tree = _Tree(game)
    total = sum(_analyze(tree)[0].counts.values())
    if total > cap:
        raise CapExceededError(f"equilibrium count {total} exceeds cap {cap}")

    # Per position, each equilibrium of its subgame: (value, choices).
    results: list[list[tuple[PayoffVector, dict[Address, str]]] | None] = [
        None if p is None else [(p, {})] for p in tree.payoffs
    ]
    for i in tree.post:
        mover = tree.movers[i]
        address = tree.addresses[i]
        per_branch = [results[k] for k in tree.children[i]]
        for k in tree.children[i]:
            results[k] = None  # released: the merged dicts copy what they need
        found: list[tuple[PayoffVector, dict[Address, str]]] = []
        for b, (action, mine) in enumerate(zip(tree.labels[i], per_branch)):
            for value, choices in mine:
                pools = []
                for j, theirs in enumerate(per_branch):
                    if j == b:
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
                        found.append((value, merged))
        results[i] = found
    return tuple(TreeProfile(choices) for _, choices in results[0])
