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
from collections.abc import Callable, Mapping, Sequence
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
    Violation,
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


class _InvalidGame(GameError):
    """A game that failed validation; ``first`` is its first violation."""

    def __init__(self, violations: tuple[Violation, ...]) -> None:
        super().__init__(f"invalid game: {violations[0]} ({len(violations)} violation(s))")
        self.first = violations[0]


def _require_valid(game: FiniteGame) -> None:
    report = validate_game(game)
    if not report.ok:
        raise _InvalidGame(report.violations)


def _payoff_ids(
    payoffs: list[PayoffVector | None], players: list[str]
) -> tuple[list[int | None], list[PayoffVector], dict[str, list[int]]]:
    """Leaf payoffs interned as ints, so the solver compares ranks, not
    fractions.

    Returns each position's payoff id (None at a decision node), the vector
    of each id, and each player's rank of every id (``_ranks``), which orders
    the ids exactly as that player's payoffs do.  A vector with no payoff for
    a player gets rank -1; in a valid game no such vector lies below a node
    that player moves at.
    """
    ids: dict[PayoffVector, int] = {}
    leaf = [None if p is None else ids.setdefault(p, len(ids)) for p in payoffs]
    vectors = list(ids)
    ranks = {player: _ranks([v.get(player) for v in vectors]) for player in players}
    return leaf, vectors, ranks


def _analyze(
    tree: _Tree, leaf: list[int | None], ranks: Mapping[str, list[int]]
) -> list[dict[int, int]]:
    """Bottom-up pass: for every position, the payoff ids its subgame's
    equilibria induce, in order of discovery, each with its number of
    equilibria."""
    counts: list[dict[int, int] | None] = [None if v is None else {v: 1} for v in leaf]
    for i in tree.post:
        row = ranks[tree.movers[i]]
        children = [counts[k] for k in tree.children[i]]
        floors = _floors([min(row[w] for w in child) for child in children])
        found: dict[int, int] = {}
        for b, child in enumerate(children):
            for v, n in child.items():
                # Branch b can carry an equilibrium of value v as long as
                # every other branch offers some continuation it beats.
                rank = row[v]
                if rank < floors[b]:
                    continue
                for j, other in enumerate(children):
                    if j != b:
                        n *= sum(m for w, m in other.items() if row[w] <= rank)
                found[v] = found.get(v, 0) + n
        counts[i] = found
    return counts


def _floors(mins: list[int]) -> list[int]:
    """For each branch, the highest of the other branches' worst ranks: the
    least rank an equilibrium through that branch can give the mover."""
    return [max(mins[:b] + mins[b + 1 :], default=-1) for b in range(len(mins))]


class _TiePass:
    """Top-down tie pass: which actions some equilibrium of the whole game
    takes at each node.

    It runs over (position, live set) pairs.  The live set of a position is
    the set of its subgame's values (payoff ids) that an equilibrium of the
    whole game can induce there; each of ``roots`` starts with all its values
    live.  On a tree each decision position gets one pair.  On a shared table
    (``_Tree.from_graph``) different parents can hand a position different
    live sets, and each distinct set is one pair, solved once.

    Pairs are numbered in the order they are found.  For pair ``p``:
    ``positions[p]`` is its position, ``used[p]`` the branches some
    equilibrium takes there (empty when nothing is live), and ``below[p]``
    the pairs of its decision children.  ``roots[r]`` is the pair of the
    r-th root, None at a leaf.
    """

    __slots__ = ("roots", "positions", "used", "below")

    def __init__(
        self,
        tree: _Tree,
        counts: list[dict[int, int]],
        ranks: Mapping[str, list[int]],
        roots: list[int],
    ) -> None:
        index: dict[tuple[int, frozenset[int]], int] = {}
        self.positions: list[int] = []
        lives: list[frozenset[int]] = []

        def pair(i: int, live: frozenset[int]) -> int:
            key = (i, live)
            if key not in index:
                index[key] = len(self.positions)
                self.positions.append(i)
                lives.append(live)
            return index[key]

        self.roots = [
            None if tree.movers[r] is None else pair(r, frozenset(counts[r])) for r in roots
        ]
        self.used: list[tuple[int, ...]] = []
        self.below: list[list[int]] = []
        # Solving a pair can add pairs, which this loop then reaches.
        for i, live in zip(self.positions, lives):
            row = ranks[tree.movers[i]]
            kids = tree.children[i]
            children = [counts[k] for k in kids]
            floors = _floors([min(row[w] for w in child) for child in children])
            realizers = {
                v: [b for b, child in enumerate(children) if v in child and row[v] >= floors[b]]
                for v in live
            }
            self.used.append(
                tuple(b for b in range(len(kids)) if any(b in r for r in realizers.values()))
            )
            below = []
            for b, (k, child) in enumerate(zip(kids, children)):
                if tree.movers[k] is None:
                    continue
                into = {v for v in live if b in realizers[v]}
                # A live value realized through another branch leaves in play
                # every value here that the mover does not prefer to it.
                tied = [row[v] for v in live if any(c != b for c in realizers[v])]
                if tied:
                    top = max(tied)
                    into.update(w for w in child if row[w] <= top)
                below.append(pair(k, frozenset(into)))
            self.below.append(below)


def _representative(
    tree: _Tree, leaf: list[int | None], ranks: Mapping[str, list[int]]
) -> tuple[list[int], list[int]]:
    """The first maximizer in branch order at every node: the payoff id it
    reaches from each position, and its branch at each node of ``post``."""
    best = list(leaf)
    picks = []
    for i in tree.post:
        row = ranks[tree.movers[i]]
        kids = tree.children[i]
        b = max(range(len(kids)), key=lambda j: row[best[kids[j]]])
        picks.append(b)
        best[i] = best[kids[b]]
    return best, picks


def backward_induction(game: FiniteGame) -> EquilibriumSummary:
    """Solve a finite game bottom-up, keeping all tied optimal actions.

    Each subgame is assigned the set of payoff vectors its equilibria can
    induce; at a decision node an action is kept when some equilibrium of the
    game takes it, which at ties means its continuation payoff is not beaten
    by every alternative continuation of each sibling branch.
    """
    _require_valid(game)
    tree = _Tree(game)
    leaf, vectors, ranks = _payoff_ids(tree.payoffs, tree.players())
    counts = _analyze(tree, leaf, ranks)
    ties = _TiePass(tree, counts, ranks, [0])
    best, picks = _representative(tree, leaf, ranks)
    return EquilibriumSummary(
        # One pair per decision node; sorted by position is preorder.
        optimal_actions={
            tree.addresses[i]: tuple(tree.labels[i][b] for b in used)
            for i, used in sorted(zip(ties.positions, ties.used))
        },
        count=sum(counts[0].values()),
        representative=TreeProfile(
            (tree.addresses[i], tree.labels[i][b]) for i, b in zip(tree.post, picks)
        ),
        payoff=vectors[best[0]],
        subgame_values={
            tree.addresses[i]: tuple(vectors[v] for v in counts[i]) for i in tree.postorder
        },
    )


def _solve_unfoldings(
    graph, depths: Sequence[int], cut: Callable[[str, int], PayoffVector]
) -> list[tuple[int, PayoffVector, frozenset[tuple[str, tuple[str, ...], int]]]]:
    """Solve a validated graph's unfoldings at each of ``depths`` on one
    shared table (``_Tree.from_graph``), each subgame once.

    For each depth it returns what ``backward_induction`` finds on
    ``graphs.unfold_param(graph, depth, cut)``: the equilibrium count, the
    representative's payoff, and the distinct (mover, used actions, branch
    count) triples over the decision nodes, where the used actions are the
    node's optimal actions in branch order.  The caller vouches that each
    unfolding is a valid game.
    """
    tree, roots = _Tree.from_graph(graph, depths, cut)
    leaf, vectors, ranks = _payoff_ids(tree.payoffs, tree.players())
    counts = _analyze(tree, leaf, ranks)
    best, _ = _representative(tree, leaf, ranks)
    ties = _TiePass(tree, counts, ranks, roots)
    # Each pair's triples and those of every pair below it, children first:
    # the table numbers each child position before its parents.
    beneath: list[frozenset] = [frozenset()] * len(ties.positions)
    for p in sorted(range(len(ties.positions)), key=ties.positions.__getitem__):
        i = ties.positions[p]
        own = (tree.movers[i], tuple(tree.labels[i][b] for b in ties.used[p]), len(tree.children[i]))
        beneath[p] = frozenset((own,)).union(*(beneath[c] for c in ties.below[p]))
    return [
        (
            sum(counts[r].values()),
            vectors[best[r]],
            frozenset() if p is None else beneath[p],
        )
        for r, p in zip(roots, ties.roots)
    ]


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
    them.  ``from_graph`` compiles a shared table of unfoldings instead,
    addressed by (state, stage, remaining depth) keys.
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

    @classmethod
    def from_graph(
        cls, graph, depths: Sequence[int], cut: Callable[[str, int], PayoffVector]
    ) -> tuple[_Tree, list[int]]:
        """A validated graph's unfoldings at each of ``depths``, compiled into
        one table with one position per (state, stage, remaining depth) key,
        since the subgame below a key does not depend on the path to it.

        A terminal, or a decision state with no depth left, is a leaf keyed
        with remaining 0: a terminal gets its payoffs at its stage, a cut
        state ``cut(state, stage)``, called when its key is first met.  The
        depths are built in the given order, each depth first with branches
        in order, so a failing ``cut`` fails where ``graphs.unfold_param``
        would first meet it.  Positions are numbered children first, so
        ``post`` is their index order.  A position's address is its key.
        Returns the table and each depth's root position.
        """
        tree = cls.__new__(cls)
        states = graph.states
        index: dict[tuple[str, int, int], int] = {}
        movers: list[str | None] = []
        children: list[list[int]] = []
        labels: list[tuple[str, ...]] = []
        payoffs: list[PayoffVector | None] = []

        def add(key, mover, kids, actions, payoff) -> int:
            index[key] = len(movers)
            movers.append(mover)
            children.append(kids)
            labels.append(actions)
            payoffs.append(payoff)
            return index[key]

        def known(sid: str, stage: int, remaining: int) -> int | None:
            """The position of a key that needs no frame: one built before,
            or a leaf, built now."""
            state = states[sid]
            key = (sid, stage, remaining if state.edges else 0)
            found = index.get(key)
            if found is not None or (state.edges and remaining):
                return found
            payoff = cut(sid, stage) if state.edges else state.payoffs.at_stage(stage)
            return add(key, None, [], (), payoff)

        roots = []
        for depth in depths:
            root = known(graph.start, 0, depth)
            # Frames: (state id, stage, remaining depth, children so far).
            stack = [] if root is not None else [(graph.start, 0, depth, [])]
            while stack:
                sid, stage, remaining, kids = stack[-1]
                edges = states[sid].edges
                if len(kids) < len(edges):
                    _, target, delta = edges[len(kids)]
                    kid = known(target, stage + delta, remaining - 1)
                    if kid is None:
                        stack.append((target, stage + delta, remaining - 1, []))
                    else:
                        kids.append(kid)
                    continue
                stack.pop()
                actions = tuple(action for action, _, _ in edges)
                built = add((sid, stage, remaining), states[sid].mover, kids, actions, None)
                if stack:
                    stack[-1][3].append(built)
                else:
                    root = built
            roots.append(root)
        # Keys are added once each, in position order.
        tree.addresses = list(index)
        tree.movers, tree.children, tree.labels, tree.payoffs = movers, children, labels, payoffs
        tree.postorder = list(range(len(movers)))
        tree.post = [i for i in tree.postorder if movers[i] is not None]
        return tree, roots

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


def profile_space_size(game: FiniteGame) -> int:
    """Number of total profiles: product of branch counts over decision nodes."""
    return math.prod(
        len(sub.branches) for _, sub in walk(game) if isinstance(sub, Node)
    )


def _ranks(row: list[Fraction | None]) -> list[int]:
    """Each leaf payoff replaced by its rank among the row's distinct values,
    ranked as exact integers: scaled by the row's common denominator."""
    scale = math.lcm(*(v.denominator for v in row if v is not None))
    ints = [None if v is None else v.numerator * (scale // v.denominator) for v in row]
    rank = {v: r for r, v in enumerate(sorted({v for v in ints if v is not None}))}
    return [-1 if v is None else rank[v] for v in ints]


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
    leaf, _, ranks = _payoff_ids(tree.payoffs, tree.players())
    total = sum(_analyze(tree, leaf, ranks)[0].values())
    if total > cap:
        raise CapExceededError(f"equilibrium count {total} exceeds cap {cap}")

    # Per position, each equilibrium of its subgame: (payoff id, choices).
    results: list[list[tuple[int, dict[Address, str]]] | None] = [
        None if v is None else [(v, {})] for v in leaf
    ]
    for i in tree.post:
        row = ranks[tree.movers[i]]
        address = tree.addresses[i]
        per_branch = [results[k] for k in tree.children[i]]
        for k in tree.children[i]:
            results[k] = None  # released: the merged dicts copy what they need
        found: list[tuple[int, dict[Address, str]]] = []
        for b, (action, mine) in enumerate(zip(tree.labels[i], per_branch)):
            for value, choices in mine:
                pools = []
                for j, theirs in enumerate(per_branch):
                    if j == b:
                        continue
                    pool = [entry for entry in theirs if row[entry[0]] <= row[value]]
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
