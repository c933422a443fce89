"""Backward induction and equilibrium checking for finite games.

The solver keeps exact track of ties.  Every subgame is annotated with the
full set of payoff vectors achievable by its equilibria, and an action at a
node counts as equilibrium-optimal when at least one equilibrium of the whole
game chooses it there.  Every equilibrium of a subgame extends to one of the
whole game (keep its choices, run backward induction above it), so these are
the actions the equilibria of the node's own subgame take there.  With
divergent ties (tied actions whose continuations pay an ancestor differently)
the equilibrium set is not a per-node product, so counts and enumeration are
computed from the tie structure directly; on games whose ties are
payoff-identical the count equals the product of the per-node choice counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from seqgames.core import (
    Address,
    CapExceededError,
    FiniteGame,
    Leaf,
    Node,
    PayoffVector,
    TreeProfile,
    ValidationReport,
    Violation,
    _Kept,
    _count_brief,
    _count_repr,
    _record,
    _refuse_invalid,
    _require_total,
    format_address,
    walk,
)

DEFAULT_PROFILE_CAP = 2**20


@_record
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


@_record
class SpeCheck:
    """Outcome of an equilibrium check: OK, or the first counterexample."""

    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@_record
class EquilibriumSummary:
    """Result of backward induction over a finite game.

    Attributes:
        optimal_actions: per decision node (by address), in preorder, the
            actions chosen there by at least one equilibrium, in branch
            order: those its subgame's equilibria take there, each of which
            extends to an equilibrium of the whole game.  Computed for every
            node, including nodes off every equilibrium path.
        count: exact number of equilibrium profiles.
        representative: a deterministic equilibrium (first maximizer in
            branch order at every node); always passes ``is_spe_finite``.
        payoff: the payoff vector induced by the representative.
        subgame_values: per node, all payoff vectors achievable by the
            equilibria of that subgame; computed on first access from the
            game the summary keeps (``_require_valid``; neither compared
            nor printed).
    """

    optimal_actions: Mapping[Address, tuple[str, ...]]
    count: int
    representative: TreeProfile
    payoff: PayoffVector
    _game: FiniteGame | None = None
    __repr__ = _count_repr

    @functools.cached_property
    def subgame_values(self) -> Mapping[Address, tuple[PayoffVector, ...]]:
        tree = _require_valid(self._game)
        _, vectors, _, (counts, *_) = tree.solved()
        return {tree.addresses[i]: tuple(vectors[v] for v in counts[i]) for i in tree.postorder}


def _valid_tree(game: FiniteGame) -> _Tree:
    """The game compiled; raises ``core._refuse_invalid``'s GameError on a violation."""
    tree = _Tree(game)
    _refuse_invalid("game", tree.violations())
    return tree


# Calls on one game in a row compile and validate it once.
_require_valid = _Kept(_valid_tree)


def validate_game(game: FiniteGame, players: Iterable[str] | None = None) -> ValidationReport:
    """Check structural invariants; returns violations instead of raising.

    With ``players`` given, every leaf must carry exactly that player set
    and every mover must be in it; otherwise the set is inferred as the
    union over all leaves and movers.  Checked on the tree the solvers
    compile and solve (``_Tree.violations``); their summaries'
    ``subgame_values`` are computed on first access.
    """
    return ValidationReport(_Tree(game).violations(players))


def _payoff_ids(
    payoffs: list[PayoffVector | None], players: list[str]
) -> tuple[list[int | None], list[PayoffVector], dict[str, list[int]]]:
    """Leaf payoffs interned as ints, so the solvers compare ranks, not
    fractions: a compile's payoff table (``_Tree.table``).

    Returns each position's payoff id (None at a decision node), the vector
    of each id, and each player's rank of every id (``_ranks``), which orders
    the ids exactly as that player's payoffs do.  Ids are interned by value,
    so equal vectors held by distinct objects get one id.  A vector with no
    payoff for a player gets rank -1; in a valid game no such vector lies
    below a node that player moves at.
    """
    ids: dict[PayoffVector, int] = {}
    leaf = [None if p is None else ids.setdefault(p, len(ids)) for p in payoffs]
    vectors = list(ids)
    ranks = {player: _ranks([v.get(player) for v in vectors]) for player in players}
    return leaf, vectors, ranks


def _analyze(
    tree: _Tree, leaf: list[int | None], ranks: Mapping[str, list[int]], step: int = 0
) -> tuple[list[dict[int, int]], list[int], list[int], list[int]]:
    """Bottom-up pass: everything the solver needs from each subgame, in one
    loop over ``post``.

    Returns four tables.  ``counts[i]``: the payoff ids the equilibria of
    position i's subgame induce, in order of discovery, each with its number
    of equilibria.  ``used[i]``: the branches some equilibrium of that
    subgame takes at i, as a bit mask (bit b for branch b), 0 at a leaf;
    each such equilibrium extends to one of any game containing the subgame
    (backward induction above i), so some equilibrium of that game takes
    them too.  ``best[i]``: the payoff id the representative (first
    maximizer in branch order at every node) reaches from i.  ``picks``: the
    representative's branch at each node of ``post``.

    A single-valued sibling's value never ranks above the floor, so its
    whole total stands in for the rank-filtered sum.

    On a framed table (``_Tree.from_graph``) a child an edge of ``shifts``
    steps to is translated by the slope: its ids and ``best`` are moved
    (``step`` added) before they are compared.  Translation keeps each
    player's order, so counts, used branches and picks are unchanged.
    """
    counts: list[dict[int, int] | None] = [None if v is None else {v: 1} for v in leaf]
    used = [0] * len(leaf)
    best = list(leaf)
    picks = []
    shifts, later = tree.shifts, {}

    def moved(k: int) -> int:
        if k not in later:
            later[k] = len(counts)
            counts.append({v + step: n for v, n in counts[k].items()})
            best.append(best[k] + step)
        return later[k]

    for i in tree.post:
        row = ranks[tree.movers[i]]
        kids = tree.children[i]
        if i in shifts:
            kids = [moved(k) if shift else k for k, shift in zip(kids, shifts[i])]
        children = [counts[k] for k in kids]
        floors = _floors([min(map(row.__getitem__, child)) for child in children])
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
                        whole = len(other) == 1  # its one value ranks at most the floor
                        n *= sum(other.values()) if whole else sum(m for w, m in other.items() if row[w] <= rank)
                found[v] = found.get(v, 0) + n
                used[i] |= 1 << b
        counts[i] = found
        pick = 0
        for b in range(1, len(kids)):
            if row[best[kids[b]]] > row[best[kids[pick]]]:
                pick = b
        picks.append(pick)
        best[i] = best[kids[pick]]
    return counts, used, best, picks


def _floors(mins: list[int]) -> list[int]:
    """For each branch, the highest of the other branches' worst ranks: the
    least rank an equilibrium through that branch can give the mover.  Only
    the two highest worst ranks matter."""
    first = second = -1
    for m in mins:
        if m > first:
            first, second = m, first
        elif m > second:
            second = m
    return [second if m == first else first for m in mins]


def _actions(labels: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The labels of the branches in ``mask`` (bit b for branch b), in branch
    order."""
    return tuple(label for b, label in enumerate(labels) if mask >> b & 1)


def backward_induction(game: FiniteGame) -> EquilibriumSummary:
    """Solve a finite game bottom-up, keeping all tied optimal actions.

    Each subgame is assigned the set of payoff vectors its equilibria can
    induce.  At a decision node an action is kept when some equilibrium of
    its subgame takes it, which extends to one of the whole game by backward
    induction above the node; at ties that means its continuation payoff is
    not beaten by every alternative continuation of each sibling branch.
    """
    tree = _require_valid(game)
    _, vectors, _, (counts, used, best, picks) = tree.solved()
    # Positional, which skips the record's keyword binding: optimal actions
    # (positions are numbered in preorder), count, representative, payoff
    # and the game.
    return EquilibriumSummary(
        {tree.addresses[i]: _actions(tree.labels[i], used[i]) for i in sorted(tree.post)},
        sum(counts[0].values()),
        TreeProfile((tree.addresses[i], tree.labels[i][b]) for i, b in zip(tree.post, picks)),
        vectors[best[0]],
        game,
    )


def _solve_unfoldings(
    graph, depths: Sequence[int], cut: Callable[[str, int], PayoffVector], slope: Mapping | None = None
) -> list[tuple[int, PayoffVector, frozenset[tuple[str, tuple[str, ...], int]]]]:
    """Solve a validated graph's unfoldings at each of ``depths`` on one
    shared table (``_Tree.from_graph``), each subgame once.

    For each depth it returns what ``backward_induction`` finds on
    ``graphs.unfold_param(graph, depth, cut)``: the equilibrium count, the
    representative's payoff, and the distinct (mover, used actions, branch
    count) triples over the decision nodes, where the used actions are the
    node's optimal actions in branch order.  The caller vouches that each
    unfolding is a valid game.

    With ``slope`` the caller also vouches that every payoff met at a stage
    k >= 1, terminal or cut, is affine in k with that slope (one per
    player).  Then the subgame at (state, k, remaining) is the one at
    (state, 1, remaining) translated by (k - 1) slopes, so a framed table
    keys both as the latter and depths 1..D take O(D) positions, not
    O(D^2).  A translation keeps each player's order of payoffs, so counts,
    used actions and picks are unchanged (``_analyze``); every root is at
    stage 0, where the frame is the real stage, so its payoff is exact.
    """
    tree, roots = _Tree.from_graph(graph, depths, cut, slope is not None)
    if slope is None:
        leaf, vectors, _, (counts, used, best, _) = tree.solved()
        vector = vectors.__getitem__
    else:
        leaf, step, ranks, vector = _moving_ids(tree.payoffs, slope, max(depths, default=0))
        counts, used, best, _ = _analyze(tree, leaf, ranks, step)
    # Each position's triples and those of every position below it (none at
    # a leaf), children first: the table numbers children before parents.
    beneath: list[frozenset] = [frozenset()] * len(leaf)
    for i in tree.post:
        kids = tree.children[i]
        own = (tree.movers[i], _actions(tree.labels[i], used[i]), len(kids))
        beneath[i] = frozenset((own,)).union(*(beneath[k] for k in kids))
    return [(sum(counts[r].values()), vector(best[r]), beneath[r]) for r in roots]


def _moving_ids(
    payoffs: list[PayoffVector | None], slope: Mapping[str, Fraction], span: int
) -> tuple[list[int | None], int, dict[str, list[int]], Callable[[int], PayoffVector]]:
    """Each position's id, n, each player's rank of every id and an id's
    payoffs, for a framed table: with n distinct leaf payoffs, id b + t*n is
    payoff b moved by t <= ``span`` slopes.  A rank is the payoff as an
    exact scaled int, less the least of any id, so none is negative.
    """
    leaf, vectors, _ = _payoff_ids(payoffs, [])
    ranks, lows = {}, []
    for player in sorted(slope):
        scale = math.lcm(slope[player].denominator, *(v[player].denominator for v in vectors))
        base, step = [int(v[player] * scale) for v in vectors], int(slope[player] * scale)
        low = min(base) + min(step, 0) * span
        ranks[player] = [rank + t * step - low for t in range(span + 1) for rank in base]
        lows.append((player, low, scale))

    def vector(v: int) -> PayoffVector:
        return PayoffVector._from_sorted(tuple((p, Fraction(ranks[p][v] + low, scale)) for p, low, scale in lows))

    return leaf, len(vectors), ranks, vector


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

    Games are validated on these arrays (``violations``), and the solved
    analysis is computed on first use (``solved``), so the solvers and
    ``subgame_values`` share one compile of the last game (``_require_valid``).
    """

    __slots__ = (
        "addresses", "movers", "children", "labels", "payoffs", "postorder", "post", "shifts", "_table", "_solved"
    )

    def __init__(self, game: FiniteGame) -> None:
        self.addresses: list[Address] = []
        self.movers: list[str | None] = []
        self.children: list[list[int]] = []
        self.labels: list[tuple[str, ...]] = []
        self.payoffs: list[PayoffVector | None] = []
        self.shifts: dict[int, tuple[int, ...]] = {}
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
        cls, graph, depths: Sequence[int], cut: Callable[[str, int], PayoffVector], framed: bool = False
    ) -> tuple[_Tree, list[int]]:
        """A validated graph's unfoldings at each of ``depths``, compiled into
        one table with one position per (state, stage, remaining depth) key,
        since the subgame below a key does not depend on the path to it;
        ``graphs.unfold`` and ``graphs.unfold_param`` build their trees on it.

        A terminal, or a decision state with no depth left, is a leaf keyed
        with remaining 0: a terminal gets its payoffs at its stage, a cut
        state ``cut(state, stage)``, called once, when its key is first met.
        The depths are built in the given order, each depth first with
        branches in order, so a failing ``cut`` fails at the first cut state
        a depth-first walk of the tree meets.  Positions are numbered
        children first, so ``post`` is their index order.  A position's
        address is its key.  Returns the table and each depth's root
        position.  Raises ValueError on a negative depth, for every caller.

        A ``framed`` table keys stage k >= 1 as stage 1, whose subgame it
        is translated by k - 1 slopes (``_solve_unfoldings``); ``shifts``
        gives each edge's stage step, 0 or 1, at stage-1 positions that have
        a step, whose child is then translated by one slope.
        """
        if any(depth < 0 for depth in depths):
            raise ValueError("depth must be >= 0")
        tree = cls.__new__(cls)
        states = graph.states
        index: dict[tuple[str, int, int], int] = {}
        movers: list[str | None] = []
        children: list[list[int]] = []
        labels: list[tuple[str, ...]] = []
        payoffs: list[PayoffVector | None] = []
        shifts = tree.shifts = {}
        top = 1 if framed else math.inf

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
                    step = stage + delta if stage < top else top
                    kid = known(target, step, remaining - 1)
                    if kid is None:
                        stack.append((target, step, remaining - 1, []))
                    else:
                        kids.append(kid)
                    continue
                stack.pop()
                actions = tuple(action for action, _, _ in edges)
                built = add((sid, stage, remaining), states[sid].mover, kids, actions, None)
                if stage == top and any(delta for _, _, delta in edges):
                    shifts[built] = tuple(delta for _, _, delta in edges)
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

    def violations(self, players: Iterable[str] | None = None) -> tuple[Violation, ...]:
        """What ``validate_game`` reports, in preorder: at a leaf its
        missing, then its extra players (each sorted); at a node an empty
        branch list, duplicate labels, then an undeclared mover.  Each
        distinct payoff object is checked once, and only a violation's
        address is formatted."""
        distinct = dict(zip(map(id, self.payoffs), self.payoffs))
        sets = {k: p.players for k, p in distinct.items() if p is not None}
        movers = set(self.movers) - {None}
        expected = frozenset(movers.union(*sets.values()) if players is None else players)
        wrong = {k: s for k, s in sets.items() if s != expected}
        undeclared = movers - expected
        # A node has no labels only when more positions than leaves have none.
        empty = self.labels.count(()) > len(self.labels) - len(self.post)
        if not (wrong or undeclared or empty or any(len(set(a)) < len(a) for a in set(self.labels))):
            return ()
        found: list[Violation] = []
        for i, (mover, actions) in enumerate(zip(self.movers, self.labels)):
            if mover is None:
                own = wrong.get(id(self.payoffs[i]), expected)
                messages = [f"missing payoff for {pid}" for pid in sorted(expected - own)]
                messages += [f"payoff for undeclared player {pid}" for pid in sorted(own - expected)]
            else:
                messages = [] if actions else ["empty branch list"]
                seen: set[str] = set()
                for action in actions:
                    if action in seen:
                        messages.append(f"duplicate action label {action!r}")
                    seen.add(action)
                if mover in undeclared:
                    messages.append(f"undeclared mover {mover}")
            found += [Violation(format_address(self.addresses[i]), m) for m in messages]
        return tuple(found)

    # The one-shot checks compare Fractions, not ``table`` ranks: interning
    # the cross-check's fresh payoffs made ``coinduction.cross_check.self_s``
    # 0.0119 -> 0.0155 s (unfold-solve seed 1; CPython 3.11, 2 vCPU).
    def rows(self) -> dict[str, list[Fraction | None]]:
        """Each mover's payoff at every leaf, by position (None elsewhere).

        Raises UnknownPlayerError if some leaf has no payoff for a mover.
        """
        return {
            player: [None if p is None else p[player] for p in self.payoffs]
            for player in self.players()
        }

    def picks(self, profile: TreeProfile) -> tuple[int, ...]:
        """Branch index chosen by the profile at each node of ``post``.

        Raises the ProfileError ``core.check_profile_total`` raises unless
        the profile chooses one of the actions at exactly the decision nodes,
        checked on the compiled arrays.
        """
        _require_total({self.addresses[i]: self.labels[i] for i in self.post}, profile)
        return tuple(self.labels[i].index(profile[self.addresses[i]]) for i in self.post)

    def first_deviation(self, picks: Sequence[int]) -> Counterexample | None:
        """One post-order pass: the first profitable one-shot deviation when
        ``picks`` gives the chosen branch at each node of ``post``.  It is
        at the first node, in post-order, where a branch (the first in
        branch order) beats the chosen one for the mover, and its address is
        the node's entry of ``addresses``.  Raises UnknownPlayerError if a
        leaf lacks a mover's payoff (``rows``)."""
        rows = self.rows()
        reached = list(range(len(self.addresses)))  # per position, the leaf its play reaches
        for i, pick in zip(self.post, picks):
            kids, row = self.children[i], rows[self.movers[i]]
            reached[i] = reached[kids[pick]]
            own = row[reached[i]]
            for branch, kid in enumerate(kids):
                if row[reached[kid]] > own:
                    return Counterexample(
                        self.addresses[i], self.movers[i], self.labels[i][branch], own, row[reached[kid]]
                    )
        return None

    def players(self) -> list[str]:
        return sorted({m for m in self.movers if m is not None})

    def table(self) -> tuple:
        """``_payoff_ids`` over the movers, on first use: the payoff table
        the solver (``solved``) and the oracle both rank on."""
        if not hasattr(self, "_table"):
            self._table = _payoff_ids(self.payoffs, self.players())
        return self._table

    def solved(self) -> tuple:
        """The payoff table's three tables and ``_analyze``'s four, on first use."""
        if not hasattr(self, "_solved"):
            leaf, vectors, ranks = self.table()
            self._solved = (leaf, vectors, ranks, _analyze(self, leaf, ranks))
        return self._solved


def _best_responses(tree: _Tree, player: str, fixed: Mapping[int, int]) -> dict[int, Fraction]:
    """Best payoff ``player`` can reach from each position reachable from
    the root: a node in ``fixed`` (position -> branch index) follows its
    branch, and every other node takes the branch of highest payoff for
    ``player``.  With every node fixed it is the profile's own payoff."""
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if i in fixed:
            stack.append(tree.children[i][fixed[i]])
        else:
            stack.extend(tree.children[i])
    best: dict[int, Fraction] = {}
    for i in reversed(order):
        if tree.movers[i] is None:
            best[i] = tree.payoffs[i][player]
        elif i in fixed:
            best[i] = best[tree.children[i][fixed[i]]]
        else:
            best[i] = max(best[k] for k in tree.children[i])
    return best


def _nash_counterexample(tree: _Tree, picks: tuple[int, ...]) -> Counterexample | None:
    """Root-payoff deviation check: can any player improve on the whole game
    by re-planning all her choices against the others' ``picks``?"""
    fixed = dict(zip(tree.post, picks))
    for player in tree.players():
        current = _best_responses(tree, player, fixed)[0]
        others = {i: b for i, b in fixed.items() if tree.movers[i] != player}
        best = _best_responses(tree, player, others)
        if best[0] <= current:
            continue
        # Witness: first node on the profile's play path where the greedy
        # best response (first maximizer in branch order) departs from it.
        i = 0
        while tree.movers[i] is not None:
            kids = tree.children[i]
            if tree.movers[i] == player:
                response = next(b for b, k in enumerate(kids) if best[k] == best[i])
                if response != fixed[i]:
                    return Counterexample(
                        tree.addresses[i], player, tree.labels[i][response], current, best[0]
                    )
            i = kids[fixed[i]]
        raise AssertionError("improving best response with no deviation on path")
    return None


def is_spe_finite(
    game: FiniteGame, profile: TreeProfile, root_only: bool = False
) -> SpeCheck:
    """One-shot deviation check for subgame perfection.

    The game is not validated.  It is compiled into preorder arrays (or,
    when it is the game ``_require_valid`` keeps, that compile is reused)
    and checked in one iterative post-order pass (deepest subgames first,
    branches in order), so the returned counterexample is the first one in
    depth-first order and the depth of the tree is not limited by the
    recursion limit.  With ``root_only`` the profile is instead checked as a
    plain equilibrium of the whole game: each player may re-plan all her
    choices but only the payoff at the root counts, so non-credible threats
    off the play path are not questioned.

    Raises ProfileError if the profile is not total (``_Tree.picks``, on
    the compiled arrays) and UnknownPlayerError if a leaf lacks a mover's
    payoff; with ``root_only``, only a leaf that some player's best
    response pass reaches is read.
    """
    ref, tree = _require_valid.entry
    if ref is None or ref() is not game:
        tree = _Tree(game)
    picks = tree.picks(profile)
    return SpeCheck(_nash_counterexample(tree, picks) if root_only else tree.first_deviation(picks))


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
    """Oracle: every total profile that passes the one-shot deviation check,
    found by depth-first search without the solver (``_analyze``,
    ``backward_induction``, ``enumerate_spe_profiles``).

    It picks a branch at each node of ``_Tree.post``, branches in order.
    The picks below a node fix the payoff each child reaches, so only
    branches to the mover's highest rank (in the compile's payoff table,
    ``_Tree.table``, which the solver ranks on too) pass the ``>`` test of
    ``_Tree.first_deviation``; only those are tried.  One always does and
    later picks leave the test alone, so each kept prefix extends to an
    equilibrium: at most |SPE| of each length, each expanded in O(B), B the
    most branches: O(N·B·|SPE|) over N nodes, not O(N·B·|profiles|).  ``cap`` still bounds the profile space.
    """
    tree = _require_valid(game)
    if (size := math.prod(len(tree.children[i]) for i in tree.post)) > cap:
        raise CapExceededError(f"profile space {_count_brief(size)} exceeds cap {_count_brief(cap)}")
    leaf, _, ranks = tree.table()
    nodes = [(i, tree.children[i], ranks[tree.movers[i]]) for i in tree.post]
    reached = list(leaf)  # per position, the payoff id its play reaches
    accepted, picks = [], [""] * len(nodes)
    stack = [(-1, 0)]  # (level, branch): pick branch at nodes[level]; -1 starts
    while stack:
        level, branch = stack.pop()
        if level >= 0:
            position, kids, _ = nodes[level]
            picks[level] = tree.labels[position][branch]
            reached[position] = reached[kids[branch]]
        level += 1
        if level == len(nodes):
            accepted.append(tuple(picks))
            continue
        _, kids, row = nodes[level]
        ranks = [row[reached[kid]] for kid in kids]
        top = max(ranks)
        stack.extend((level, b) for b in reversed(range(len(kids))) if ranks[b] == top)
    addresses = [tree.addresses[i] for i in tree.post]
    return frozenset(TreeProfile(zip(addresses, chosen)) for chosen in accepted)


def enumerate_spe_profiles(
    game: FiniteGame, cap: int = DEFAULT_PROFILE_CAP
) -> tuple[TreeProfile, ...]:
    """All equilibrium profiles, derived from the backward-induction structure.

    Equivalent to ``brute_force_spe`` but built compositionally: a profile is
    an equilibrium iff its restriction to every branch is one and the chosen
    branch's value is not beaten by any sibling restriction's value.
    """
    tree = _require_valid(game)
    leaf, _, ranks, (counts, *_) = tree.solved()
    total = sum(counts[0].values())
    if total > cap:
        raise CapExceededError(f"equilibrium count {_count_brief(total)} exceeds cap {_count_brief(cap)}")

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
