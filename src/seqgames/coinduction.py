"""Equilibrium verification on cyclic and stage-parametrized game graphs.

A stationary profile is accepted as subgame perfect when play under it
reaches a terminal from every state and no one-shot deviation (take one
alternative edge, then follow the profile again) strictly improves the
deviating mover anywhere.  On parametrized graphs the deviation inequalities
are affine in the stage counter and are required to hold at every stage the
state can actually be entered with; stages a state never sees impose no
constraint.  Profiles whose play cycles forever carry no payoff and are
rejected as not admissible rather than compared.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from seqgames.core import (
    CapExceededError,
    GameError,
    PayoffVector,
    ProfileError,
    TreeProfile,
    _FrozenMap,
    _Kept,
    _count_brief,
    _record,
    _setattr,
)
from seqgames.finite import Counterexample, SpeCheck, _ranks, _Tree
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    GameGraph,
    ParamGraph,
    StageReachability,
    Terminal,
    _require_valid_graph,
)

DEFAULT_STATIONARY_CAP = 2**16
DEFAULT_CROSS_CHECK_DEPTH = 20


class CrossCheckError(GameError):
    """The symbolic verdict disagreed with its concrete unfolding check."""


class StationaryProfile(_FrozenMap):
    """One chosen action per decision state; history-independent.

    Enumeration holds tens of thousands of these at once, so lookups scan
    the sorted tuple and no per-instance dict is kept.
    """

    __slots__ = ()

    def action_at(self, sid: str) -> str:
        try:
            return self[sid]
        except KeyError:
            raise ProfileError(f"profile not total: no choice at state {sid!r}") from None


@_record
class Converges:
    """Play reached a terminal; payoffs are exact (or affine in the stage
    offset of the origin state, for parametrized graphs)."""

    payoffs: PayoffVector | AffinePayoffs
    steps: int


@_record
class Diverges:
    """Play revisited a state before any terminal; the repeating cycle."""

    cycle: tuple[str, ...]


PlayResult = Converges | Diverges


@_record
class SpeOk:
    """No admissibility failure and no profitable one-shot deviation."""

    ok = True

    def describe(self) -> str:
        return "SPE"


@_record
class NotAdmissible:
    """Play under the profile never terminates from this state."""

    state: str
    cycle: tuple[str, ...]

    ok = False

    def describe(self) -> str:
        loop = " -> ".join(self.cycle + (self.cycle[0],))
        return f"not admissible: play from {self.state} cycles through {loop}"


@_record
class Refuted:
    """A profitable one-shot deviation, with the stage it occurs at (None on
    plain graphs, where payoffs are stage-independent)."""

    state: str
    stage: int | None
    player: str
    action: str
    profile_payoffs: PayoffVector
    deviation_payoffs: PayoffVector

    ok = False

    # Enumeration builds one per refuted profile: a direct ``__init__``.
    def __init__(
        self,
        state: str,
        stage: int | None,
        player: str,
        action: str,
        profile_payoffs: PayoffVector,
        deviation_payoffs: PayoffVector,
    ) -> None:
        _setattr(self, "state", state)
        _setattr(self, "stage", stage)
        _setattr(self, "player", player)
        _setattr(self, "action", action)
        _setattr(self, "profile_payoffs", profile_payoffs)
        _setattr(self, "deviation_payoffs", deviation_payoffs)

    @property
    def gain(self) -> Fraction:
        return self.deviation_payoffs[self.player] - self.profile_payoffs[self.player]

    def describe(self) -> str:
        at_stage = "" if self.stage is None else f" at stage k={self.stage}"
        return (
            f"refuted: {self.player} gains {self.gain} at {self.state}{at_stage} "
            f"by deviating to {self.action!r} "
            f"({self.deviation_payoffs[self.player]} over {self.profile_payoffs[self.player]})"
        )


SpeVerdict = SpeOk | NotAdmissible | Refuted
_SPE_OK = SpeOk()


def play_graph(
    graph: GameGraph, profile: StationaryProfile, from_state: str | None = None
) -> PlayResult:
    """Follow chosen edges until a terminal or a repeated state.

    Terminates within ``len(graph.states) + 1`` steps.  On a parametrized
    graph the payoffs come back affine in the entry stage of the origin
    state (edge deltas en route shift the terminal's expressions).
    """
    path: list[tuple[str, int]] = []  # (state, stage delta) per step taken
    seen: dict[str, int] = {}
    sid = graph.start if from_state is None else from_state
    while True:
        state = graph.state(sid)
        if isinstance(state, Terminal):
            total_delta = sum(delta for _, delta in path)
            return Converges(state.payoffs.shifted(total_delta), steps=len(path))
        if sid in seen:
            return Diverges(tuple(s for s, _ in path[seen[sid]:]))
        seen[sid] = len(path)
        chosen = profile.action_at(sid)
        for action, target, delta in state.edges:
            if action == chosen:
                path.append((sid, delta))
                sid = target
                break
        else:
            raise ProfileError(f"profile chooses unknown action {chosen!r} at state {sid!r}")


def play_param(
    graph: ParamGraph, profile: StationaryProfile, from_state: str | None = None
) -> PlayResult:
    """``play_graph`` on a parametrized graph."""
    return play_graph(graph, profile, from_state)


class _ProfileChecker:
    """Checks stationary profiles against one graph, validated on construction.

    The graph is compiled once: decision states are numbered in definition
    order, terminals after them, and each edge becomes its target's number.
    A profile is checked as its picks, its branch index at each decision
    state.  On a plain graph movers compare terminals by dense ranks of
    their exact payoffs (equal payoffs share a rank, so ``>`` stays exact).
    On a parametrized graph movers compare terminals by int pairs, each
    affine payoff scaled by its player's common denominator (``_scaled``),
    and the affine stage test runs on those pairs.  Either kind's deviation
    test is memoized per edge and per (payoffs, stage shift) at both of its
    ends, the payoffs named by the first terminal that pays them
    (``canon``), and each distinct verdict is built once and shared.  The
    rank and pair tables, the flat edge list, the stage reachability and
    the walk of every profile (``walked``) are built on first use, so
    callers that only value profiles do not pay.
    """

    def __init__(self, graph: GameGraph) -> None:
        _require_valid_graph(graph)
        # All that ``StageReachability`` reads of the graph, which is not kept.
        self.states = states = graph.states
        self.start = graph.start
        self.staged = isinstance(graph, ParamGraph)
        decisions = graph.internal_ids()
        n = len(decisions)
        self.ids = decisions + [sid for sid in states if isinstance(states[sid], Terminal)]
        number = {sid: i for i, sid in enumerate(self.ids)}
        self.movers = [states[sid].mover for sid in decisions]
        self.labels = [[action for action, _, _ in states[sid].edges] for sid in decisions]
        self.targets = [[number[target] for _, target, _ in states[sid].edges] for sid in decisions]
        self.deltas = [[delta for _, _, delta in states[sid].edges] for sid in decisions]
        self.payoffs = [None] * n + [states[sid].payoffs for sid in self.ids[n:]]
        # Shared verdicts by key, and each pgraph refutation by itself; a
        # deviation test that finds no violation is kept as None.
        self._verdicts: dict[object, Refuted | NotAdmissible | None] = {}

    @functools.cached_property
    def rows(self) -> dict[str, list]:
        """Per player, the rank of each state number's payoff on a plain
        graph and its scaled int pair on a pgraph.  Every terminal pays
        every player, so the first one names them all."""
        n = len(self.movers)
        table = _scaled if self.staged else _ranks
        players = set(self.movers).union(*self.payoffs[n:n + 1])
        return {p: [None] * n + table([v[p] for v in self.payoffs[n:]]) for p in players}

    @functools.cached_property
    def canon(self) -> list[int]:
        """Per state number, the first state with equal payoffs, that is with
        equal entries in every player's row; deviation tests are keyed by
        it, so that equal verdicts are one object."""
        first: dict = {}
        return [first.setdefault(key, t) for t, key in enumerate(zip(*self.rows.values()))]

    @functools.cached_property
    def edges(self) -> list[tuple[int, int, int, list | None]]:
        """The edges deviations are tested on, in state and branch order:
        (state, branch, target, its mover's rank row).  On a pgraph only
        those of states some play enters, with None in the row slot: their
        test is the stage test of ``_deviation``.  The states entered are
        the union of the reachability layers, built once."""
        rows, staged = self.rows, self.staged
        entered = set().union(*self.reach.layers) if staged else ()
        return [
            (i, j, target, None if staged else rows[self.movers[i]])
            for i, targets in enumerate(self.targets)
            if not staged or self.ids[i] in entered
            for j, target in enumerate(targets)
        ]

    @functools.cached_property
    def reach(self) -> StageReachability:
        return StageReachability(self)

    @functools.cached_property
    def walked(self) -> list[tuple[StationaryProfile, SpeVerdict]]:
        """``walk()``, kept for the next enumeration of this graph; a walk
        that raised is not kept.  Callers get copies: the list is shared."""
        return self.walk()

    def picks(self, profile: StationaryProfile) -> list[int]:
        """The profile's branch index at each decision state; raises ProfileError
        at the first missing, else extra, else unknown choice, by state id."""
        choices = dict(profile._entries)
        pairs = list(zip(self.ids, self.labels))
        if len(choices) != len(pairs) or any(choices.get(s) not in labels for s, labels in pairs):
            internal = set(self.ids[:len(pairs)])
            if missing := internal - choices.keys():
                raise ProfileError(f"profile not total: no choice at state {min(missing)!r}")
            if extra := choices.keys() - internal:
                raise ProfileError(f"profile has a choice at non-decision state {min(extra)!r}")
            sid = min(s for s, labels in pairs if choices[s] not in labels)
            raise ProfileError(f"profile chooses unknown action {choices[sid]!r} at state {sid!r}")
        return [labels.index(choices[sid]) for sid, labels in pairs]

    def play(self, picks: Sequence[int]) -> tuple[list[int], list[int]] | NotAdmissible:
        """Per state number, the terminal its play under ``picks`` reaches and
        the stage delta on the way.  Walks go from each decision state, in
        definition order, to the first state already resolved.  A state on
        the path is marked -2, so the first walk to meet its own mark makes
        its origin not admissible."""
        n = len(picks)
        succ = [targets[pick] for targets, pick in zip(self.targets, picks)]
        end = [-1] * n + list(range(n, len(self.ids)))
        shift = [0] * len(end)
        for origin in range(n):
            if end[origin] >= 0:
                continue
            path, i = [], origin
            while (reached := end[i]) < 0:
                if reached == -2:
                    return self._diverging(origin, picks)
                end[i] = -2
                path.append(i)
                i = succ[i]
            total = shift[i]
            for j in reversed(path):
                end[j] = reached
                total += self.deltas[j][picks[j]]
                shift[j] = total
        return end, shift

    def _diverging(self, origin: int, picks: Sequence[int]) -> NotAdmissible:
        """The verdict of a profile whose play from decision state ``origin``,
        the first such state in definition order, never ends: the origin
        with the cycle its play enters, one shared object per pair."""
        seen: dict[int, int] = {}  # state -> step, in path order
        i = origin
        while i not in seen:
            seen[i] = len(seen)
            i = self.targets[i][picks[i]]
        key = (origin, tuple(itertools.islice(seen, seen[i], None)))
        if key not in self._verdicts:
            cycle = tuple(self.ids[k] for k in key[1])
            self._verdicts[key] = NotAdmissible(self.ids[origin], cycle)
        return self._verdicts[key]

    def values(
        self, picks: Sequence[int]
    ) -> dict[str, PayoffVector | AffinePayoffs] | NotAdmissible:
        """Every state's play value under ``picks``, by id in definition order."""
        played = self.play(picks)
        if isinstance(played, NotAdmissible):
            return played
        values = {
            sid: self.payoffs[e].shifted(s) if s else self.payoffs[e]
            for sid, e, s in zip(self.ids, *played)
        }
        return {sid: values[sid] for sid in self.states}

    def check(self, profile: StationaryProfile) -> SpeVerdict:
        """Admissibility, then every one-shot deviation."""
        played = self.play(self.picks(profile))
        if isinstance(played, NotAdmissible):
            return played
        return self._one_shot(*played)

    def _one_shot(self, end: list[int], shift: list[int]) -> SpeOk | Refuted:
        """The first profitable one-shot deviation in state and branch order;
        on a parametrized graph, at the least stage its state is entered with.
        A chosen edge ties its state's own value, so it never refutes."""
        for e, (i, _, target, row) in enumerate(self.edges):
            if row is None or row[end[target]] > row[end[i]]:
                found = self._deviation(e, end, shift)
                if found is not None:
                    return found
        return _SPE_OK

    def _deviation(self, e: int, end: list[int], shift: list[int]) -> Refuted | None:
        """Whether edge ``e`` refutes when the play from its state reaches
        terminal ``end[i]`` after ``shift[i]`` stages and the play from its
        target ``end[target]`` after ``shift[target]``.  On a plain graph it
        refutes when the target's terminal ranks higher for the mover; on a
        pgraph, at the least reachable violating stage, found on the mover's
        scaled int pairs.  Payoffs are evaluated only for a refutation; a
        pgraph one is interned, since several shifts can find it."""
        i, j, target, row = self.edges[e]
        canon = self.canon
        key = (e, canon[end[i]], shift[i], canon[end[target]], shift[target])
        verdicts = self._verdicts
        found = verdicts.get(key, False)  # None is a test that found nothing
        if found is not False:
            return found
        _, ei, si, et, st = key
        st += self.deltas[i][j]
        sid, mover, action = self.ids[i], self.movers[i], self.labels[i][j]
        found = None
        if row is not None:
            if row[et] > row[ei]:
                found = Refuted(sid, None, mover, action, self.payoffs[ei], self.payoffs[et])
        else:
            (ca, cb), (da, db) = self.rows[mover][ei], self.rows[mover][et]
            interval = _violation_interval((da + db * st, db), (ca + cb * si, cb))
            witness = interval and self.reach.least_at_least(sid, interval[0])
            if witness is not None and (interval[1] is None or witness <= interval[1]):
                found = Refuted(
                    sid, witness, mover, action,
                    self.payoffs[ei].at_stage(si + witness), self.payoffs[et].at_stage(st + witness),
                )
                found = verdicts.setdefault(found, found)
        verdicts[key] = found
        return found

    def walk(self) -> list[tuple[StationaryProfile, SpeVerdict]]:
        """Every profile with its verdict, in ``stationary_profiles`` order.

        One depth-first walk assigns the decision states in sorted-id order,
        one level each, so each leaf is one profile and consecutive leaves
        share their prefix.  A state whose chosen target is a terminal or a
        resolved state is resolved: it gets the target's terminal and stage
        shift, and so does every assigned state waiting on it, transitively.
        Any other state waits on its target.  Backtracking undoes exactly
        what its level did.  An edge is tested when its later end resolves,
        and each level carries the first violating edge f so far and its
        verdict.  The subtree below a level is decided, and all its profiles
        get that verdict at once, when every edge before f has both ends
        resolved and no completion can leave a cycle of unresolved states.
        Subtrees under three levels deep are left to their leaves, where the
        test would cost what it saves.  A leaf reads its verdict off: f's,
        or, with a state still unresolved, not admissible from the first
        such state in definition order, with the cycle its picks lead into.
        """
        ids, targets, deltas, edges = self.ids, self.targets, self.deltas, self.edges
        n = len(targets)
        if not n:  # one empty profile, with no edge to deviate by
            return [(StationaryProfile._from_sorted(()), _SPE_OK)]
        order = sorted(range(n), key=ids.__getitem__)
        entries = [[(ids[i], label) for label in self.labels[i]] for i in order]
        end = [-1] * n + list(range(n, len(ids)))
        shift = [0] * len(ids)
        waiting: list[list[int]] = [[] for _ in range(n)]
        picks = [0] * n
        chosen: list = [None] * n
        tried = [0] * n  # per level: branches tried so far
        # Per level: the states it resolved, or None when its state waits.
        resolved: list[list[int] | None] = [None] * n
        # Per decision state, the edges it is an end of, in edge order.
        touching: list[list] = [[] for _ in range(n)]
        for e, (i, j, target, row) in enumerate(edges):
            touching[i].append((e, i, j, target, row))
            if target < n and target != i:
                touching[target].append((e, i, j, target, row))
        # Per level: the first violating edge so far (or none) and its verdict.
        first = [len(edges)] * (n + 1)
        found: list[SpeVerdict] = [_SPE_OK] * (n + 1)
        unresolved, last = n, n - 1
        results = []
        level = 0
        while level >= 0:
            s, b = order[level], tried[level]
            if b:  # undo the level's previous branch
                done = resolved[level]
                if done is None:
                    waiting[targets[s][b - 1]].pop()
                else:
                    for x in done:
                        end[x] = -1
                    unresolved += len(done)
            if b == len(targets[s]):
                tried[level] = 0
                level -= 1
                continue
            tried[level] = b + 1
            picks[s] = b
            chosen[level] = entries[level][b]
            t = targets[s][b]
            if end[t] < 0:
                waiting[t].append(s)
                resolved[level] = None
                first[level + 1], found[level + 1] = first[level], found[level]
            else:
                end[s], shift[s] = end[t], shift[t] + deltas[s][b]
                done = [s]
                for x in done:  # grows as waiting states resolve
                    for w in waiting[x]:
                        end[w], shift[w] = end[x], shift[x] + deltas[w][picks[w]]
                        done.append(w)
                resolved[level] = done
                unresolved -= len(done)
                # Ranks compare inline; a stage test skips the chosen edge,
                # which ties its state's value.
                f = first[level]
                for x in done:
                    for e, i, j, k, row in touching[x]:
                        if e >= f:
                            break
                        if end[i] >= 0 and end[k] >= 0 and (
                            row[end[k]] > row[end[i]] if row
                            else j != picks[i] and self._deviation(e, end, shift)
                        ):
                            f = e
                            break
                first[level + 1] = f
                found[level + 1] = found[level] if f == first[level] else self._deviation(f, end, shift)
                if (
                    level < last - 2
                    and all(end[i] >= 0 and end[k] >= 0 for i, _, k, _ in edges[:f])
                    and not _can_cycle(targets, picks, end, set(order[level + 1:]))
                ):  # decided: every completion gets this level's verdict
                    rests = itertools.product(*entries[level + 1:])
                    profiles = map(tuple(chosen[:level + 1]).__add__, rests)
                    profiles = map(StationaryProfile._from_sorted, profiles)
                    results.extend(zip(profiles, itertools.repeat(found[level + 1])))
                    continue
            if level < last:
                level += 1
                continue
            # A leaf: the walk stays at this level for its next branch.
            verdict = self._diverging(end.index(-1), picks) if unresolved else found[n]
            results.append((StationaryProfile._from_sorted(tuple(chosen)), verdict))
        return results


def _can_cycle(targets: list[list[int]], picks: list[int], end: list[int], free: set[int]) -> bool:
    """Whether some completion of a partial profile leaves a cycle of
    unresolved decision states, an assigned one following its pick and a
    free one any edge: free states pick independently, so a cycle of
    possible edges is one completion's play.  Depth first, a state met
    again on the current path closes one."""

    def options(x: int) -> Iterator[int]:
        return iter(targets[x] if x in free else (targets[x][picks[x]],))

    mark = [2 if e >= 0 else 0 for e in end]  # 1 on the current path; 2 done, or resolved
    for root in range(len(picks)):
        if mark[root]:
            continue
        mark[root] = 1
        stack = [(root, options(root))]
        while stack:
            x, ahead = stack[-1]
            for y in ahead:
                if mark[y] == 1:
                    return True
                if not mark[y]:
                    mark[y] = 1
                    stack.append((y, options(y)))
                    break
            else:
                mark[x] = 2
                stack.pop()
    return False


# ``_ProfileChecker(graph)``; the last one is kept with its deviation memo
# and, once enumerated, its walk: at most ``cap`` profiles, released with
# the graph or before the next graph's checker is built.
_checker = _Kept(_ProfileChecker)


def check_spe_graph(graph: GameGraph, profile: StationaryProfile) -> SpeVerdict:
    """One-shot deviation check over every decision state of a cyclic graph
    of either kind, with no cross-check.

    Admissibility first: play must converge from every state.  Then, for
    every state and alternative edge, taking that edge once and following the
    profile from its target must not strictly improve the mover.
    """
    return _checker(graph).check(profile)


def _scaled(exprs: Sequence[AffineExpr]) -> list[tuple[int, int]]:
    """Each expression as the int pair (L*intercept, L*slope), L the least
    common denominator of them all, so pairs compare as the expressions do
    at every stage."""
    lcm = math.lcm(*(expr._ints[2] for expr in exprs))
    return [(a * (lcm // d), b * (lcm // d)) for a, b, d in (expr._ints for expr in exprs)]


def _violation_interval(
    a: tuple[int, int], b: tuple[int, int]
) -> tuple[int, int | None] | None:
    """The set {k : a(k) > b(k)} as an interval of naturals, for affine
    functions given as (intercept, slope) int pairs over one denominator.

    Returns None when empty, else (low, high) with high=None for unbounded.
    An affine difference changes sign at most once, so an interval suffices.
    """
    slope = b[1] - a[1]
    intercept = b[0] - a[0]  # diff(k) = intercept + slope*k; violation iff < 0
    if slope == 0:
        return (0, None) if intercept < 0 else None
    if slope > 0:
        if intercept >= 0:
            return None
        # diff < 0 exactly for k < -intercept/slope, a positive bound; the
        # last such k is one below its ceiling, -(intercept // slope).
        return (0, -(intercept // slope) - 1)
    # slope < 0: diff(k) < 0 exactly for k > intercept/-slope, so the first
    # such k is one above its floor.
    return (max(intercept // -slope + 1, 0), None)


def check_spe_param(
    graph: ParamGraph,
    profile: StationaryProfile,
    cross_check_depth: int | None = DEFAULT_CROSS_CHECK_DEPTH,
) -> SpeVerdict:
    """One-shot deviation check on a parametrized graph, exact in the stage.

    Divergence is stage-independent, so admissibility is checked on the state
    quotient.  Each deviation inequality is affine in the entry stage k of
    its state and must hold at every k the state is reachable with; the
    refutation witness is the least reachable violating stage.  Unless
    ``cross_check_depth`` is None, an admissible profile's verdict is
    re-validated against the concrete unfolding of that many rounds; this
    is the only cross-check the library makes.  ``_unfolding_refutes``
    decides it, and words a ``CrossCheckError``, on the shared (state,
    stage, remaining depth) table, at most |states|*(depth+1)**2 positions,
    and never builds the tree (up to 3**depth positions on 3-edge states).
    """
    if cross_check_depth is not None and cross_check_depth < 0:
        raise ValueError("depth must be >= 0")
    checker = _checker(graph)
    verdict = checker.check(profile)
    if (
        cross_check_depth is not None
        and isinstance(graph, ParamGraph)
        and not isinstance(verdict, NotAdmissible)
    ):
        picks = checker.picks(profile)
        _cross_check(graph, profile, checker.values(picks), verdict, cross_check_depth)
    return verdict


def concrete_unfolding_check(
    graph: ParamGraph, profile: StationaryProfile, depth: int
) -> SpeCheck:
    """Check the profile on a depth-limited concrete unfolding.

    Cut states are closed with the payoff of continuing to follow the profile
    from them, so the finite game agrees with the infinite one along and off
    the profile's play.  Raises if play diverges anywhere.  The table of
    ``_unfolding_refutes`` decides and words the verdict: it is the
    ``is_spe_finite`` verdict on the unfolded tree, which is never built.
    """
    checker = _checker(graph)
    values = checker.values(checker.picks(profile))
    if isinstance(values, NotAdmissible):
        raise GameError(values.describe())
    return SpeCheck(_unfolding_refutes(graph, profile, values, depth)[0])


def _unfolding_refutes(
    graph: ParamGraph,
    profile: StationaryProfile,
    values: dict[str, AffinePayoffs],
    depth: int,
    worded: bool = True,
) -> tuple[Counterexample | None, set[tuple[str, int]]]:
    """The first counterexample of the depth-``depth`` concrete unfolding,
    the one ``is_spe_finite`` finds on its tree, or None; and the (state,
    stage) pairs of its decision positions.  ``_Tree.first_deviation``
    finds it on extrapolation's shared table (``_Tree.from_graph``), one
    position per (state, stage, remaining depth) key, each cut state closed
    with its play value at its stage.  Equal keys have equal subgames and
    picks, and the table numbers positions as a depth-first walk of the tree
    first completes them, so the tree's first deviation is at the first
    occurrence of the table's (``_first_occurrence``).  Unless ``worded``,
    its address stays the table key.
    """
    tree, (root,) = _Tree.from_graph(graph, [depth], lambda sid, stage: values[sid].at_stage(stage))
    choices = dict(profile._entries)
    keys = [tree.addresses[i] for i in tree.post]
    picks = [tree.labels[i].index(choices[key[0]]) for i, key in zip(tree.post, keys)]
    found = tree.first_deviation(picks)
    if found is not None and worded:
        path = _first_occurrence(tree, root, tree.addresses.index(found.address))
        found = Counterexample(
            path, found.player, found.action, found.profile_payoff, found.deviation_payoff
        )
    return found, {key[:2] for key in keys}


def _first_occurrence(tree: _Tree, root: int, target: int) -> tuple[str, ...]:
    """The address of the first occurrence of table position ``target`` in
    the tree the table unfolds from ``root``: one depth-first descent,
    branches in order, that enters each position once, since a position
    left behind was searched with all of its subgame."""
    entered = {root}
    stack = [(root, enumerate(tree.children[root]))]
    path: list[str] = []
    while stack[-1][0] != target:
        i, branches = stack[-1]
        for b, kid in branches:
            if kid not in entered:
                entered.add(kid)
                path.append(tree.labels[i][b])
                stack.append((kid, enumerate(tree.children[kid])))
                break
        else:
            stack.pop()
            path.pop()
    return tuple(path)


def _cross_check(
    graph: ParamGraph,
    profile: StationaryProfile,
    values: dict[str, AffinePayoffs],
    verdict: SpeVerdict,
    depth: int,
) -> None:
    """Re-check a symbolic verdict on the depth-``depth`` concrete unfolding;
    a counterexample is worded only to contradict an accepting verdict."""
    accepted = isinstance(verdict, SpeOk)
    found, seen = _unfolding_refutes(graph, profile, values, depth, worded=accepted)
    if accepted and found is not None:
        raise CrossCheckError(
            f"symbolic check accepts but depth-{depth} unfolding refutes: {found}"
        )
    if isinstance(verdict, Refuted) and found is None and (verdict.state, verdict.stage) in seen:
        raise CrossCheckError(
            f"symbolic check refutes at {verdict.state} (stage {verdict.stage}) "
            f"but the depth-{depth} unfolding accepts"
        )


check_spe = check_spe_graph


def stationary_profiles(graph: GameGraph) -> Iterator[StationaryProfile]:
    """All stationary profiles, lexicographic by state id, branch order."""
    internal = sorted(graph.internal_ids())
    options = [[action for action, _, _ in graph.states[sid].edges] for sid in internal]
    for combo in itertools.product(*options):
        yield StationaryProfile(zip(internal, combo))


def enumerate_stationary_spe(
    graph: GameGraph, cap: int = DEFAULT_STATIONARY_CAP
) -> list[tuple[StationaryProfile, SpeVerdict]]:
    """Verdict for every stationary profile, in deterministic order.

    The checker kept for the last graph keeps its walk, so a second
    enumeration of that graph is a list copy; the cap is tested on every
    call.
    """
    checker = _checker(graph)
    total = math.prod(map(len, checker.targets))
    if total > cap:
        raise CapExceededError(f"stationary profile space {_count_brief(total)} exceeds cap {_count_brief(cap)}")
    return list(checker.walked)


def stationary_closure(
    graph: GameGraph, profile: StationaryProfile
) -> dict[str, PayoffVector | AffinePayoffs]:
    """Closure payoffs for truncation: each state's play value under the
    profile, affine in its entry stage on a pgraph.  Raises when play
    diverges from any state."""
    checker = _checker(graph)
    values = checker.values(checker.picks(profile))
    if isinstance(values, NotAdmissible):
        raise GameError(
            f"no closure payoff: play from {values.state} diverges under the profile"
        )
    return values


def induced_tree_profile(
    graph: GameGraph, profile: StationaryProfile, depth: int
) -> TreeProfile:
    """The profile's choices copied onto the depth-limited unfolding: its
    choice at every decision position, by one explicit-stack walk, so depth
    is not bounded by the recursion limit."""
    _checker(graph).picks(profile)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    choices: dict[tuple[str, ...], str] = {}
    stack: list[tuple[str, int, tuple[str, ...]]] = [(graph.start, 0, ())]
    while stack:
        sid, d, address = stack.pop()
        state = graph.states[sid]
        if isinstance(state, Terminal) or d == depth:
            continue
        choices[address] = profile[sid]
        for action, target, _ in state.edges:
            stack.append((target, d + 1, address + (action,)))
    return TreeProfile(choices)
