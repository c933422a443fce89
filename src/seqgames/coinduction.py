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

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from seqgames.core import (
    CapExceededError,
    FiniteGame,
    GameError,
    PayoffVector,
    ProfileError,
    TreeProfile,
    _FrozenMap,
)
from seqgames.finite import SpeCheck, _ranks, is_spe_finite
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    GameGraph,
    ParamGraph,
    StageReachability,
    Terminal,
    _unfold_tree,
    require_valid_graph,
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


def check_stationary_total(graph: GameGraph, profile: StationaryProfile) -> None:
    internal = set(graph.internal_ids())
    given = set(profile)
    missing = sorted(internal - given)
    extra = sorted(given - internal)
    if missing:
        raise ProfileError(f"profile not total: no choice at state {missing[0]!r}")
    if extra:
        raise ProfileError(f"profile has a choice at non-decision state {extra[0]!r}")
    for sid in sorted(internal):
        labels = {action for action, _, _ in graph.states[sid].edges}
        if profile[sid] not in labels:
            raise ProfileError(
                f"profile chooses unknown action {profile[sid]!r} at state {sid!r}"
            )


@dataclass(frozen=True)
class Converges:
    """Play reached a terminal; payoffs are exact (or affine in the stage
    offset of the origin state, for parametrized graphs)."""

    payoffs: PayoffVector | AffinePayoffs
    steps: int

    @property
    def converged(self) -> bool:
        return True


@dataclass(frozen=True)
class Diverges:
    """Play revisited a state before any terminal; the repeating cycle."""

    cycle: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return False


PlayResult = Converges | Diverges


@dataclass(frozen=True)
class SpeOk:
    """No admissibility failure and no profitable one-shot deviation."""

    ok = True

    def describe(self) -> str:
        return "SPE"


@dataclass(frozen=True)
class NotAdmissible:
    """Play under the profile never terminates from this state."""

    state: str
    cycle: tuple[str, ...]

    ok = False

    def describe(self) -> str:
        loop = " -> ".join(self.cycle + (self.cycle[0],))
        return f"not admissible: play from {self.state} cycles through {loop}"


@dataclass(frozen=True)
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
    """Checks stationary profiles against one graph the caller has validated.

    The graph is compiled once: decision states are numbered in definition
    order, terminals after them, and each edge becomes its target's number.
    A profile is checked as its picks, its branch index at each decision
    state.  On a plain graph movers compare terminals by dense ranks of
    their exact payoffs (equal payoffs share a rank, so ``>`` stays exact),
    and each distinct verdict is built once and shared.  A parametrized
    graph keeps its affine stage test; its stage reachability is built on
    first use.
    """

    def __init__(self, graph: GameGraph) -> None:
        self.graph = graph
        states = graph.states
        decisions = graph.internal_ids()
        n = len(decisions)
        self.ids = decisions + [sid for sid in states if isinstance(states[sid], Terminal)]
        number = {sid: i for i, sid in enumerate(self.ids)}
        self.movers = [states[sid].mover for sid in decisions]
        self.labels = [[action for action, _, _ in states[sid].edges] for sid in decisions]
        self.targets = [[number[target] for _, target, _ in states[sid].edges] for sid in decisions]
        self.deltas = [[delta for _, _, delta in states[sid].edges] for sid in decisions]
        self.payoffs = [None] * n + [states[sid].payoffs for sid in self.ids[n:]]
        ranks = {}
        if not isinstance(graph, ParamGraph):
            for p in set(self.movers):
                ranks[p] = [-1] * n + _ranks([v[p] for v in self.payoffs[n:]])
        # Every edge in state and branch order, with its mover's ranks.
        self.edges = [
            (i, j, target, ranks.get(self.movers[i]))
            for i, targets in enumerate(self.targets)
            for j, target in enumerate(targets)
        ]
        self._reach: StageReachability | None = None
        self._verdicts: dict[tuple, Refuted | NotAdmissible] = {}

    @property
    def reach(self) -> StageReachability:
        if self._reach is None:
            self._reach = StageReachability(self.graph)
        return self._reach

    def picks(self, profile: StationaryProfile) -> list[int]:
        """The profile's branch index at each decision state; raises
        ProfileError unless the profile is total."""
        choices = dict(profile._entries)
        pairs = list(zip(self.ids, self.labels))
        if len(choices) != len(pairs) or any(choices.get(s) not in labels for s, labels in pairs):
            check_stationary_total(self.graph, profile)  # raises the first fault
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
        staged = isinstance(self.graph, ParamGraph)
        for origin in range(n):
            if end[origin] >= 0:
                continue
            path, i = [], origin
            while (reached := end[i]) < 0:
                if reached == -2:
                    key = (origin, tuple(path[path.index(i):]))
                    if key not in self._verdicts:
                        cycle = tuple(self.ids[k] for k in key[1])
                        self._verdicts[key] = NotAdmissible(self.ids[origin], cycle)
                    return self._verdicts[key]
                end[i] = -2
                path.append(i)
                i = succ[i]
            for j in path:
                end[j] = reached
            if staged:
                total = shift[i]
                for j in reversed(path):
                    total += self.deltas[j][picks[j]]
                    shift[j] = total
        return end, shift

    def values(
        self, picks: Sequence[int]
    ) -> dict[str, PayoffVector | AffinePayoffs] | NotAdmissible:
        """Every state's play value under ``picks``, by id in definition order."""
        played = self.play(picks)
        if isinstance(played, NotAdmissible):
            return played
        by_id = dict(zip(self.ids, self._values(*played)))
        return {sid: by_id[sid] for sid in self.graph.states}

    def _values(self, end: list[int], shift: list[int]) -> list[PayoffVector | AffinePayoffs]:
        """Per state number, its play value."""
        return [self.payoffs[e].shifted(s) if s else self.payoffs[e] for e, s in zip(end, shift)]

    def check(
        self, profile: StationaryProfile, depth: int | None = None, picks: Sequence | None = None
    ) -> SpeVerdict:
        """Admissibility, then every one-shot deviation; parametrized verdicts
        are cross-checked at ``depth`` unless None.  ``picks`` are the
        profile's, when the caller has them."""
        picks = self.picks(profile) if picks is None else picks
        played = self.play(picks)
        if isinstance(played, NotAdmissible):
            return played
        verdict = self._one_shot(picks, *played)
        if depth is not None and isinstance(self.graph, ParamGraph):
            _cross_check(self.graph, profile, self.values(picks), verdict, depth)
        return verdict

    def _one_shot(self, picks: Sequence[int], end: list[int], shift: list[int]) -> SpeOk | Refuted:
        """The first profitable one-shot deviation in state and branch order;
        on a parametrized graph, at the least stage its state is entered with.
        A chosen edge ties its state's own value, so it never refutes."""
        if not isinstance(self.graph, ParamGraph):
            for i, j, target, row in self.edges:
                if row[end[target]] > row[end[i]]:
                    key = (i, j, end[i], end[target])
                    if key not in self._verdicts:
                        self._verdicts[key] = Refuted(
                            self.ids[i], None, self.movers[i], self.labels[i][j],
                            self.payoffs[end[i]], self.payoffs[end[target]],
                        )
                    return self._verdicts[key]
            return _SPE_OK
        value = self._values(end, shift)
        for i, j, target, _ in self.edges:
            sid, mover = self.ids[i], self.movers[i]
            if j == picks[i] or self.reach.min_offset(sid) is None:
                continue  # the chosen edge, or a state no play enters
            current, deviation = value[i], value[target].shifted(self.deltas[i][j])
            witness = _least_reachable_violation(self.reach, sid, deviation[mover], current[mover])
            if witness is not None:
                return Refuted(
                    sid, witness, mover, self.labels[i][j],
                    current.at_stage(witness), deviation.at_stage(witness),
                )
        return _SPE_OK


def check_spe_graph(graph: GameGraph, profile: StationaryProfile) -> SpeVerdict:
    """One-shot deviation check over every decision state of a cyclic graph.

    Admissibility first: play must converge from every state.  Then, for
    every state and alternative edge, taking that edge once and following the
    profile from its target must not strictly improve the mover.
    """
    require_valid_graph(graph)
    return _ProfileChecker(graph).check(profile)


def _violation_interval(a: AffineExpr, b: AffineExpr) -> tuple[int, int | None] | None:
    """The set {k : a(k) > b(k)} as an interval of naturals.

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
    ``cross_check_depth`` is None, the verdict is re-validated against the
    concrete unfolding of that many rounds.  That check values each distinct
    (state, stage, remaining depth) subgame once, at most
    |states|*(depth+1)**2 of them, instead of every position of the tree
    (up to 3**depth on 3-edge states); the tree is built only to word a
    ``CrossCheckError``.
    """
    require_valid_graph(graph)
    return _ProfileChecker(graph).check(profile, cross_check_depth)


def _least_reachable_violation(
    reach: StageReachability, sid: str, deviation: AffineExpr, current: AffineExpr
) -> int | None:
    """Least stage k reachable at ``sid`` with deviation(k) > current(k)."""
    interval = _violation_interval(deviation, current)
    if interval is None:
        return None
    low, high = interval
    least = reach.least_at_least(sid, low)
    if least is None:
        return None
    if high is not None and least > high:
        return None
    return least


def concrete_unfolding_check(
    graph: ParamGraph, profile: StationaryProfile, depth: int
) -> SpeCheck:
    """Check the profile on a depth-limited concrete unfolding.

    Cut states are closed with the payoff of continuing to follow the profile
    from them, so the finite game agrees with the infinite one along and off
    the profile's play.  Raises if play diverges anywhere.
    """
    require_valid_graph(graph)
    checker = _ProfileChecker(graph)
    values = checker.values(checker.picks(profile))
    if isinstance(values, NotAdmissible):
        raise GameError(values.describe())
    return is_spe_finite(*_concrete_unfolding(graph, profile, values, depth))


def _concrete_unfolding(
    graph: ParamGraph,
    profile: StationaryProfile,
    values: dict[str, AffinePayoffs],
    depth: int,
) -> tuple[FiniteGame, TreeProfile]:
    """The depth-``depth`` unfolding, cut states closed with their play
    values, and the profile's choices copied onto it."""
    tree = _unfold_tree(graph, depth, lambda sid, stage: values[sid].at_stage(stage))
    return tree, _unfolded_choices(graph, profile, depth)


def _unfolded_choices(
    graph: GameGraph, profile: StationaryProfile, depth: int
) -> TreeProfile:
    """The profile's choice at every decision position of the depth-``depth``
    unfolding, by one explicit-stack walk, so depth is not bounded by the
    recursion limit."""
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


def _cross_check(
    graph: ParamGraph,
    profile: StationaryProfile,
    values: dict[str, AffinePayoffs],
    verdict: SpeVerdict,
    depth: int,
) -> None:
    """Re-check a symbolic verdict on the depth-``depth`` concrete unfolding.

    A position's subgame depends only on its key (state, stage, remaining
    depth), so one post-order walk over the distinct keys, at most
    |states|*(depth+1)**2 of them, gives each the payoff the profile reaches
    from it: a terminal's payoffs or, at the cut, the state's play value, at
    that stage.  The unfolding refutes the profile when some decision key has
    a branch that beats the chosen one for its mover.  The tree itself is
    built only to word a disagreement.
    """
    states = graph.states
    choices = dict(profile._entries)
    picks = {
        sid: [action for action, _, _ in states[sid].edges].index(choice)
        for sid, choice in choices.items()
    }
    reached: dict[tuple[str, int, int], PayoffVector] = {}
    seen: set[tuple[str, int]] = set()
    refuted = False

    def key(sid: str, stage: int, remaining: int) -> tuple[str, int, int]:
        return (sid, stage, 0 if isinstance(states[sid], Terminal) else remaining)

    stack = [key(graph.start, 0, depth)]
    while stack:
        here = stack[-1]
        if here in reached:
            stack.pop()
            continue
        sid, stage, remaining = here
        state = states[sid]
        if remaining == 0:
            payoffs = state.payoffs if isinstance(state, Terminal) else values[sid]
            reached[here] = payoffs.at_stage(stage)
            stack.pop()
            continue
        kids = [key(target, stage + delta, remaining - 1) for _, target, delta in state.edges]
        missing = [kid for kid in kids if kid not in reached]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        seen.add((sid, stage))
        mover = state.mover
        own = reached[kids[picks[sid]]]
        reached[here] = own
        if not refuted:
            refuted = any(reached[kid][mover] > own[mover] for kid in kids)
    if isinstance(verdict, SpeOk) and refuted:
        concrete = is_spe_finite(*_concrete_unfolding(graph, profile, values, depth))
        raise CrossCheckError(
            f"symbolic check accepts but depth-{depth} unfolding refutes: "
            f"{concrete.counterexample}"
        )
    if isinstance(verdict, Refuted) and (verdict.state, verdict.stage) in seen:
        if not refuted:
            raise CrossCheckError(
                f"symbolic check refutes at {verdict.state} (stage {verdict.stage}) "
                f"but the depth-{depth} unfolding accepts"
            )


def check_spe(
    graph: GameGraph,
    profile: StationaryProfile,
    cross_check_depth: int | None = None,
) -> SpeVerdict:
    """Dispatch to the plain or parametrized checker."""
    if isinstance(graph, ParamGraph):
        return check_spe_param(graph, profile, cross_check_depth)
    return check_spe_graph(graph, profile)


def stationary_profiles(graph: GameGraph) -> Iterator[StationaryProfile]:
    """All stationary profiles, lexicographic by state id, branch order."""
    internal = sorted(graph.internal_ids())
    options = [[action for action, _, _ in graph.states[sid].edges] for sid in internal]
    for combo in itertools.product(*options):
        yield StationaryProfile(zip(internal, combo))


def stationary_profile_count(graph: GameGraph) -> int:
    count = 1
    for sid in graph.internal_ids():
        count *= len(graph.states[sid].edges)
    return count


def enumerate_stationary_spe(
    graph: GameGraph,
    cap: int = DEFAULT_STATIONARY_CAP,
    cross_check_depth: int | None = None,
) -> list[tuple[StationaryProfile, SpeVerdict]]:
    """Verdict for every stationary profile, in deterministic order."""
    require_valid_graph(graph)
    total = stationary_profile_count(graph)
    if total > cap:
        raise CapExceededError(f"stationary profile space {total} exceeds cap {cap}")
    checker = _ProfileChecker(graph)
    # Profiles in ``stationary_profiles`` order, from sorted entries.
    order = sorted(range(len(checker.labels)), key=checker.ids.__getitem__)
    position = sorted(range(len(order)), key=order.__getitem__)
    to_picks = itemgetter(*position) if len(order) > 1 else tuple
    branches = [range(len(checker.labels[i])) for i in order]
    entries = [[(checker.ids[i], label) for label in checker.labels[i]] for i in order]
    results = []
    for combo, chosen in zip(itertools.product(*branches), itertools.product(*entries)):
        profile = StationaryProfile._from_sorted(chosen)
        results.append((profile, checker.check(profile, cross_check_depth, to_picks(combo))))
    return results


def stationary_closure(
    graph: GameGraph, profile: StationaryProfile
) -> dict[str, PayoffVector]:
    """Closure payoffs for truncation: each state's play value under the
    profile.  Raises when play diverges from any state."""
    require_valid_graph(graph)
    checker = _ProfileChecker(graph)
    values = checker.values(checker.picks(profile))
    if isinstance(values, NotAdmissible):
        raise GameError(
            f"no closure payoff: play from {values.state} diverges under the profile"
        )
    return values


def induced_tree_profile(
    graph: GameGraph, profile: StationaryProfile, depth: int
) -> TreeProfile:
    """The profile's choices copied onto the depth-limited unfolding."""
    require_valid_graph(graph)
    check_stationary_total(graph, profile)
    return _unfolded_choices(graph, profile, depth)
