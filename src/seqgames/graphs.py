"""Finitely-represented infinite games.

A ``GameGraph`` is a finite set of named states with labelled edges, possibly
cyclic; it denotes its infinite unfolding from the start state.  A
``ParamGraph`` additionally threads a stage counter k through the play: edges
may increment it and terminal payoffs are affine expressions in it, which is
enough to express auctions whose stakes grow by a fixed step each round.
Depth-limited unfoldings share one object per equal subgame: DAGs that
compare, hash and serialize as the trees they denote.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from types import MappingProxyType

from seqgames.core import (
    CapExceededError,
    GameError,
    Leaf,
    Node,
    PayoffVector,
    RationalLike,
    ValidationReport,
    Violation,
    as_fraction,
    FiniteGame,
    _FrozenMap,
    _Kept,
    _record,
    _setattr,
)
from seqgames.finite import _Tree


class MissingClosureError(GameError):
    """Truncation reached an internal state with no closure payoff."""


@_record
class AffineExpr:
    """``intercept + slope * k`` for a stage counter k ranging over 0, 1, ...

    Beside its fields it keeps the exact integer form ``_ints == (a, b, d)``,
    with ``intercept == a/d``, ``slope == b/d`` and ``d`` the least common
    denominator of the two, so evaluation adds and multiplies ints only.
    """

    intercept: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        intercept, slope = as_fraction(self.intercept), as_fraction(self.slope)
        a, d = intercept.as_integer_ratio()
        b, q = slope.as_integer_ratio()
        if d != q:
            lcm = math.lcm(d, q)
            a, b, d = a * (lcm // d), b * (lcm // q), lcm
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "_ints", (a, b, d))

    def at(self, k: int) -> Fraction:
        a, b, d = self._ints
        if d == 1:
            return Fraction(a + b * k)
        return Fraction(a + b * k, d)

    def shifted(self, delta: int) -> "AffineExpr":
        """The same quantity as a function of j, where k = j + delta."""
        a, b, d = self._ints
        return AffineExpr(Fraction(a + b * delta, d), self.slope)

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.intercept)
        sign = "+" if self.slope > 0 else "-"
        return f"{self.intercept} {sign} {abs(self.slope)}*k"


class AffinePayoffs(_FrozenMap):
    """Immutable map from player id to a payoff affine in the stage counter k."""

    __slots__ = ()

    def at_stage(self, k: int) -> PayoffVector:
        # The entries are sorted and every value is an exact Fraction.
        return PayoffVector._from_sorted(tuple((pid, expr.at(k)) for pid, expr in self._entries))

    def shifted(self, delta: int) -> "AffinePayoffs":
        return AffinePayoffs({pid: expr.shifted(delta) for pid, expr in self._entries})


@_record
class Terminal:
    """A terminal state: constant payoffs in a plain graph, affine in the
    stage counter in a ``ParamGraph``."""

    payoffs: PayoffVector | AffinePayoffs
    edges = ()  # terminals have no moves; every state has ``.edges``


@_record
class Decision:
    mover: str
    edges: tuple[tuple[str, str, int], ...]  # (action, target state, stage delta)


GraphState = Terminal | Decision


@_record
class GameGraph:
    """Named states with labelled edges; denotes its infinite unfolding.

    In a plain graph every edge has stage delta 0 and every terminal has
    constant (``PayoffVector``) payoffs.  ``states`` is a read-only view of
    a copy of the mapping given, so the graph's compiles are kept by identity.
    """

    name: str
    states: Mapping[str, GraphState]
    start: str

    def __post_init__(self) -> None:
        _setattr(self, "states", MappingProxyType(dict(self.states)))

    def __reduce__(self):  # a mappingproxy does not pickle
        return self.__class__, (self.name, dict(self.states), self.start)

    def state(self, sid: str) -> GraphState:
        try:
            return self.states[sid]
        except KeyError:
            raise GameError(f"unknown state {sid!r}") from None

    def internal_ids(self) -> list[str]:
        return [sid for sid, st in self.states.items() if isinstance(st, Decision)]


class ParamGraph(GameGraph):
    """Game graph with a stage counter: edge deltas are 0 or 1 and terminal
    payoffs are ``AffinePayoffs`` in the stage counter k.  A plain graph is
    the special case with every delta 0 and constant payoffs; the class is
    what tells the checkers to track stages."""


def graph_players(graph: GameGraph) -> frozenset[str]:
    players: set[str] = set()
    for state in graph.states.values():
        if isinstance(state, Terminal):
            players.update(state.payoffs)
        else:
            players.add(state.mover)
    return frozenset(players)


def validate_graph(graph: GameGraph) -> ValidationReport:
    """Structural checks shared by plain and parametrized graphs, plus the
    payload each kind allows: payoff type and stage deltas."""
    found: list[Violation] = []
    if graph.start not in graph.states:
        found.append(Violation(graph.name, f"start state {graph.start!r} is not defined"))
    if isinstance(graph, ParamGraph):
        payoff_type, deltas = AffinePayoffs, (0, 1)
    else:
        payoff_type, deltas = PayoffVector, (0,)
    expected = graph_players(graph)
    for sid, state in graph.states.items():
        if isinstance(state, Terminal):
            if not isinstance(state.payoffs, payoff_type):
                kind = type(state.payoffs).__name__
                found.append(Violation(sid, f"payoffs are {kind}, expected {payoff_type.__name__}"))
            missing = expected - set(state.payoffs)
            for pid in sorted(missing):
                found.append(Violation(sid, f"missing payoff for {pid}"))
            continue
        if not state.edges:
            found.append(Violation(sid, "empty edge list"))
        seen: set[str] = set()
        for action, target, delta in state.edges:
            if action in seen:
                found.append(Violation(sid, f"duplicate action label {action!r}"))
            seen.add(action)
            if target not in graph.states:
                found.append(Violation(sid, f"edge {action!r} targets unknown state {target!r}"))
            if delta not in deltas:
                allowed = " or ".join(map(str, deltas))
                found.append(Violation(sid, f"edge {action!r} has stage delta {delta}, expected {allowed}"))
    return ValidationReport(tuple(found))


def _validated(graph: GameGraph) -> None:
    """Raise GameError naming the first violation ``validate_graph`` finds."""
    if violations := validate_graph(graph).violations:
        raise GameError(f"invalid graph: {violations[0]} ({len(violations)} violation(s))")


# The CLI, the checkers and the unfoldings of one graph in a row validate it once.
_require_valid_graph = _Kept(_validated)


ClosureMap = Mapping[str, PayoffVector | AffinePayoffs] | Callable[[str], PayoffVector | AffinePayoffs]


def unfold(graph: GameGraph, depth: int, closure: ClosureMap) -> FiniteGame:
    """Tree of all plays of length <= depth from the start state.

    Internal states cut at the depth limit become leaves carrying the closure
    payoff supplied for that state, at the cut's stage if it is affine.  A
    callable closure is called once per distinct cut (state, stage), in the
    order a depth-first walk with branches in order first meets it.  Equal
    subgames are one shared object.  The graph is validated as the
    checkers validate it (``_require_valid_graph``).
    """

    def closure_for(sid: str, stage: int) -> PayoffVector:
        if callable(closure):
            return closure(sid).at_stage(stage)
        try:
            return closure[sid].at_stage(stage)  # type: ignore[index]
        except KeyError:
            raise MissingClosureError(f"no closure payoff for cut state {sid!r}") from None

    return _unfold_tree(graph, depth, closure_for)


def unfold_param(
    graph: GameGraph,
    depth: int,
    closure: Callable[[str, int], PayoffVector],
) -> FiniteGame:
    """Like ``unfold`` but tracks the stage counter; terminals are evaluated
    at their concrete stage and the closure gets (state, stage), once per
    distinct pair."""
    return _unfold_tree(graph, depth, closure)


def _unfold_tree(
    graph: GameGraph, depth: int, cut: Callable[[str, int], PayoffVector]
) -> FiniteGame:
    """The depth-``depth`` unfolding of a graph, validated first: one
    ``Leaf`` or ``Node`` per position of the (state, stage, remaining
    depth) table of ``_Tree.from_graph``, whose positions are numbered
    children first.  ``cut`` is called as that table calls it.
    """
    _require_valid_graph(graph)
    table, (root,) = _Tree.from_graph(graph, [depth], cut)
    built: list[FiniteGame] = []
    for mover, kids, labels, payoffs in zip(
        table.movers, table.children, table.labels, table.payoffs
    ):
        if mover is None:
            built.append(Leaf(payoffs))
        else:
            built.append(Node(mover, tuple(zip(labels, [built[k] for k in kids]))))
    return built[root]


def zero_one_graph() -> GameGraph:
    """The alternating continue-or-leave game, compactly: two decision states
    feeding each other, each with an exit worth 1 to the opponent only."""
    return GameGraph(
        name="zero_one",
        states={
            "SA": Decision("A", (("c", "SB", 0), ("l", "TA", 0))),
            "TA": Terminal(PayoffVector(A=0, B=1)),
            "SB": Decision("B", (("c", "SA", 0), ("l", "TB", 0))),
            "TB": Terminal(PayoffVector(A=1, B=0)),
        },
        start="SA",
    )


def dollar_auction(stake: RationalLike = 100) -> ParamGraph:
    """Two-bidder auction over a prize worth ``stake``, increment 1.

    At a decision state with stage k the decider has committed k and the
    opponent k+1; quitting forfeits the committed amount and hands the
    opponent the prize minus her commitment, raising commits k+2.  The
    opening state lets the first bidder pass (nobody pays) or open at 1.
    """
    prize = as_fraction(stake)
    if prize < 2:
        raise ValueError("stake must be at least 2 for raising to stay attractive")
    zero = AffineExpr(Fraction(0))
    committed = AffineExpr(Fraction(0), Fraction(-1))
    winner = AffineExpr(prize - 1, Fraction(-1))
    return ParamGraph(
        name="dollar_auction",
        states={
            "S0": Decision("A", (("pass", "T0", 0), ("bid", "DB", 0))),
            "T0": Terminal(AffinePayoffs(A=zero, B=zero)),
            "DB": Decision("B", (("quit", "QB", 0), ("raise", "DA", 1))),
            "QB": Terminal(AffinePayoffs(A=winner, B=committed)),
            "DA": Decision("A", (("quit", "QA", 0), ("raise", "DB", 1))),
            "QA": Terminal(AffinePayoffs(A=committed, B=winner)),
        },
        start="S0",
    )


# The most (state, stage) entries the layers of one StageReachability may
# hold, terminals included, about 14 MiB of sets at the full budget.  A
# chain of 5,000 states (5,000 layers, 10,001 entries) and cycles of 3, 5,
# 7, 11 and 13 states off one start (15,016 layers, 150,161 entries) fit;
# cycles of every prime length 3..19 (period 4,849,845) do not.
_ENTRY_BUDGET = 2**18


class StageReachability:
    """Which stage-counter values each state of a ParamGraph can be entered
    with, starting from the start state at stage 0.

    The per-stage state sets are eventually periodic (there are finitely many
    subsets of states), so the whole structure is computed exactly: a finite
    prefix of layers plus an optional repeating cycle of layers.  Layers
    holding more than ``_ENTRY_BUDGET`` states in all raise
    CapExceededError, a budget, not bad input.

    The graph must already be valid: the class is private to the library
    (not exported from ``seqgames``) and every caller validates first.
    """

    def __init__(self, graph: ParamGraph) -> None:
        self._states = graph.states  # not the graph, which it would keep alive
        layers: list[frozenset[str]] = []
        seen: dict[frozenset[str], int] = {}
        current = self._saturate(frozenset({graph.start}))
        loop_start: int | None = None
        entries = 0
        while current:
            if current in seen:
                loop_start = seen[current]
                break
            entries += len(current)
            if entries > _ENTRY_BUDGET:
                raise CapExceededError(f"stage reachability exceeds {_ENTRY_BUDGET} layer entries")
            seen[current] = len(layers)
            layers.append(current)
            current = self._saturate(self._step(current))
        self.layers = layers
        self.loop_start = loop_start
        self.period = None if loop_start is None else len(layers) - loop_start

    def _saturate(self, states: frozenset[str]) -> frozenset[str]:
        # Close under zero-delta edges: same stage.
        result = set(states)
        queue = list(states)
        while queue:
            sid = queue.pop()
            for _, target, delta in self._states[sid].edges:
                if delta == 0 and target not in result:
                    result.add(target)
                    queue.append(target)
        return frozenset(result)

    def _step(self, states: frozenset[str]) -> frozenset[str]:
        # Follow delta-1 edges: next stage.
        return frozenset(
            target
            for sid in states
            for _, target, delta in self._states[sid].edges
            if delta == 1
        )

    def least_at_least(self, sid: str, k0: int) -> int | None:
        """Smallest reachable stage >= k0 for ``sid``, or None."""
        for k in range(max(k0, 0), len(self.layers)):
            if sid in self.layers[k]:
                return k
        if self.loop_start is None or self.period is None:
            return None
        base = max(k0, self.loop_start)
        candidates = []
        for t in range(self.period):
            if sid in self.layers[self.loop_start + t]:
                offset = (t - (base - self.loop_start)) % self.period
                candidates.append(base + offset)
        return min(candidates) if candidates else None
