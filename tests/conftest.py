"""Shared generators for randomized tests, and a fixture that empties the compile memos.

All randomness is seeded per test, so the suite is deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from seqgames import coinduction, finite, graphs
from seqgames.core import FiniteGame, Leaf, Node, PayoffVector
from seqgames.finite import profile_space_size
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    Decision,
    GameGraph,
    ParamGraph,
    Terminal,
)

PLAYERS = ("A", "B")
ACTION_NAMES = ("a", "b", "c")


@pytest.fixture(autouse=True)
def _no_kept_compile(monkeypatch):
    """Start each test with no compiled game or graph kept by the one-entry
    helpers of ``finite._require_valid``, ``graphs._require_valid_graph``
    and ``coinduction._checker``, so no test that counts compiles or
    validations depends on the test before."""
    for kept in (finite._require_valid, graphs._require_valid_graph, coinduction._checker):
        monkeypatch.setattr(kept, "entry", (None, None))


def random_payoffs(
    rng: random.Random, low: int = 0, high: int = 5, players: tuple[str, ...] = PLAYERS
) -> PayoffVector:
    return PayoffVector({p: rng.randint(low, high) for p in players})


def random_finite_game(
    rng: random.Random,
    max_depth: int = 4,
    max_branching: int = 3,
    low: int = 0,
    high: int = 5,
    max_profiles: int = 2048,
    players: tuple[str, ...] = PLAYERS,
) -> FiniteGame:
    """A random small game whose profile space stays enumerable."""

    def build(depth_left: int) -> FiniteGame:
        if depth_left == 0 or rng.random() < 0.3:
            return Leaf(random_payoffs(rng, low, high, players))
        width = rng.randint(1, max_branching)
        branches = tuple(
            (ACTION_NAMES[i], build(depth_left - 1)) for i in range(width)
        )
        return Node(rng.choice(players), branches)

    while True:
        game = build(max_depth)
        if isinstance(game, Node) and profile_space_size(game) <= max_profiles:
            return game


def random_distinct_payoff_game(
    rng: random.Random, max_depth: int = 3, max_branching: int = 3
) -> FiniteGame:
    """A game whose leaf payoffs are pairwise distinct for every player."""
    counter = [0]

    def build(depth_left: int) -> FiniteGame:
        if depth_left == 0 or (depth_left < max_depth and rng.random() < 0.3):
            counter[0] += 1
            values = {p: Fraction(counter[0] * 7 + i) for i, p in enumerate(PLAYERS)}
            return Leaf(PayoffVector(values))
        width = rng.randint(2, max_branching)
        branches = tuple(
            (ACTION_NAMES[i], build(depth_left - 1)) for i in range(width)
        )
        return Node(rng.choice(PLAYERS), branches)

    game = build(max_depth)
    if isinstance(game, Leaf):
        return build(max_depth)
    return game


def random_game_graph(
    rng: random.Random,
    max_internal: int = 3,
    max_terminals: int = 3,
    low: int = 0,
    high: int = 3,
) -> GameGraph:
    """A random small (possibly cyclic) game graph with binary choices."""
    n_internal = rng.randint(1, max_internal)
    n_terminal = rng.randint(1, max_terminals)
    internal_ids = [f"S{i}" for i in range(n_internal)]
    terminal_ids = [f"T{i}" for i in range(n_terminal)]
    states: dict[str, object] = {}
    for sid in internal_ids:
        width = rng.randint(1, 2)
        edges = []
        for j in range(width):
            target = rng.choice(internal_ids + terminal_ids)
            edges.append((ACTION_NAMES[j], target, 0))
        states[sid] = Decision(rng.choice(PLAYERS), tuple(edges))
    for tid in terminal_ids:
        states[tid] = Terminal(random_payoffs(rng, low, high))
    return GameGraph(name="random", states=states, start=internal_ids[0])


def random_param_graph(
    rng: random.Random,
    max_internal: int = 3,
    max_terminals: int = 3,
    low: int = -3,
    high: int = 3,
    ranked: bool = False,
) -> ParamGraph:
    """A random small stage-parametrized graph with binary choices.

    Edges carry stage delta 0 or 1 and may loop back to their own state.
    Terminal payoffs have slopes -1, -1/2, 0, 1/2 or 1.  States are listed
    in shuffled order, so terminals may come before decisions, and the start
    is any decision state, so some states may be unreachable from it.

    Edge targets are drawn from all states, so most stationary profiles
    diverge.  A ``ranked`` graph gives every decision state two edges and
    ranks decision states by number: each edge leads back to its own or an
    earlier decision state with probability 1/5, else on to a later one or
    a terminal.  A profile then diverges only by taking back edges all
    around a cycle, so most profiles reach a terminal.
    """
    n_internal = rng.randint(1, max_internal)
    n_terminal = rng.randint(1, max_terminals)
    internal_ids = [f"S{i}" for i in range(n_internal)]
    terminal_ids = [f"T{i}" for i in range(n_terminal)]
    slopes = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))

    def target(i: int) -> str:
        if not ranked:
            return rng.choice(internal_ids + terminal_ids)
        if rng.random() < 0.2:
            return rng.choice(internal_ids[: i + 1])
        return rng.choice(internal_ids[i + 1 :] + terminal_ids)

    states: list[tuple[str, object]] = []
    for i, sid in enumerate(internal_ids):
        width = 2 if ranked else rng.randint(1, 2)
        edges = tuple(
            (ACTION_NAMES[j], target(i), rng.randint(0, 1)) for j in range(width)
        )
        states.append((sid, Decision(rng.choice(PLAYERS), edges)))
    for tid in terminal_ids:
        payoffs = AffinePayoffs(
            {p: AffineExpr(rng.randint(low, high), rng.choice(slopes)) for p in PLAYERS}
        )
        states.append((tid, Terminal(payoffs)))
    rng.shuffle(states)
    return ParamGraph(name="random", states=dict(states), start=rng.choice(internal_ids))


def random_sloped_graph(
    rng: random.Random, max_internal: int = 4, max_terminals: int = 3, low: int = -3, high: int = 3
) -> ParamGraph:
    """A random small stage-parametrized graph whose terminals share one
    slope vector, each player's slope drawn from -1, -1/2, 0, 1/2 and 1.

    Edges carry stage delta 0 or 1 and may target any state.  Most decision
    states also get an edge straight to a terminal, so the quit closure is
    often defined.  Half the graphs give the start an exit of its own, as
    the dollar auction's T0: a terminal with slopes of its own, reached by a
    delta-0 edge from the start, which no edge enters.  So it is met at
    stage 0 only.
    """
    slopes = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
    sigma = {p: rng.choice(slopes) for p in PLAYERS}
    internal_ids = [f"S{i}" for i in range(rng.randint(1, max_internal))]
    terminal_ids = [f"T{i}" for i in range(rng.randint(1, max_terminals))]
    private = len(internal_ids) > 1 and rng.random() < 0.5
    targets = (internal_ids[1:] if private else internal_ids) + terminal_ids

    def payoffs(slope: dict) -> AffinePayoffs:
        return AffinePayoffs({p: AffineExpr(rng.randint(low, high), slope[p]) for p in PLAYERS})

    states: dict[str, object] = {}
    for sid in internal_ids:
        edges = [(ACTION_NAMES[j], rng.choice(targets), rng.randint(0, 1)) for j in range(rng.randint(1, 2))]
        if rng.random() < 0.75:
            edges.insert(rng.randint(0, len(edges)), ("q", rng.choice(terminal_ids), rng.randint(0, 1)))
        if private and sid == internal_ids[0]:
            edges.insert(rng.randint(0, len(edges)), ("x", "X", 0))
            states["X"] = Terminal(payoffs({p: rng.choice(slopes) for p in PLAYERS}))
        states[sid] = Decision(rng.choice(PLAYERS), tuple(edges))
    for tid in terminal_ids:
        states[tid] = Terminal(payoffs(sigma))
    return ParamGraph(name="sloped", states=states, start=internal_ids[0])


def random_ring_graph(rng: random.Random, n_internal: int, high: int = 2) -> GameGraph:
    """A random plain ring of ``n_internal`` decision states, at the scale of
    the stationary-enum benchmark.

    Every state on the ring continues to the next one and has an exit to a
    terminal of its own; some also get a chord to a random decision state,
    as a third edge.  Edge order is shuffled.  Payoffs run from 0 to
    ``high``, so ties are common.  Sometimes one decision state sits off the
    ring, where only a chord can lead, and some terminals are never
    targeted.  States are listed in shuffled order, so terminals may come
    first.
    """
    ids = [f"S{i}" for i in range(n_internal)]
    ring = n_internal - (rng.random() < 0.3)  # the rest sits off the ring
    states: list[tuple[str, object]] = []
    for i, sid in enumerate(ids):
        targets = [ids[(i + 1) % ring] if i < ring else rng.choice(ids[:ring]), f"T{i}"]
        if rng.random() < 0.15:
            targets.append(rng.choice(ids))
        rng.shuffle(targets)
        edges = tuple((ACTION_NAMES[j], target, 0) for j, target in enumerate(targets))
        states.append((sid, Decision(rng.choice(PLAYERS), edges)))
    for i in range(n_internal + rng.randint(0, 2)):
        states.append((f"T{i}", Terminal(random_payoffs(rng, 0, high))))
    rng.shuffle(states)
    return GameGraph(name="ring", states=dict(states), start=ids[0])
