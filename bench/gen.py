"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns DSL text, so the
program under test only ever sees documents, which it parses itself.  The
generators use plain Python data and import nothing from ``seqgames`` or
from the test suite: later changes to either cannot shift the inputs.
"""

from __future__ import annotations

import math
import random

PLAYERS = ("A", "B")


def _leaf(rng: random.Random) -> str:
    return f"(leaf (A:{rng.randint(0, 4)}) (B:{rng.randint(0, 4)}))"


def arity_ladder(count: int, max_exponent: float) -> list[tuple[int, ...]]:
    """Internal-node arities for ``count`` trees whose profile spaces grow
    geometrically from 2 to about 2**max_exponent.

    Slot i gets a multiset of 2s and 3s whose product is close to
    2**(1 + (max_exponent - 1) * i / (count - 1)).  The ladder is fixed, so
    per-task cost depends on the slot, not on the seed.
    """
    ladder = []
    for i in range(count):
        exponent = 1 + (max_exponent - 1) * i / max(count - 1, 1)
        threes = i % 3 if exponent >= 2 * math.log2(3) else 0
        twos = max(round(exponent - threes * math.log2(3)), 0)
        if twos + threes == 0:
            twos = 1
        ladder.append((3,) * threes + (2,) * twos)
    return ladder


def random_tree(rng: random.Random, arities: tuple[int, ...], max_depth: int = 5) -> str:
    """A 2-player game tree with one decision node per entry of ``arities``.

    Nodes are attached at random open slots above ``max_depth``, so the
    profile space is exactly the product of ``arities`` while the shape is
    random.  Payoffs are integers 0..4, so ties are common.
    """
    order = list(arities)
    rng.shuffle(order)
    root: dict = {"kids": [None] * order[0]}
    open_slots = [(root, i, 1) for i in range(order[0])]
    for arity in order[1:]:
        candidates = [n for n, slot in enumerate(open_slots) if slot[2] < max_depth]
        parent, index, level = open_slots.pop(rng.choice(candidates))
        child = {"kids": [None] * arity}
        parent["kids"][index] = child
        open_slots.extend((child, i, level + 1) for i in range(arity))

    def render(spec: dict | None, indent: int) -> str:
        if spec is None:
            return _leaf(rng)
        pad = "  " * (indent + 1)
        lines = [f"(node {rng.choice(PLAYERS)}"]
        for i, kid in enumerate(spec["kids"]):
            lines.append(f"{pad}(a{i} {render(kid, indent + 1)})")
        return "\n".join(lines) + ")"

    return render(root, 0) + "\n"


def binary_graph(rng: random.Random, states: int, chords: float) -> str:
    """A cyclic graph of ``states`` binary decision states.

    Each state has a continue edge ``c`` (to the ring successor, or with
    probability ``chords`` to a random state) and an exit edge ``l`` to its
    own terminal, so every state can end play.
    """
    lines = ["graph g {"]
    for i in range(states):
        target = rng.randrange(states) if rng.random() < chords else (i + 1) % states
        mover = rng.choice(PLAYERS)
        lines.append(f"  state S{i} = node {mover} {{ c -> S{target}, l -> T{i} }}")
        lines.append(f"  state T{i} = leaf (A:{rng.randint(0, 4)}) (B:{rng.randint(0, 4)})")
    lines.append("  start S0")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _affine(rng: random.Random) -> str:
    intercept = rng.randint(-4, 6)
    slope = rng.choice((-1, 0, 0, 1))
    if slope == 0:
        return str(intercept)
    return f"{intercept} {'+' if slope > 0 else '-'} 1*k"


def stage_graph(rng: random.Random, states: int) -> tuple[str, dict[str, dict[str, str]]]:
    """A stage-parametrized graph: every state has an exit edge ``x`` to an
    inline terminal with affine payoffs and two continue edges ``m0``, ``m1``
    to random states, each advancing the stage with probability 1/2.

    Returns the document and, per state, the targets of its continue edges.
    """
    lines = ["pgraph p {"]
    successors: dict[str, dict[str, str]] = {}
    for i in range(states):
        edges = [f"x -> leaf (A:{_affine(rng)}) (B:{_affine(rng)})"]
        successors[f"S{i}"] = {}
        for j in range(2):
            target = f"S{rng.randrange(states)}"
            step = " @ k+1" if rng.random() < 0.5 else ""
            edges.append(f"m{j} -> {target}{step}")
            successors[f"S{i}"][f"m{j}"] = target
        lines.append(f"  state S{i} = node {rng.choice(PLAYERS)} {{ {', '.join(edges)} }}")
    lines.append("  start S0")
    lines.append("}")
    return "\n".join(lines) + "\n", successors


def admissible_stage_profile(rng: random.Random, successors: dict[str, dict[str, str]]) -> str:
    """A random profile document for a ``stage_graph`` whose play ends from
    every state.

    Choices are drawn at random; a state whose play runs into a cycle of
    chosen continue edges has the state closing the cycle switched to its
    exit, which breaks the cycle.
    """
    choice = {sid: rng.choice(("x", "m0", "m1")) for sid in successors}
    for sid in sorted(successors):
        seen = []
        current = sid
        while current is not None and current not in seen:
            seen.append(current)
            current = successors[current].get(choice[current])
        if current is not None:
            choice[seen[-1]] = "x"
    body = "".join(f"  {sid}: {choice[sid]}\n" for sid in sorted(choice))
    return "profile {\n" + body + "}\n"


def dollar_auction(stake: int) -> str:
    """The two-bidder dollar auction with prize ``stake`` and increment 1."""
    prize = stake - 1
    return (
        "pgraph dollar_auction {\n"
        "  state S0 = node A { pass -> T0, bid -> DB }\n"
        "  state T0 = leaf (A:0) (B:0)\n"
        "  state DB = node B { quit -> QB, raise -> DA @ k+1 }\n"
        f"  state QB = leaf (A:{prize} - 1*k) (B:0 - 1*k)\n"
        "  state DA = node A { quit -> QA, raise -> DB @ k+1 }\n"
        f"  state QA = leaf (A:0 - 1*k) (B:{prize} - 1*k)\n"
        "  start S0\n"
        "}\n"
    )


ZERO_ONE = (
    "graph zero_one {\n"
    "  state SA = node A { c -> SB, l -> TA }\n"
    "  state TA = leaf (A:0) (B:1)\n"
    "  state SB = node B { c -> SA, l -> TB }\n"
    "  state TB = leaf (A:1) (B:0)\n"
    "  start SA\n"
    "}\n"
)
