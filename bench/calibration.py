"""Machine-speed calibration for the benchmark's timings.

The benchmark was built on a shared virtual machine whose speed drifts by a
factor of 1.4 to 1.7 over seconds to minutes.  A fixed pure-Python kernel,
independent of ``seqgames``, is timed between tasks; every timing is divided
by the kernel's time next to it and multiplied by ``REFERENCE_S``.  Timings
are therefore reported in seconds of a reference machine on which one round
of the kernel takes ``REFERENCE_S``: a change to the program moves them, a
change of the machine's speed does not.

The kernel is backward induction over a fixed 2-player tree of nested
dicts: function calls, dict iteration, tuple building and comparisons, the
operations the engine's own code spends its time on.  It must never change,
or figures from before and after the change stop being comparable.
"""

from __future__ import annotations

import gc
import random
import time

# One round of the kernel on the reference machine: the 2-vCPU virtual
# machine (CPython 3.11.7) on which results/BENCH_0.json was recorded, in
# its fast mode.
REFERENCE_S = 0.005


def _tree(rng: random.Random, depth: int):
    if depth == 0:
        return (rng.randrange(10), rng.randrange(10))
    return {f"a{i}": _tree(rng, depth - 1) for i in range(rng.choice((2, 3)))}


_TREE = _tree(random.Random(7), 9)


def _solve(node, player: int):
    """(payoff pair, number of optimal plays) of ``node`` with ``player`` to move."""
    if isinstance(node, tuple):
        return node, 1
    options = []
    for action, child in node.items():
        value, count = _solve(child, 1 - player)
        options.append((value[player], action, value, count))
    top = max(option[0] for option in options)
    best, total = None, 0
    for score, _, value, count in options:
        if score == top:
            total += count
            best = value if best is None else best
    return best, total


def calibrate() -> float:
    """Seconds one round of the kernel takes now.  The cyclic garbage
    collector is off meanwhile, so the size of the program's heap does not
    leak into the figure."""
    gc.disable()
    try:
        start = time.perf_counter()
        _solve(_TREE, 0)
        return time.perf_counter() - start
    finally:
        gc.enable()
