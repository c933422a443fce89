"""Span tracing for the benchmark's traced runs.

The tracer rebinds public functions of ``seqgames`` in the module
namespaces that call them, so no file of the program changes.  Each wrapped
call records a span (id, name, start, end, parent, task id).  Spans stay in
memory; the caller writes them out with ``dump`` when the run ends.  Work
counters are computed by hooks that run after the wrapped call returns;
their time is recorded as a ``trace.bookkeeping`` span, so it is
subtracted from the enclosing span's self time instead of being charged to
the program.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter
from typing import Callable

LAYERS = ("core", "finite", "graphs", "coinduction", "escalation", "truncation", "dsl", "cli")

BOOKKEEPING = "trace.bookkeeping"
TASK = "task"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counters: Counter[str] = Counter()
        self.task: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        """Run ``fn`` inside a span; then run ``after`` as bookkeeping."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.task))
        if after is not None:
            begin = time.perf_counter()
            after(self, args, result)
            self.spans.append((self._next_id, BOOKKEEPING, begin, time.perf_counter(), parent, self.task))
            self._next_id += 1
        return result

    def wrap(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after)

        return wrapper

    # --- rebinding ------------------------------------------------------

    def patch(self, modules: dict[str, object], targets) -> None:
        """Rebind each target in every ``seqgames`` module that holds it.

        ``targets`` lists (span name, defining module, attribute, scope,
        hook); a scope of None means every module of the package, else the
        tuple of module names whose bindings are replaced.
        """
        package = [mod for key, mod in sorted(sys.modules.items()) if key == "seqgames" or key.startswith("seqgames.")]
        for name, home, attr, scope, after in targets:
            original = getattr(modules[home], attr)
            wrapper = self.wrap(name, original, after)
            where = package if scope is None else [modules[m] for m in scope]
            for mod in where:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.task = None
        self._next_id = 0


# --- counters ---------------------------------------------------------------


def _edges(state) -> list[tuple[str, int]]:
    """(target, stage delta) for a decision state of either graph kind."""
    return [(edge[1], edge[2] if len(edge) == 3 else 0) for edge in getattr(state, "edges", ())]


def unfolding_shape(graph, depth: int) -> tuple[int, int]:
    """Positions in the depth-``depth`` unfolding of ``graph`` and the number
    of distinct (state, stage, remaining depth) triples among them."""
    memo: dict[tuple[str, int], int] = {}

    def positions(sid: str, remaining: int) -> int:
        key = (sid, remaining)
        if key not in memo:
            edges = _edges(graph.states[sid])
            if not edges or remaining == 0:
                memo[key] = 1
            else:
                memo[key] = 1 + sum(positions(t, remaining - 1) for t, _ in edges)
        return memo[key]

    seen = {(graph.start, 0, depth)}
    frontier = list(seen)
    while frontier:
        sid, stage, remaining = frontier.pop()
        if remaining == 0:
            continue
        for target, delta in _edges(graph.states[sid]):
            triple = (target, stage + delta, remaining - 1)
            if triple not in seen:
                seen.add(triple)
                frontier.append(triple)
    return positions(graph.start, depth), len(seen)


def _tree_objects(game) -> tuple[int, int]:
    """Distinct node objects reachable from ``game`` and the product of the
    branch counts of its decision nodes (its profile-space size)."""
    seen: set[int] = set()
    stack = [game]
    profiles = 1
    while stack:
        sub = stack.pop()
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        branches = getattr(sub, "branches", None)
        if branches is not None:
            profiles *= len(branches)
            stack.extend(child for _, child in branches)
    return len(seen), profiles


def _count_positions(tracer, args, result):
    tracer.counters["finite.positions_solved"] += _tree_objects(args[0])[0]


def _count_brute(tracer, args, result):
    tracer.counters["finite.profiles_checked"] += _tree_objects(args[0])[1]
    tracer.counters["finite.spe_found"] += len(result)


def _count_unfold(tracer, args, result):
    _, distinct = unfolding_shape(args[0], args[1])
    tracer.counters["graphs.unfold.nodes"] += _tree_objects(result)[0]
    tracer.counters["graphs.unfold.distinct"] += distinct


def _count_cross_check(tracer, args, result):
    graph, depth = args[0], args[4]
    nodes, distinct = unfolding_shape(graph, depth)
    tracer.counters["coinduction.cross_check.nodes"] += nodes
    tracer.counters["coinduction.cross_check.distinct"] += distinct


def _count_verdicts(tracer, args, result):
    for _, verdict in result:
        tracer.counters["coinduction.profiles"] += 1
        tracer.counters["coinduction.admissible"] += type(verdict).__name__ != "NotAdmissible"
        tracer.counters["coinduction.spe"] += bool(verdict.ok)


def _count_depths(tracer, args, result):
    tracer.counters["truncation.depths_solved"] += len(result.summaries)


def _count_parsed(tracer, args, result):
    tracer.counters["dsl.parse.bytes"] += len(args[0].encode("utf-8"))


def _count_serialized(tracer, args, result):
    tracer.counters["dsl.serialize.bytes"] += len(result.encode("utf-8"))


# (span name, defining module, attribute, rebinding scope, counter hook)
TARGETS = (
    ("core.check_profile_total", "core", "check_profile_total", None, None),
    ("finite.backward_induction", "finite", "backward_induction", None, _count_positions),
    ("finite.enumerate_spe_profiles", "finite", "enumerate_spe_profiles", None, None),
    ("finite.brute_force_spe", "finite", "brute_force_spe", None, _count_brute),
    ("finite.is_spe_finite", "finite", "is_spe_finite", None, None),
    ("graphs.validate", "graphs", "validate_graph", None, None),
    ("graphs.unfold", "graphs", "unfold", None, _count_unfold),
    ("graphs.unfold", "graphs", "unfold_param", None, _count_unfold),
    ("graphs.stage_reachability", "graphs", "StageReachability", None, None),
    ("coinduction.play", "coinduction", "play_graph", None, None),
    ("coinduction.play", "coinduction", "play_param", None, None),
    ("coinduction.check_spe_graph", "coinduction", "check_spe_graph", None, None),
    ("coinduction.check_spe_param", "coinduction", "check_spe_param", None, None),
    ("coinduction.cross_check", "coinduction", "_cross_check", None, _count_cross_check),
    ("coinduction.enumerate_stationary_spe", "coinduction", "enumerate_stationary_spe", None, _count_verdicts),
    ("escalation.reverify", "coinduction", "check_spe", ("escalation",), None),
    ("escalation.rationalizable_actions", "escalation", "rationalizable_actions", None, None),
    ("escalation.escalation_witness", "escalation", "escalation_witness", None, None),
    ("escalation.credible_threat_report", "escalation", "credible_threat_report", None, None),
    ("truncation.extrapolation_report", "truncation", "extrapolation_report", None, _count_depths),
    ("truncation.summarize_depth", "truncation", "summarize_depth", None, None),
    ("dsl.parse", "dsl", "parse", None, _count_parsed),
    ("dsl.serialize", "dsl", "serialize", None, _count_serialized),
    ("cli.main", "cli", "main", None, None),
)


def dump(path, spans) -> None:
    """Write spans as CSV rows."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,name,start,end,parent,task\n")
        for sid, name, start, end, parent, task in spans:
            out.write(f"{sid},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{'' if task is None else task}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    child_time: Counter[int] = Counter()
    names: dict[int, str] = {}
    for sid, name, start, end, parent, _ in tracer.spans:
        names[sid] = name
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    layer_time: Counter[str] = Counter()
    task_time = 0.0
    cross_check_is_spe = 0.0
    for sid, name, start, end, parent, task in tracer.spans:
        duration = end - start
        own = duration - child_time[sid]
        calls[name] += 1
        self_time[name] += own
        if task is not None:
            layer_time[name.split(".")[0]] += own
        if name == TASK:
            task_time += duration
        elif name == "finite.is_spe_finite" and parent is not None and names.get(parent) == "coinduction.cross_check":
            cross_check_is_spe += duration
    count = tracer.counters
    metrics: dict[str, float] = {}
    for name, *_ in TARGETS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_time[name]
    metrics.update(
        {
            "finite.profiles_checked": count["finite.profiles_checked"],
            "finite.spe_yield": _ratio(count["finite.spe_found"], count["finite.profiles_checked"]),
            "finite.positions_solved": count["finite.positions_solved"],
            "graphs.unfold.nodes": count["graphs.unfold.nodes"],
            "graphs.unfold.distinct": count["graphs.unfold.distinct"],
            "graphs.unfold.sharing_ratio": _ratio(count["graphs.unfold.distinct"], count["graphs.unfold.nodes"]),
            "coinduction.admissible_ratio": _ratio(count["coinduction.admissible"], count["coinduction.profiles"]),
            "coinduction.spe_yield": _ratio(count["coinduction.spe"], count["coinduction.profiles"]),
            "coinduction.cross_check.is_spe_finite_s": cross_check_is_spe,
            "coinduction.cross_check.nodes": count["coinduction.cross_check.nodes"],
            "coinduction.cross_check.distinct": count["coinduction.cross_check.distinct"],
            "truncation.depths_solved": count["truncation.depths_solved"],
            "dsl.parse.bytes": count["dsl.parse.bytes"],
            "dsl.serialize.bytes": count["dsl.serialize.bytes"],
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(layer_time[layer], task_time)
    return metrics
