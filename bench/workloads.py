"""The benchmark's workloads: seeded inputs, timed tasks and correctness gates.

A workload is built in two steps.  The workload function, called as
``WORKLOADS[name](rng, root, work)``, makes the seeded DSL documents (and
writes any files the CLI tasks read into ``work``); it runs before set-up
timing because it is the benchmark's own work.  The ``make_tasks(prog,
docs)`` it returns then turns the parsed documents into tasks.  Each task has a timed
call, a ``summary`` of its semantic result (plain data, no reprs, used for
the digest and for pass-to-pass determinism) and a ``check`` run after
timing that returns a failure message or None.

Task calls look program functions up through their modules at call time,
so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# Gate-only settings: brute-force oracles run on truncations whose profile
# space is at most this large, and stationary equilibria are re-checked on
# unfoldings of this depth.
BRUTE_FORCE_LIMIT = 256
GATE_DEPTH = 4

# unfold-solve: the cross-check depth of check_spe_param tasks.  The
# library default (20) is not feasible on 3-edge pgraphs; see README.md.
CROSS_CHECK_DEPTH = 9


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    summary: Callable[[object], object]
    check: Callable[[object], str | None]


@dataclass
class Inputs:
    texts: list[str]
    make_tasks: Callable[[object, list], list[Task]]


def _addr(address: tuple[str, ...]) -> str:
    return ".".join(address) if address else "."


def _payoffs(payoffs) -> dict[str, str]:
    return {p: str(v) for p, v in payoffs.items()}


def _tree_profile(profile) -> list[list[str]]:
    return [[_addr(a), profile[a]] for a in profile]


# --- finite-oracle ------------------------------------------------------------

FINITE_TASKS = 120
FINITE_MAX_EXPONENT = 10  # largest profile space about 2**10


def finite_oracle(rng, root: Path, work: Path) -> Inputs:
    texts = [gen.random_tree(rng, arities) for arities in gen.arity_ladder(FINITE_TASKS, FINITE_MAX_EXPONENT)]

    def make_tasks(prog, docs) -> list[Task]:
        def run(game):
            finite = prog.finite
            return (
                finite.backward_induction(game),
                finite.enumerate_spe_profiles(game),
                finite.brute_force_spe(game),
            )

        def summary(result):
            bi, enumerated, brute = result
            return {
                "count": bi.count,
                "payoff": _payoffs(bi.payoff),
                "representative": _tree_profile(bi.representative),
                "optimal": {_addr(a): list(acts) for a, acts in sorted(bi.optimal_actions.items())},
                "enumerated": len(enumerated),
                "spes": sorted(_tree_profile(p) for p in brute),
            }

        def check(result):
            bi, enumerated, brute = result
            if len(set(enumerated)) != len(enumerated):
                return "enumerate_spe_profiles returned duplicates"
            if set(enumerated) != brute:
                return "enumerate_spe_profiles and brute_force_spe disagree"
            if bi.count != len(brute):
                return f"backward_induction counts {bi.count}, brute force finds {len(brute)}"
            if bi.representative not in brute:
                return "representative is not an equilibrium"
            decision_nodes = set(bi.representative)
            if set(bi.optimal_actions) != decision_nodes:
                return "optimal actions do not cover the decision nodes"
            for address, actions in bi.optimal_actions.items():
                used = {p[address] for p in brute}
                if set(actions) != used:
                    return f"optimal actions at {_addr(address)} differ from those used by equilibria"
            return None

        return [Task("oracle", lambda g=game: run(g), summary, check) for game in docs]

    return Inputs(texts, make_tasks)


# --- unfold-solve -------------------------------------------------------------

# Task counts and depth ladders.  The deepest extrapolations, the largest
# CLI documents (about 57 KB at depth 160) and the cross-checks cost about
# the same, so the slowest tenth of the tasks, where task_p90_ms falls,
# mixes all three kinds.  Extrapolation cost grows with the cube of the
# depth: a 1..120 range alone would cost more than a quarter of a pass.
# Depth ranges start at 1..3 and end on the ladder.  Each parity needs two
# depths past depth 1 (where B has no move) before the zero_one verdict
# can settle on ParityDisagreement, hence the ladder starts at 6.
EXTRAPOLATIONS = 20  # per graph: zero_one and the dollar auction
EXTRAPOLATION_DEPTHS = (6, 36)
CLI_SPINES = 20
CLI_SPINE_DEPTHS = (10, 160)
CLI_BRANCHING = 20
CLI_BRANCHING_DEPTHS = (3, 7)
CROSS_CHECKS = 26
CROSS_CHECK_STATES = (2, 5)


def _ladder(count: int, bounds: tuple[int, int]) -> list[int]:
    """``count`` depths from ``low`` to ``high`` in geometric steps, so only
    the last few rungs are deep and the pass stays short."""
    low, high = bounds
    return [round(low * (high / low) ** (i / max(count - 1, 1))) for i in range(count)]


def unfold_solve(rng, root: Path, work: Path) -> Inputs:
    texts: list[str] = []
    plan: list[tuple] = []  # (kind, doc index, extra)

    zero_one = len(texts)
    texts.append(gen.ZERO_ONE)
    for high in _ladder(EXTRAPOLATIONS, EXTRAPOLATION_DEPTHS):
        plan.append(("extrapolate", zero_one, (rng.randint(1, 3), high)))
        texts.append(gen.dollar_auction(rng.randint(10, 200)))
        plan.append(("extrapolate", len(texts) - 1, (rng.randint(1, 3), high)))

    for i, depth in enumerate(_ladder(CLI_SPINES, CLI_SPINE_DEPTHS)):
        texts.append(gen.ZERO_ONE if i % 2 == 0 else gen.dollar_auction(rng.randint(10, 200)))
        plan.append(("cli", len(texts) - 1, depth))
    for depth in _ladder(CLI_BRANCHING, CLI_BRANCHING_DEPTHS):
        texts.append(gen.stage_graph(rng, rng.randint(*CROSS_CHECK_STATES))[0])
        plan.append(("cli", len(texts) - 1, depth))

    for _ in range(CROSS_CHECKS):
        text, successors = gen.stage_graph(rng, rng.randint(*CROSS_CHECK_STATES))
        texts.append(text)
        texts.append(gen.admissible_stage_profile(rng, successors))
        plan.append(("cross-check", len(texts) - 2, len(texts) - 1))

    paths: dict[int, tuple[str, str]] = {}
    for n, (kind, doc, _) in enumerate(plan):
        if kind == "cli":
            suffix = ".ggraph" if texts[doc].startswith("graph") else ".pgraph"
            source = work / f"in{n}{suffix}"
            source.write_text(texts[doc], encoding="utf-8")
            paths[n] = (str(source), str(work / f"out{n}.game"))

    def make_tasks(prog, docs) -> list[Task]:
        tasks = []
        for n, (kind, doc, extra) in enumerate(plan):
            graph = docs[doc]
            if kind == "extrapolate":
                tasks.append(_extrapolate_task(prog, graph, range(extra[0], extra[1] + 1)))
            elif kind == "cli":
                tasks.append(_cli_task(prog, graph, extra, *paths[n]))
            else:
                tasks.append(_cross_check_task(prog, graph, docs[extra].as_stationary()))
        return tasks

    return Inputs(texts, make_tasks)


def _brute_force_count(prog, tree) -> int | None:
    """Equilibrium count by exhaustive enumeration, when that is cheap."""
    if prog.finite.profile_space_size(tree) > BRUTE_FORCE_LIMIT:
        return None
    return len(prog.finite.brute_force_spe(tree))


def _extrapolate_task(prog, graph, depths) -> Task:
    def run():
        return prog.truncation.extrapolation_report(graph, depths, prog.truncation.DeciderQuitsClosure())

    def summary(report):
        return {
            "verdict": report.verdict.value,
            "depths": [
                [s.depth, s.count, {p: c.describe() for p, c in sorted(s.characterization.items())}, _payoffs(s.payoff)]
                for s in report.summaries
            ],
            "spes": [sorted(p.items()) for p in report.infinite_spes],
        }

    def check(report):
        if graph.name == "zero_one" and report.verdict.value != "ParityDisagreement":
            return f"zero_one extrapolation gives {report.verdict.value}"
        rule = prog.truncation.DeciderQuitsClosure()
        for s in report.summaries:
            expected = _brute_force_count(prog, prog.truncation.truncate(graph, s.depth, rule))
            if expected is not None and expected != s.count:
                return f"depth {s.depth}: count {s.count}, brute force finds {expected}"
        return None

    return Task("extrapolate", run, summary, check)


def _cli_task(prog, graph, depth: int, source: str, output: str) -> Task:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            truncated = prog.cli.main(["truncate", source, "--depth", str(depth), "--closure", "quit", "-o", output])
            solved = prog.cli.main(["solve", output, "--format", "json"])
        return truncated, solved, out.getvalue()

    def summary(result):
        truncated, solved, text = result
        payload = json.loads(text) if text else None
        if payload is not None:
            payload.pop("input", None)
        return {"exit": [truncated, solved], "solve": payload}

    def check(result):
        truncated, solved, text = result
        if (truncated, solved) != (0, 0):
            return f"exit codes {truncated}, {solved}"
        tree = prog.truncation.truncate(graph, depth, prog.truncation.DeciderQuitsClosure())
        document = prog.dsl.serialize(tree)
        if Path(output).read_text(encoding="utf-8") != document:
            return "truncate output differs from in-process serialize"
        if prog.dsl.parse(document) != tree:
            return "parse(serialize(t)) != t"
        bi = prog.finite.backward_induction(tree)
        expected = {
            "command": "solve",
            "input": output,
            "solver": "backward_induction",
            "equilibria": bi.count,
            "payoff": _payoffs(bi.payoff),
            "optimal_actions": {_addr(a): list(bi.optimal_actions[a]) for a in sorted(bi.optimal_actions)},
            "representative": {_addr(a): bi.representative[a] for a in bi.representative},
        }
        if json.loads(text) != expected:
            return "solve JSON differs from in-process backward_induction"
        brute = _brute_force_count(prog, tree)
        if brute is not None and brute != bi.count:
            return f"count {bi.count}, brute force finds {brute}"
        return None

    return Task("cli", run, summary, check)


def _verdict(verdict) -> list:
    kind = type(verdict).__name__
    if kind == "Refuted":
        return [kind, verdict.state, verdict.stage, verdict.player, verdict.action]
    if kind == "NotAdmissible":
        return [kind, verdict.state, list(verdict.cycle)]
    return [kind]


def _cross_check_task(prog, graph, profile) -> Task:
    def run():
        return prog.coinduction.check_spe_param(graph, profile, cross_check_depth=CROSS_CHECK_DEPTH)

    def check(verdict):
        kind = type(verdict).__name__
        if kind == "NotAdmissible":
            return "generated profile is not admissible"
        if kind == "SpeOk" and not prog.coinduction.concrete_unfolding_check(graph, profile, GATE_DEPTH).ok:
            return f"accepted, but the depth-{GATE_DEPTH} unfolding refutes it"
        return None

    return Task("cross-check", run, _verdict, check)


# --- stationary-enum ----------------------------------------------------------

# Decision states of the binary graphs with random chords, of the pure
# rings and of the small pgraphs (3 edges per state), one graph per entry.
# Every graph gets an enumerate task and an escalate task.  On a 6-state
# ring the escalate task costs about a fifth more than the enumerate task;
# on larger rings they cost about the same.  The counts put task_p50_ms in
# the middle of the 6-state rings' escalate tasks, away from the step down
# to their enumerate tasks, and task_p90_ms in the middle of the 8-state
# ring class.  Those classes are rings:
# chords decide how many profiles are admissible, which moves a graph's
# cost by a fifth or more from seed to seed, while a ring's cost hardly
# depends on the seed.  The largest graphs are rings of 10, 11 and 12
# states (1,024 to 4,096 profiles); they take more than half of a pass.
CHORDED_STATES = (3,) * 2 + (4,) * 3 + (5,) * 4 + (7,) * 8
RING_STATES = (6,) * 12 + (8,) * 8 + (10, 11, 12)
PARAM_STATES = (2,) * 2 + (3,) * 3 + (4,) * 3
PRESET_FILES = ("games/zero_one.ggraph", "games/dollar_auction_100.pgraph")


def stationary_enum(rng, root: Path, work: Path) -> Inputs:
    texts = [gen.binary_graph(rng, n, 0.3) for n in CHORDED_STATES]
    texts += [gen.binary_graph(rng, n, 0.0) for n in RING_STATES]
    texts += [gen.stage_graph(rng, n)[0] for n in PARAM_STATES]
    presets = len(texts)
    texts += [(root / name).read_text(encoding="utf-8") for name in PRESET_FILES]
    texts.append((root / "games/never_bid.profile").read_text(encoding="utf-8"))

    def make_tasks(prog, docs) -> list[Task]:
        tasks = []
        for graph in docs[:-1]:
            tasks.append(_enumerate_task(prog, graph))
            tasks.append(_escalate_task(prog, graph))
        _, auction, never_bid = docs[presets:]
        tasks[2 * presets].check = _preset_check(prog, "zero_one_graph", tasks[2 * presets].check)
        tasks[2 * presets + 2].check = _preset_check(
            prog, "dollar_auction", tasks[2 * presets + 2].check, (auction, never_bid.as_stationary())
        )
        return tasks

    return Inputs(texts, make_tasks)


def _enumerate_task(prog, graph) -> Task:
    def run():
        return prog.coinduction.enumerate_stationary_spe(graph)

    def summary(results):
        return [[sorted(p.items()), _verdict(v)] for p, v in results]

    def check(results):
        param = isinstance(graph, prog.graphs.ParamGraph)
        for profile, verdict in results:
            if not verdict.ok:
                continue
            if param:
                if not prog.coinduction.concrete_unfolding_check(graph, profile, GATE_DEPTH).ok:
                    return f"{dict(profile)} accepted, but the depth-{GATE_DEPTH} unfolding refutes it"
                continue
            closure = prog.coinduction.stationary_closure(graph, profile)
            tree = prog.graphs.unfold(graph, GATE_DEPTH, closure)
            induced = prog.coinduction.induced_tree_profile(graph, profile, GATE_DEPTH)
            if not prog.finite.is_spe_finite(tree, induced).ok:
                return f"{dict(profile)} accepted, but the depth-{GATE_DEPTH} unfolding refutes it"
        return None

    return Task("enumerate", run, summary, check)


def _escalate_task(prog, graph) -> Task:
    def run():
        coinduction, escalation = prog.coinduction, prog.escalation
        results = coinduction.enumerate_stationary_spe(graph)
        spes = [profile for profile, verdict in results if verdict.ok]
        if not spes:
            return spes, None, None, None
        rmap = escalation.rationalizable_actions(graph, spes)
        return spes, rmap, escalation.escalation_witness(graph, rmap), escalation.credible_threat_report(graph, spes)

    def summary(result):
        spes, rmap, witness, threat = result
        if rmap is None:
            return {"spes": []}
        steps = lambda seq: [[s.state, s.action, s.spe_id] for s in seq]  # noqa: E731
        return {
            "spes": [sorted(p.items()) for p in spes],
            "rationalizable": {sid: {a: list(t) for a, t in acts.items()} for sid, acts in sorted(rmap.actions.items())},
            "witness": None if witness is None else [steps(witness.prefix), steps(witness.cycle)],
            "threat_rows": len(threat.rows),
            "mutually_non_credible": list(threat.mutually_non_credible),
        }

    def check(result):
        spes, rmap, witness, _ = result
        if rmap is None:
            return None
        edges = {sid: {e[0]: e[1] for e in graph.states[sid].edges} for sid in graph.internal_ids()}
        expected = {
            sid: {a: tuple(i for i, p in enumerate(spes, 1) if p[sid] == a) for a in acts if any(p[sid] == a for p in spes)}
            for sid, acts in edges.items()
        }
        if {sid: dict(acts) for sid, acts in rmap.actions.items()} != expected:
            return "rationalizable actions differ from the union of the equilibria's choices"
        rational = {sid: [t for a, t in acts.items() if a in expected[sid] and t in edges] for sid, acts in edges.items()}
        if witness is None:
            return "no witness, but a rationalizable cycle is reachable" if _has_cycle(rational, graph.start) else None
        steps = witness.prefix + witness.cycle
        if not witness.cycle or steps[0].state != graph.start:
            return "witness does not start at the start state"
        for here, there in zip(steps, steps[1:] + witness.cycle[:1]):
            if here.action not in expected[here.state] or edges[here.state][here.action] != there.state:
                return f"witness step {here.state}({here.action}) is not a rationalizable edge"
        return None

    return Task("escalate", run, summary, check)


def _has_cycle(successors: dict[str, list[str]], start: str) -> bool:
    """Whether a cycle is reachable from ``start`` (iterative three-colour DFS)."""
    colour: dict[str, int] = {}
    stack = [(start, iter(successors.get(start, ())))]
    colour[start] = 1
    while stack:
        sid, children = stack[-1]
        child = next(children, None)
        if child is None:
            colour[sid] = 2
            stack.pop()
        elif colour.get(child) == 1:
            return True
        elif child not in colour:
            colour[child] = 1
            stack.append((child, iter(successors.get(child, ()))))
    return False


def _preset_check(prog, name: str, inner, never_bid=None):
    """Wrap an enumerate task's check with the results ``gallery.PRESETS``
    lists for the shipped document of preset ``name``."""
    expected = prog.gallery.PRESETS[name].expected

    def check(results):
        message = inner(results)
        if message is not None:
            return message
        by_kind: dict[str, set] = {}
        for profile, verdict in results:
            by_kind.setdefault(type(verdict).__name__, set()).add(tuple(sorted(profile.items())))
        for key, kind in (("stationary_spes", "SpeOk"), ("not_admissible", "NotAdmissible"), ("refuted", "Refuted")):
            if key in expected:
                wanted = {tuple(sorted(p.items())) for p in expected[key]}
                if by_kind.get(kind, set()) != wanted:
                    return f"{name}: {key} differ from gallery.PRESETS"
        if never_bid is not None:
            graph, profile = never_bid
            verdict = prog.coinduction.check_spe(graph, profile)
            if getattr(verdict, "state", None) != expected["never_bid_refuted_at"] or verdict.gain != expected[
                "never_bid_gain_at_stake_100"
            ]:
                return f"{name}: never_bid is not refuted as gallery.PRESETS lists"
        return None

    return check


WORKLOADS = {
    "finite-oracle": finite_oracle,
    "unfold-solve": unfold_solve,
    "stationary-enum": stationary_enum,
}
