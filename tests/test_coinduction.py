import itertools
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from seqgames import coinduction
from seqgames.cli import main
from seqgames.core import CapExceededError, GameError, PayoffVector, ProfileError
from seqgames.coinduction import (
    DEFAULT_STATIONARY_CAP,
    Converges,
    CrossCheckError,
    Diverges,
    NotAdmissible,
    Refuted,
    SpeOk,
    StationaryProfile,
    check_spe,
    check_spe_graph,
    check_spe_param,
    concrete_unfolding_check,
    enumerate_stationary_spe,
    induced_tree_profile,
    play_graph,
    play_param,
    stationary_closure,
    stationary_profiles,
)
from seqgames.dsl import parse
from seqgames.finite import Counterexample, SpeCheck, _Tree, is_spe_finite
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    Decision,
    GameGraph,
    ParamGraph,
    StageReachability,
    Terminal,
    dollar_auction,
    unfold,
    validate_graph,
    zero_one_graph,
)
from tests import reference
from tests.conftest import random_game_graph, random_param_graph, random_ring_graph
from tests.test_cli import stage_chain

ALICE_LEAVES = StationaryProfile(SA="l", SB="c")
BOB_LEAVES = StationaryProfile(SA="c", SB="l")
BOTH_LEAVE = StationaryProfile(SA="l", SB="l")
BOTH_CONTINUE = StationaryProfile(SA="c", SB="c")

ALICE_RAISES = StationaryProfile(S0="bid", DA="raise", DB="quit")
BOB_RAISES = StationaryProfile(S0="pass", DA="quit", DB="raise")
NEVER_BID = StationaryProfile(S0="pass", DA="quit", DB="quit")


def test_play_graph_convergence():
    g = zero_one_graph()
    result = play_graph(g, ALICE_LEAVES, "SA")
    assert result == Converges(PayoffVector(A=0, B=1), steps=1)
    result = play_graph(g, BOB_LEAVES, "SB")
    assert result == Converges(PayoffVector(A=1, B=0), steps=1)


def test_play_graph_divergence_reports_cycle():
    result = play_graph(zero_one_graph(), BOTH_CONTINUE, "SA")
    assert result == Diverges(("SA", "SB"))


def test_play_graph_requires_total_profile():
    with pytest.raises(ProfileError):
        play_graph(zero_one_graph(), StationaryProfile(SA="c"), "SA")


def test_check_spe_graph_zero_one():
    g = zero_one_graph()
    assert check_spe_graph(g, ALICE_LEAVES) == SpeOk()
    assert check_spe_graph(g, BOB_LEAVES) == SpeOk()
    verdict = check_spe_graph(g, BOTH_LEAVE)
    assert isinstance(verdict, Refuted)
    assert (verdict.state, verdict.action, verdict.player) == ("SA", "c", "A")
    assert verdict.gain == 1
    verdict = check_spe_graph(g, BOTH_CONTINUE)
    assert isinstance(verdict, NotAdmissible)


def test_enumerate_stationary_zero_one():
    results = enumerate_stationary_spe(zero_one_graph())
    assert len(results) == 4
    spes = [p for p, v in results if v.ok]
    assert spes == [BOB_LEAVES, ALICE_LEAVES]  # lexicographic profile order
    by_profile = dict(results)
    assert isinstance(by_profile[BOTH_CONTINUE], NotAdmissible)
    assert isinstance(by_profile[BOTH_LEAVE], Refuted)


def test_enumerate_single_terminal_graph():
    g = GameGraph(name="t", states={"T": Terminal(PayoffVector(A=1, B=1))}, start="T")
    results = enumerate_stationary_spe(g)
    assert len(results) == 1
    profile, verdict = results[0]
    assert len(profile) == 0 and verdict.ok


def test_refutation_witness_revalidates():
    g = zero_one_graph()
    verdict = check_spe_graph(g, BOTH_LEAVE)
    assert isinstance(verdict, Refuted)
    # Replay the deviation: one-shot at the reported state.
    deviant = dict(BOTH_LEAVE)
    deviant[verdict.state] = verdict.action
    # take the deviating edge once, then follow the original profile
    state = g.states[verdict.state]
    target = {action: target for action, target, _ in state.edges}[verdict.action]
    after = play_graph(g, BOTH_LEAVE, target)
    assert isinstance(after, Converges)
    assert after.payoffs == verdict.deviation_payoffs
    assert after.payoffs[verdict.player] > verdict.profile_payoffs[verdict.player]


def least_violation(a, b):
    """The least k >= 0 with a(k) > b(k), or None: the low end of the
    checker's violation interval on the two expressions' scaled int pairs."""
    interval = coinduction._violation_interval(*coinduction._scaled([a, b]))
    return None if interval is None else interval[0]


def test_affine_leq_all_cases():
    assert least_violation(AffineExpr(0, -1), AffineExpr(98, -1)) is None
    assert least_violation(AffineExpr(0, 1), AffineExpr(5, 0)) == 6
    expr = AffineExpr(Fraction(3, 2), Fraction(-1, 3))
    assert least_violation(expr, expr) is None
    assert least_violation(AffineExpr(1, 0), AffineExpr(0, 0)) == 0
    assert least_violation(AffineExpr(0, 0), AffineExpr(99, -1)) == 100


def test_affine_leq_all_matches_pointwise():
    rng = random.Random(8)
    for _ in range(300):
        a = AffineExpr(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        b = AffineExpr(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        failure = least_violation(a, b)
        pointwise = [k for k in range(1001) if a.at(k) > b.at(k)]
        if failure is None:
            assert not pointwise
        elif failure <= 1000:
            assert pointwise and pointwise[0] == failure
        else:
            assert not pointwise


def _rational_payoffs(rng, graph):
    """``graph`` with every terminal payoff redrawn: intercepts and slopes
    with denominators 1..7, negative slopes included.  About half of a
    player's payoffs pass through one point (k0, c) with k0 a natural, so
    they cross each other exactly on an integer stage."""
    anchors = {
        p: (rng.randint(0, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 7))) for p in "AB"
    }
    states = dict(graph.states)
    for sid, state in graph.states.items():
        if not isinstance(state, Terminal):
            continue
        payoffs = {}
        for p, (k0, c) in anchors.items():
            slope = Fraction(rng.randint(-4, 4), rng.randint(1, 7))
            if rng.random() < 0.5:
                intercept = c - slope * k0
            else:
                intercept = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            payoffs[p] = AffineExpr(intercept, slope)
        states[sid] = Terminal(AffinePayoffs(payoffs))
    return ParamGraph(name=graph.name, states=states, start=graph.start)


def test_integer_stage_test_matches_fraction_oracle(monkeypatch):
    # The checker compares affine payoffs as scaled int pairs and evaluates
    # them with ints; the oracle does both with Fraction arithmetic on the
    # expressions' fields.  Every one-shot deviation of every admissible
    # profile is compared, then each profile's verdict.  Ranked graphs keep
    # most profiles admissible, so each graph yields about eight stage tests.
    crossings = []

    def recording(a, b):
        slope = a.slope - b.slope
        if slope and (b.intercept - a.intercept) / slope >= 0:
            crossings.append(((b.intercept - a.intercept) / slope).denominator == 1)
        return violation_interval(a, b)

    violation_interval = reference.violation_interval
    monkeypatch.setattr(reference, "violation_interval", recording)
    rng = random.Random(1818)
    kinds = Counter()
    for _ in range(300):
        graph = _rational_payoffs(rng, random_param_graph(rng, max_internal=4, ranked=True))
        checker = coinduction._ProfileChecker(graph)
        for profile, verdict in enumerate_stationary_spe(graph):
            expected = reference.staged_deviations(graph, profile)
            if expected is None:
                assert isinstance(verdict, NotAdmissible)
                continue
            picks = checker.picks(profile)
            end, shift = checker.play(picks)
            tested = [
                checker._deviation(e, end, shift)
                for e, (i, j, _, _) in enumerate(checker.edges)
                if j != picks[i]
            ]
            assert tested == expected
            kinds.update(type(v).__name__ for v in tested)
            assert verdict == next((v for v in expected if v is not None), SpeOk())
    assert min(kinds.values()) > 400, kinds
    assert sum(crossings) > 60, len(crossings)  # exactly on an integer stage


def test_play_param_affine_results():
    d = dollar_auction(100)
    result = play_param(d, ALICE_RAISES, "DA")
    assert isinstance(result, Converges)
    assert result.payoffs["A"] == AffineExpr(98, -1)  # v - (k+2)
    assert result.payoffs["B"] == AffineExpr(-1, -1)
    result = play_param(d, ALICE_RAISES, "DB")
    assert result.payoffs["B"] == AffineExpr(0, -1)
    assert result.steps == 1
    result = play_param(d, StationaryProfile(S0="bid", DA="raise", DB="raise"), "DA")
    assert result == Diverges(("DA", "DB"))


def test_check_spe_param_dollar_auction():
    d = dollar_auction(100)
    assert check_spe_param(d, ALICE_RAISES) == SpeOk()
    assert check_spe_param(d, BOB_RAISES) == SpeOk()
    verdict = check_spe_param(d, NEVER_BID)
    assert isinstance(verdict, Refuted)
    assert (verdict.state, verdict.stage, verdict.action) == ("S0", 0, "bid")
    assert verdict.deviation_payoffs["A"] == 99
    assert verdict.profile_payoffs["A"] == 0


def test_check_spe_param_ignores_unreachable_stages():
    # The opening state is only ever entered at stage 0.  Requiring its
    # deviation inequality at every stage would wrongly refute the
    # always-raise profile once 99 - k turns negative.
    d = dollar_auction(100)
    values_pass = AffineExpr(0, 0)
    values_bid = AffineExpr(99, -1)
    assert least_violation(values_pass, values_bid) == 100  # naive all-k check fails
    assert check_spe_param(d, ALICE_RAISES, cross_check_depth=None) == SpeOk()


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "call",
    [
        "concrete_unfolding_check(auction, alice_raises, -1)",
        "check_spe_param(auction, alice_raises, cross_check_depth=-1)",
        # Play diverges: the depth is refused before the profile is checked.
        "check_spe_param(auction, StationaryProfile(S0='bid', DA='raise', DB='raise'), -1)",
        "induced_tree_profile(auction, alice_raises, -1)",
        "unfold(auction, -1, {})",
        "unfold_param(auction, -1, lambda sid, stage: None)",
        "truncate(auction, -1, parse_closure_spec('quit'))",
        "summarize_depth(auction, -1, parse_closure_spec('quit'))",
    ],
)
def test_negative_depths_are_refused(call):
    # A walk that never reaches depth -1 runs until it exhausts memory, so
    # the call runs in a child with a timeout and a bounded address space.
    script = textwrap.dedent(
        f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
        from seqgames.coinduction import *
        from seqgames.graphs import dollar_auction, unfold, unfold_param
        from seqgames.truncation import parse_closure_spec, summarize_depth, truncate
        auction = dollar_auction(10)
        alice_raises = StationaryProfile(S0="bid", DA="raise", DB="quit")
        try:
            {call}
        except ValueError as error:
            print(error)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "", "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "depth must be >= 0\n", "")


def totality_graph():
    """Decision states Z and B, defined in that order, and terminal T."""
    return GameGraph(
        name="order",
        states={
            "Z": Decision("A", (("a", "T", 0), ("b", "B", 0))),
            "B": Decision("B", (("a", "T", 0), ("b", "Z", 0))),
            "T": Terminal(PayoffVector(A=0, B=0)),
        },
        start="Z",
    )


@pytest.mark.parametrize(
    "choices, message",
    [
        ({"T": "a", "Q": "a"}, "profile not total: no choice at state 'B'"),
        ({"B": "x", "T": "a"}, "profile not total: no choice at state 'Z'"),
        ({"Z": "x", "B": "x", "T": "a", "Q": "a"}, "profile has a choice at non-decision state 'Q'"),
        ({"Z": "x", "B": "y"}, "profile chooses unknown action 'y' at state 'B'"),
        ({"Z": "x", "B": "a"}, "profile chooses unknown action 'x' at state 'Z'"),
    ],
)
def test_stationary_totality_faults_are_reported_in_order(choices, message):
    # A missing state first, then a choice at a non-decision state, then an
    # unknown action: each the first by state id, not in definition order.
    graph, profile = totality_graph(), StationaryProfile(choices)
    for call in (lambda: check_spe_graph(graph, profile), lambda: induced_tree_profile(graph, profile, 3)):
        with pytest.raises(ProfileError) as raised:
            call()
        assert str(raised.value) == message


def test_check_spe_param_agrees_with_concrete_unfolding():
    d = dollar_auction(100)
    for depth in (5, 10, 20):
        for profile in stationary_profiles(d):
            verdict = check_spe_param(d, profile, cross_check_depth=depth)
            if isinstance(verdict, NotAdmissible):
                with pytest.raises(GameError):
                    concrete_unfolding_check(d, profile, depth)
                continue
            concrete = concrete_unfolding_check(d, profile, depth)
            if verdict.ok:
                assert concrete.ok
            else:
                assert not concrete.ok


def test_enumerate_dollar_auction_spes():
    results = enumerate_stationary_spe(dollar_auction(100))
    spes = [p for p, v in results if v.ok]
    assert spes == [BOB_RAISES, ALICE_RAISES]


def test_soundness_versus_unfolding_zero_one():
    g = zero_one_graph()
    for profile in (ALICE_LEAVES, BOB_LEAVES):
        closure = stationary_closure(g, profile)
        for depth in range(1, 13):
            tree = unfold(g, depth, closure)
            induced = induced_tree_profile(g, profile, depth)
            assert is_spe_finite(tree, induced).ok, (profile, depth)


def test_soundness_versus_unfolding_random_graphs():
    rng = random.Random(606)
    checked = 0
    for _ in range(60):
        g = random_game_graph(rng)
        if not validate_graph(g).ok:
            continue
        for profile, verdict in enumerate_stationary_spe(g):
            if not verdict.ok:
                continue
            closure = stationary_closure(g, profile)
            for depth in (1, 3, 6, 9, 12):
                tree = unfold(g, depth, closure)
                induced = induced_tree_profile(g, profile, depth)
                assert is_spe_finite(tree, induced).ok
                checked += 1
    assert checked > 50


def test_determinism_of_verdicts():
    d = dollar_auction(100)
    first = [ (p, v) for p, v in enumerate_stationary_spe(d)]
    second = [ (p, v) for p, v in enumerate_stationary_spe(d)]
    assert first == second
    g = zero_one_graph()
    assert enumerate_stationary_spe(g) == enumerate_stationary_spe(g)


def profitable_deviations(graph, profile, player):
    """Oracle: every (changes, state) where switching ``player``'s choices at
    one or more of its states, and keeping the switch at every visit, pays
    from that decision state.  On a parametrized graph it must pay at a
    stage the state is entered with.  Plays that diverge carry no payoff."""
    checker = coinduction._ProfileChecker(graph)
    picks = checker.picks(profile)
    values = checker.values(picks)
    param = isinstance(graph, ParamGraph)
    reach = checker.reach if param else None
    decisions = checker.ids[: len(checker.movers)]
    own = [i for i, mover in enumerate(checker.movers) if mover == player]
    options = [range(len(checker.labels[i])) for i in own]
    found = []
    for combo in itertools.product(*options):
        changes = tuple(
            (decisions[i], checker.labels[i][j]) for i, j in zip(own, combo) if j != picks[i]
        )
        if not changes:
            continue
        deviant = list(picks)
        for i, j in zip(own, combo):
            deviant[i] = j
        after = checker.values(deviant)
        for sid in decisions:
            if param and reach.least_at_least(sid, 0) is None:
                continue
            if isinstance(after, NotAdmissible):
                labels = [checker.labels[i][j] for i, j in enumerate(deviant)]
                result = play_graph(graph, StationaryProfile(zip(decisions, labels)), sid)
                if isinstance(result, Diverges):
                    continue
                deviation = result.payoffs[player]
            else:
                deviation = after[sid][player]
            current = values[sid][player]
            if not param:
                pays = deviation > current
            else:
                witness = reference.least_reachable_violation(reach, sid, deviation, current)
                pays = witness is not None
            if pays:
                found.append((changes, sid))
    return found


def test_accepted_profiles_admit_no_profitable_stationary_deviation():
    # One-shot deviation principle: on an admissible stationary profile, a
    # deviation by one player at several states either loops forever (no
    # payoff) or reaches a terminal in finitely many steps, where induction
    # back along the play finds a profitable one-shot deviation.
    rng = random.Random(909)
    graphs = [zero_one_graph(), dollar_auction(100)]
    graphs += [random_game_graph(rng, max_internal=4) for _ in range(150)]
    graphs += [random_param_graph(rng, max_internal=4) for _ in range(150)]
    outcomes: Counter = Counter()
    for graph in graphs:
        movers = sorted({graph.states[sid].mover for sid in graph.internal_ids()})
        for profile, verdict in enumerate_stationary_spe(graph):
            if isinstance(verdict, NotAdmissible):
                continue
            found = {p: profitable_deviations(graph, profile, p) for p in movers}
            if isinstance(verdict, SpeOk):
                assert not any(found.values()), (graph, profile, found)
            outcomes[type(verdict).__name__, any(found.values())] += 1
    assert outcomes["SpeOk", False] >= 100, outcomes
    assert outcomes["Refuted", True] >= 30, outcomes
    zero_one = profitable_deviations(zero_one_graph(), BOTH_LEAVE, "A")
    assert any(sid == "SA" for _, sid in zero_one), zero_one


def replay_verdict(graph, profile):
    """Oracle for the memoized value pass: play replayed from every decision
    state, then each one-shot deviation in state and branch order, with the
    witness stage found by scanning stages one by one."""
    param = isinstance(graph, ParamGraph)
    play = play_param if param else play_graph
    values = {}
    for sid, state in graph.states.items():
        if isinstance(state, Terminal):
            values[sid] = state.payoffs
            continue
        result = play(graph, profile, sid)
        if isinstance(result, Diverges):
            return NotAdmissible(sid, result.cycle)
        values[sid] = result.payoffs
    reach = StageReachability(graph) if param else None
    for sid, state in graph.states.items():
        if isinstance(state, Terminal):
            continue
        mover, current = state.mover, values[sid]
        for action, target, delta in state.edges:
            if action == profile[sid]:
                continue
            deviation = values[target]
            if not param:
                if deviation[mover] > current[mover]:
                    return Refuted(sid, None, mover, action, current, deviation)
                continue
            deviation = deviation.shifted(delta)
            # Past every stage layer, one period further, and every crossing
            # of the generator's payoffs (intercepts within 3 + 5 of zero,
            # slopes at least 1/2 apart).
            for k in range(len(reach.layers) + (reach.period or 0) + 64):
                if reach.least_at_least(sid, k) == k and deviation[mover].at(k) > current[mover].at(k):
                    return Refuted(
                        sid, k, mover, action, current.at_stage(k), deviation.at_stage(k)
                    )
    return SpeOk()


def ties_another_alternative(graph, profile, verdict):
    """Whether, at the refuted state, some edge other than the chosen one
    and the deviation pays the mover exactly what the profile does."""
    sid, mover = verdict.state, verdict.player
    for action, target, _ in graph.states[sid].edges:
        if action in (profile[sid], verdict.action):
            continue
        state = graph.states[target]
        value = state.payoffs if isinstance(state, Terminal) else play_graph(graph, profile, target).payoffs
        if value[mover] == verdict.profile_payoffs[mover]:
            return True
    return False


def test_enumeration_matches_replay_at_benchmark_scale():
    # The compiled checker against the per-state replay oracle, compared as
    # whole lists so that the order counts too: 100 rings of 5 to 12 states
    # with payoffs 0..2, and 40 small pgraphs.
    rng = random.Random(1111)
    sizes = [5] * 30 + [6] * 25 + [7] * 20 + [8] * 12 + [9] * 7 + [10] * 3 + [11] * 2 + [12]
    graphs = [random_ring_graph(rng, n) for n in sizes]
    graphs += [random_param_graph(rng, max_internal=5) for _ in range(40)]
    seen: Counter = Counter()
    for graph in graphs:
        results = enumerate_stationary_spe(graph)
        assert results == [(p, replay_verdict(graph, p)) for p in stationary_profiles(graph)], graph
        param = isinstance(graph, ParamGraph)
        for profile, verdict in results:
            seen[param, type(verdict).__name__] += 1
            if not param and isinstance(verdict, Refuted):
                seen["refuted beside a tie"] += ties_another_alternative(graph, profile, verdict)
    floors = {
        (False, "SpeOk"): 500, (False, "NotAdmissible"): 2000, (False, "Refuted"): 10000,
        (True, "SpeOk"): 10, (True, "NotAdmissible"): 10, (True, "Refuted"): 10,
        "refuted beside a tie": 1000,
    }
    for key, floor in floors.items():
        assert seen[key] >= floor, (key, seen)


def ring_graph(n):
    """``n`` decision states in a ring, movers alternating; each continues
    to the next or leaves to a terminal of its own."""
    states = {}
    for i in range(n):
        states[f"S{i}"] = Decision("AB"[i % 2], (("c", f"S{(i + 1) % n}", 0), ("l", f"T{i}", 0)))
        states[f"T{i}"] = Terminal(PayoffVector(A=5 * i % 4, B=(3 * i + 1) % 4))
    return GameGraph(name="ring", states=states, start="S0")


def test_enumeration_exactly_at_the_cap():
    # Every verdict kind, refutation site and equilibrium of the 2^16 profiles, pinned.
    results = enumerate_stationary_spe(ring_graph(16))
    assert len(results) == DEFAULT_STATIONARY_CAP == 2**16
    assert Counter(type(v).__name__ for _, v in results) == {
        "Refuted": 65505, "SpeOk": 30, "NotAdmissible": 1,
    }
    refutations = Counter((v.state, v.action) for _, v in results if isinstance(v, Refuted))
    assert refutations == {
        ("S0", "c"): 30583, ("S1", "c"): 15291, ("S2", "l"): 6554, ("S2", "c"): 4369,
        ("S3", "c"): 546, ("S3", "l"): 3276, ("S4", "c"): 1912, ("S5", "c"): 956,
        ("S6", "c"): 546, ("S6", "l"): 408, ("S7", "l"): 408, ("S7", "c"): 68,
        ("S8", "c"): 240, ("S9", "c"): 120, ("S10", "l"): 48, ("S10", "c"): 68,
        ("S11", "c"): 8, ("S11", "l"): 48, ("S12", "c"): 32, ("S13", "c"): 16,
        ("S14", "c"): 8,
    }
    ring = tuple(f"S{i}" for i in range(16))
    assert [v for _, v in results if isinstance(v, NotAdmissible)] == [NotAdmissible("S0", ring)]
    accepted = ["".join(p[sid] for sid in ring) for p, v in results if v.ok]
    assert accepted == [
        "ccccccclcccccccc", "cccccclccccccccc", "ccclcccccccccccc", "ccclccclcccccccc",
        "cclccccccccccccc", "cclccclccccccccc", "cccccccccccccccl", "ccccccclcccccccl",
        "ccclcccccccccccl", "ccclccclcccccccl", "cccccccccccccclc", "cccccclccccccclc",
        "cclccccccccccclc", "cclccclccccccclc", "ccccccccccclcccc", "ccccccclccclcccc",
        "ccclccccccclcccc", "ccclccclccclcccc", "ccccccccccclcccl", "ccccccclccclcccl",
        "ccclccccccclcccl", "ccclccclccclcccl", "cccccccccclccccc", "cccccclccclccccc",
        "cclccccccclccccc", "cclccclccclccccc", "cccccccccclccclc", "cccccclccclccclc",
        "cclccccccclccclc", "cclccclccclccclc",
    ]
    with pytest.raises(CapExceededError, match="131072 exceeds cap 65536"):
        enumerate_stationary_spe(ring_graph(17))


def chain_graph(rng, n, plain=True):
    """``n`` decision states listed in numeric order S0, S1, ..., so that
    sorted-id order (S0, S1, S10, ..., S2, ...) differs from definition
    order once n > 10.  Each state continues to the next and exits to a
    terminal of its own; some add a chord to a random state, itself
    included, so chosen continues build long chains of states waiting on
    states assigned later."""
    states = {}
    for i in range(n):
        edges = [("c", f"S{(i + 1) % n}"), ("l", f"T{i}")]
        if rng.random() < 0.3:
            edges.append(("k", f"S{rng.randrange(n)}"))
        rng.shuffle(edges)
        deltas = [0 if plain else rng.randint(0, 1) for _ in edges]
        states[f"S{i}"] = Decision(
            rng.choice("AB"), tuple((a, t, d) for (a, t), d in zip(edges, deltas))
        )
    for i in range(n):
        if plain:
            states[f"T{i}"] = Terminal(PayoffVector(A=rng.randint(0, 2), B=rng.randint(0, 2)))
        else:
            slope = Fraction(rng.choice((-1, 0, 1)), rng.choice((1, 2)))
            states[f"T{i}"] = Terminal(AffinePayoffs(
                {p: AffineExpr(rng.randint(-3, 3), slope if p == "A" else -slope) for p in "AB"}
            ))
    kind = GameGraph if plain else ParamGraph
    return kind(name="chain", states=states, start=f"S{rng.randrange(n)}")


def test_walk_matches_replay_in_output_order():
    # The depth-first walk against the per-state replay oracle, compared as
    # whole lists so that the order counts too, on inputs that stress its
    # bookkeeping: definition order unlike sorted-id order, chords and
    # self-loops that leave states waiting through many levels, pgraphs
    # with unreachable states (each admissible profile's verdict
    # cross-checked at depth 5) and graphs with no decision state at all.
    rng = random.Random(1414)
    graphs = [chain_graph(rng, n) for n in (11, 11, 12)]
    graphs += [chain_graph(rng, n) for n in [3, 4, 5, 6, 7] * 6]
    graphs += [chain_graph(rng, n, plain=False) for n in [2, 3, 4, 5, 6, 7] * 4]
    graphs += [random_param_graph(rng, max_internal=5) for _ in range(100)]
    alone = {"T": Terminal(PayoffVector(A=1, B=1))}
    graphs.append(GameGraph(name="t", states=alone, start="T"))
    staged = {"T": Terminal(AffinePayoffs({"A": AffineExpr(1, 1), "B": AffineExpr(0, -1)}))}
    graphs.append(ParamGraph(name="t", states=staged, start="T"))
    seen: Counter = Counter()
    for graph in graphs:
        results = enumerate_stationary_spe(graph)
        assert results == [(p, replay_verdict(graph, p)) for p in stationary_profiles(graph)], graph
        param = isinstance(graph, ParamGraph)
        reach = StageReachability(graph) if param else None
        for profile, verdict in results:
            seen[param, type(verdict).__name__] += 1
            if param and not isinstance(verdict, NotAdmissible):
                assert check_spe_param(graph, profile, 5) == verdict, (graph, profile)
        if param and any(reach.least_at_least(sid, 0) is None for sid in graph.internal_ids()):
            seen["pgraph with an unreachable state"] += 1
        if any(sid == target for sid in graph.internal_ids() for _, target, _ in graph.states[sid].edges):
            seen["self-loop"] += 1
        if "S10" in graph.states and "S2" in graph.states:
            seen["S10 sorts before S2"] += 1
    floors = {
        (False, "SpeOk"): 400, (False, "NotAdmissible"): 2000, (False, "Refuted"): 15000,
        (True, "SpeOk"): 80, (True, "NotAdmissible"): 400, (True, "Refuted"): 1000,
        "pgraph with an unreachable state": 40, "self-loop": 40, "S10 sorts before S2": 3,
    }
    for key, floor in floors.items():
        assert seen[key] >= floor, (key, seen)


def prefix_status(graph, chosen):
    """For the choices ``chosen`` at some decision states: whether every
    edge before the first violating one, in state and branch order, has
    both ends resolved, and whether the unresolved states can close a cycle
    when an assigned one follows its choice and any other may take any
    edge.  A state is resolved when the assigned choices lead from it to a
    terminal; its value is that terminal's payoffs and the stage shift on
    the way.  On a plain graph an edge violates when both its ends are
    resolved and its target's terminal pays its mover more than its
    state's.  On a pgraph only the edges of states some play enters are
    covered, and an edge violates when the stages at which its target's
    value, shifted by the edge, pays its mover more contain one its state
    is entered with."""
    states = graph.states
    param = isinstance(graph, ParamGraph)
    reach = StageReachability(graph) if param else None

    def reached(sid):
        seen, shift = set(), 0
        while not isinstance(states[sid], Terminal):
            if sid not in chosen or sid in seen:
                return None
            seen.add(sid)
            _, sid, delta = next(e for e in states[sid].edges if e[0] == chosen[sid])
            shift += delta
        return states[sid].payoffs, shift

    def violates(sid, target, delta):
        mover = states[sid].mover
        (current, si), (deviation, st) = value[sid], value[target]
        if not param:
            return deviation[mover] > current[mover]
        current = reference._shifted(current, si)[mover]
        deviation = reference._shifted(deviation, st + delta)[mover]
        return reference.least_reachable_violation(reach, sid, deviation, current) is not None

    value = {sid: reached(sid) for sid in states}
    edges = [
        (sid, target, delta)
        for sid, state in states.items() if not isinstance(state, Terminal)
        if not param or reach.least_at_least(sid, 0) is not None
        for _, target, delta in state.edges
    ]
    first = next(
        (
            e for e, (sid, target, delta) in enumerate(edges)
            if None not in (value[sid], value[target]) and violates(sid, target, delta)
        ),
        len(edges),
    )
    ends_resolved = all(None not in (value[s], value[t]) for s, t, _ in edges[:first])
    unresolved = {sid for sid in states if value[sid] is None}
    possible = {
        sid: [t for a, t, _ in states[sid].edges if t in unresolved and chosen.get(sid, a) == a]
        for sid in unresolved
    }
    try:
        TopologicalSorter(possible).prepare()
    except CycleError:
        return ends_resolved, True
    return ends_resolved, False


def param_ring_graph(rng, n):
    """``random_ring_graph`` as a pgraph: each edge advances the stage with
    probability 1/2, and the payoffs are redrawn by ``_rational_payoffs``."""
    graph = random_ring_graph(rng, n)
    states = {
        sid: state if isinstance(state, Terminal)
        else Decision(state.mover, tuple((a, t, rng.randint(0, 1)) for a, t, _ in state.edges))
        for sid, state in graph.states.items()
    }
    return _rational_payoffs(rng, ParamGraph(name="ring", states=states, start=graph.start))


def test_decided_subtrees_match_replay():
    # A subtree is decided when every edge before the first violating one
    # has both ends resolved and no completion can close a cycle; the walk
    # then emits all its profiles with one verdict.  Checked against the
    # per-state replay oracle as whole lists, on graphs of both kinds whose
    # chords and self-loops leave cycles possible after every early edge is
    # resolved.  The reference above decides each prefix leaving at least
    # three states free (shallower subtrees are left to the leaves): a
    # decided one has one refutation for all its completions, and a cyclic
    # one has a completion that is not admissible.
    rng = random.Random(2626)
    graphs = [chain_graph(rng, n) for n in [6, 7, 8, 9] * 5]
    graphs += [random_ring_graph(rng, n) for n in [6, 7, 8, 9] * 5]
    graphs += [chain_graph(rng, n, plain=False) for n in [6, 7, 8, 9] * 3]
    graphs += [param_ring_graph(rng, n) for n in [6, 7, 8, 9] * 3]
    seen: Counter = Counter()
    for graph in graphs:
        results = enumerate_stationary_spe(graph)
        assert results == [(p, replay_verdict(graph, p)) for p in stationary_profiles(graph)], graph
        param = isinstance(graph, ParamGraph)
        order = sorted(graph.internal_ids())
        for level in range(1, len(order) - 2):
            blocks: dict = {}
            for profile, verdict in results:
                blocks.setdefault(tuple(profile[sid] for sid in order[:level]), []).append(verdict)
            for prefix, verdicts in blocks.items():
                ends_resolved, cyclic = prefix_status(graph, dict(zip(order, prefix)))
                if ends_resolved and not cyclic:
                    seen[param, "decided"] += 1
                    assert isinstance(verdicts[0], Refuted) and verdicts.count(verdicts[0]) == len(verdicts)
                elif ends_resolved:
                    seen[param, "ends resolved, cyclic"] += 1
                    assert any(isinstance(v, NotAdmissible) for v in verdicts)
    floors = {
        (False, "decided"): 600, (False, "ends resolved, cyclic"): 120,
        (True, "decided"): 700, (True, "ends resolved, cyclic"): 50,
    }
    for key, floor in floors.items():
        assert seen[key] >= floor, (key, seen)


def test_equal_verdicts_are_one_object():
    # Deviation tests are keyed by the first terminal with equal payoffs,
    # and each new pgraph refutation is interned, so a verdict equal to
    # another is the same object.  On the 12-state ring several terminals
    # pay alike: 32 distinct verdicts, one object each.  On the last pgraph
    # chain two stage shifts find equal refutations: 41 distinct verdicts.
    rng = random.Random(2727)
    graphs = [ring_graph(12)] + [random_ring_graph(rng, n) for n in [4, 5, 6, 7, 8] * 4]
    graphs += [chain_graph(rng, n) for n in [5, 6, 7] * 3]
    rng = random.Random(5)
    graphs += [random_param_graph(rng, max_internal=5) for _ in range(200)]
    graphs += [chain_graph(rng, n, plain=False) for n in range(3, 8)]
    for graph in graphs:
        verdicts = [verdict for _, verdict in enumerate_stationary_spe(graph)]
        assert len({id(v) for v in verdicts}) == len(set(verdicts)), graph
    assert len(set(verdicts)) == 41
    assert len(set(v for _, v in enumerate_stationary_spe(ring_graph(12)))) == 32


def test_the_states_some_play_enters_are_found_once(monkeypatch):
    # A pgraph's deviations are tested at the states of some reachability
    # layer, found in one union of the layers, so a long stage prefix costs
    # states plus layers, not their product.  On the 5,000-state chain the
    # one call left is the refutation's own.
    calls = []
    least_at_least = StageReachability.least_at_least
    monkeypatch.setattr(StageReachability, "least_at_least", lambda *a: calls.append(a) or least_at_least(*a))
    n = 5000
    verdict = check_spe_graph(parse(stage_chain(n)), StationaryProfile((f"S{i}", "l") for i in range(n)))
    assert (verdict.state, verdict.stage, verdict.action, len(calls)) == ("S0", 0, "c", 1)


def param_graph_features(graph):
    """Which shapes the differential test below is meant to cover."""
    order = list(graph.states)
    reach = StageReachability(graph)
    edges = [(sid, e) for sid, st in graph.states.items() for e in st.edges]
    slopes = {
        expr.slope
        for st in graph.states.values()
        if isinstance(st, Terminal)
        for expr in st.payoffs.values()
    }
    terminal_first = any(
        isinstance(graph.states[a], Terminal) and not isinstance(graph.states[b], Terminal)
        for a, b in zip(order, order[1:])
    )
    return {
        "self-loop": any(sid == target for sid, (_, target, _) in edges),
        "delta 0": any(delta == 0 for _, (_, _, delta) in edges),
        "delta 1": any(delta == 1 for _, (_, _, delta) in edges),
        "negative slope": any(s < 0 for s in slopes),
        "positive slope": any(s > 0 for s in slopes),
        "terminal before decision": terminal_first,
        "unreachable state": any(reach.least_at_least(sid, 0) is None for sid in graph.internal_ids()),
        "unbounded stages": reach.loop_start is not None,
    }


def test_value_pass_matches_per_state_replay():
    rng = random.Random(3031)
    graphs = [random_game_graph(rng, max_internal=4) for _ in range(200)]
    graphs += [random_param_graph(rng, max_internal=4) for _ in range(300)]
    verdicts: Counter = Counter()
    features: Counter = Counter()
    for graph in graphs:
        assert validate_graph(graph).ok
        param = isinstance(graph, ParamGraph)
        if param:
            features.update(name for name, present in param_graph_features(graph).items() if present)
        results = enumerate_stationary_spe(graph)
        for profile, verdict in results:
            assert verdict == replay_verdict(graph, profile), (graph, profile)
            verdicts[param, type(verdict).__name__] += 1
            if param and not isinstance(verdict, NotAdmissible):
                assert check_spe_param(graph, profile, 5) == verdict, (graph, profile)
            if isinstance(verdict, Refuted) and verdict.stage:
                verdicts[param, "refuted past stage 0"] += 1
            if param:
                continue
            if isinstance(verdict, NotAdmissible):
                with pytest.raises(GameError, match=f"play from {verdict.state} diverges"):
                    stationary_closure(graph, profile)
                continue
            closure = stationary_closure(graph, profile)
            assert list(closure) == list(graph.states)
            for sid, value in closure.items():
                state = graph.states[sid]
                expected = state.payoffs if isinstance(state, Terminal) else play_graph(graph, profile, sid).payoffs
                assert value == expected
    for param in (False, True):
        for kind in ("SpeOk", "NotAdmissible", "Refuted"):
            assert verdicts[param, kind] >= 20, (param, kind, verdicts)
    assert verdicts[True, "refuted past stage 0"] >= 10, verdicts
    for name in (
        "self-loop", "delta 0", "delta 1", "negative slope", "positive slope",
        "terminal before decision", "unreachable state", "unbounded stages",
    ):
        assert features[name] >= 10, (name, features)


def cross_check_outcome(graph, profile, values, verdict, depth):
    """The CrossCheckError text ``_cross_check`` raises, or None."""
    try:
        coinduction._cross_check(graph, profile, values, verdict, depth)
    except CrossCheckError as error:
        return str(error)
    return None


def decision_pairs(graph, depth):
    """The (state, stage) of every decision node of the depth-``depth``
    unfolding, level by level; cut states are leaves, not decision nodes."""
    pairs, level = set(), {(graph.start, 0)}
    for _ in range(depth):
        level = {(sid, stage) for sid, stage in level if graph.states[sid].edges}
        pairs |= level
        level = {
            (target, stage + delta)
            for sid, stage in level
            for _, target, delta in graph.states[sid].edges
        }
    return pairs


def test_cross_check_on_distinct_subgames_matches_the_tree_oracle():
    # The cross-check solves (state, stage, remaining) keys; the oracle
    # (reference.unfolding_check) builds and solves the whole depth-d tree
    # by recursion.  Fed an accepting verdict, the cross-check must object
    # exactly when the tree refutes, with the tree's first counterexample;
    # fed a refutation at the start state, it must object exactly when the
    # tree accepts.  Fed a refutation at a random decision state and stage,
    # it must object exactly when the tree accepts and has a decision node
    # with that state and stage.
    rng = random.Random(4242)
    claims = random.Random(99)
    outcomes: Counter = Counter()
    for _ in range(200):
        graph = random_param_graph(rng, max_internal=4)
        checker = coinduction._ProfileChecker(graph)
        for profile in stationary_profiles(graph):
            values = checker.values(checker.picks(profile))
            if isinstance(values, NotAdmissible):
                continue
            for depth in range(9):
                concrete = reference.unfolding_check(graph, profile, depth)
                accepted = cross_check_outcome(graph, profile, values, SpeOk(), depth)
                if concrete.ok:
                    assert accepted is None, (graph, profile, depth)
                else:
                    assert accepted == (
                        f"symbolic check accepts but depth-{depth} unfolding refutes: "
                        f"{concrete.counterexample}"
                    ), (graph, profile, depth)
                claim = Refuted(graph.start, 0, "A", "a", PayoffVector(A=0), PayoffVector(A=1))
                refuted = cross_check_outcome(graph, profile, values, claim, depth)
                if depth > 0 and concrete.ok:
                    assert refuted == (
                        f"symbolic check refutes at {graph.start} (stage 0) "
                        f"but the depth-{depth} unfolding accepts"
                    ), (graph, profile, depth)
                else:
                    assert refuted is None, (graph, profile, depth)
                outcomes[depth > 0, concrete.ok] += 1
                if 1 <= depth <= 6:
                    sid, stage = claims.choice(graph.internal_ids()), claims.randint(0, depth)
                    claim = Refuted(sid, stage, "A", "a", PayoffVector(A=0), PayoffVector(A=1))
                    in_tree = (sid, stage) in decision_pairs(graph, depth)
                    objected = cross_check_outcome(graph, profile, values, claim, depth)
                    assert (objected is not None) == (in_tree and concrete.ok), (
                        graph, profile, depth, claim,
                    )
                    outcomes["claim", in_tree, concrete.ok] += 1
    # At depth 0 the unfolding is one leaf, so only depths from 1 can refute.
    for key in ((True, True), (True, False), (False, True)):
        assert outcomes[key] >= 50, outcomes
    for in_tree, ok in itertools.product((True, False), repeat=2):
        assert outcomes["claim", in_tree, ok] >= 50, outcomes


def test_concrete_unfolding_check_matches_the_tree_oracle():
    # The table decides, the tree words a refutation: the whole SpeCheck,
    # counterexample included, must be what the recursive oracle finds, and
    # a profile whose play diverges is refused by both.
    rng = random.Random(2028)
    graphs = [random_param_graph(rng, max_internal=4) for _ in range(150)]
    graphs += [random_game_graph(rng, max_internal=4) for _ in range(50)]
    outcomes: Counter = Counter()
    for graph in graphs:
        for profile in stationary_profiles(graph):
            for depth in range(8):
                try:
                    expected = reference.unfolding_check(graph, profile, depth)
                except GameError:
                    with pytest.raises(GameError):
                        concrete_unfolding_check(graph, profile, depth)
                    outcomes["diverges"] += 1
                    continue
                assert concrete_unfolding_check(graph, profile, depth) == expected, (
                    graph, profile, depth,
                )
                outcomes[isinstance(graph, ParamGraph), expected.ok] += 1
    for key in itertools.product((True, False), repeat=2):
        assert outcomes[key] >= 50, outcomes
    assert outcomes["diverges"] >= 50, outcomes


def test_cross_check_disagreements_keep_the_tree_wording():
    d = dollar_auction(100)
    checker = coinduction._ProfileChecker(d)
    never = checker.values(checker.picks(NEVER_BID))
    with pytest.raises(CrossCheckError) as raised:
        coinduction._cross_check(d, NEVER_BID, never, SpeOk(), 5)
    assert str(raised.value) == (
        "symbolic check accepts but depth-5 unfolding refutes: "
        "A gains 98 at bid.raise.raise.raise by deviating to 'raise' (95 over -3)"
    )
    alice = checker.values(checker.picks(ALICE_RAISES))
    claim = Refuted("S0", 0, "A", "pass", PayoffVector(A=99, B=0), PayoffVector(A=0, B=0))
    with pytest.raises(CrossCheckError) as raised:
        coinduction._cross_check(d, ALICE_RAISES, alice, claim, 5)
    assert str(raised.value) == (
        "symbolic check refutes at S0 (stage 0) but the depth-5 unfolding accepts"
    )
    # No position of the depth-5 unfolding has stage 9, so a claim there is
    # not checked against it.
    unseen = Refuted("DA", 9, "A", "quit", PayoffVector(A=0, B=0), PayoffVector(A=1, B=0))
    assert cross_check_outcome(d, ALICE_RAISES, alice, unseen, 5) is None


def random_three_edge_graph(rng, n_states):
    """Every state has an exit to its own terminal and two continue edges,
    each advancing the stage with probability 1/2; the unfolding has up to
    3**depth positions."""
    slopes = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
    states = {}
    for i in range(n_states):
        moves = [("x", f"T{i}", 0)]
        moves += [(f"m{j}", f"S{rng.randrange(n_states)}", rng.randint(0, 1)) for j in range(2)]
        states[f"S{i}"] = Decision(rng.choice(("A", "B")), tuple(moves))
        states[f"T{i}"] = Terminal(
            AffinePayoffs({p: AffineExpr(rng.randint(-6, 6), rng.choice(slopes)) for p in "AB"})
        )
    return ParamGraph(name="three", states=states, start="S0")


class EnteredOnce(list):
    """A table's children lists, read at most twice per position: once by
    the one-shot pass and once by the descent that addresses a refutation,
    which enters each position once.  A read past that budget fails."""

    def __init__(self, rows):
        super().__init__(rows)
        self.budget = 2 * len(rows)

    def __getitem__(self, i):
        self.budget -= 1
        if self.budget < 0:
            raise AssertionError("a table position was entered twice")
        return super().__getitem__(i)


def test_default_depth_cross_check_needs_no_tree(monkeypatch):
    # At depth 20 these unfoldings have up to 3**20 positions; the
    # cross-check and the concrete check must reach and word their verdicts
    # on one (state, stage, remaining depth) table each, without building or
    # solving the tree.
    def no_tree(*args, **kwargs):
        raise AssertionError("the unfolding tree was built")

    tables = []
    build = _Tree.from_graph

    def one_table(*args):
        table, roots = build(*args)
        table.children = EnteredOnce(table.children)
        tables.append(table)
        return table, roots

    monkeypatch.setattr("seqgames.graphs._unfold_tree", no_tree)
    monkeypatch.setattr("seqgames.finite.is_spe_finite", no_tree)
    monkeypatch.setattr(_Tree, "__init__", no_tree)
    monkeypatch.setattr(_Tree, "from_graph", staticmethod(one_table))
    rng = random.Random(26)
    kinds: Counter = Counter()
    for n_states in (2, 3, 3, 4, 4, 5):
        graph = random_three_edge_graph(rng, n_states)
        for profile in stationary_profiles(graph):
            tables.clear()
            verdict = check_spe_param(graph, profile)
            assert verdict == check_spe_param(graph, profile, cross_check_depth=None)
            kinds[type(verdict).__name__] += 1
            if isinstance(verdict, NotAdmissible):
                assert tables == []
                continue
            check = concrete_unfolding_check(graph, profile, 20)
            assert len(tables) == 2
            if verdict.ok:
                assert check == SpeCheck()
                continue
            # A refutation is addressed by a play of the graph, and its
            # payoffs are the one-shot deviation's in the infinite game:
            # every cut is closed with its play value.
            ce = check.counterexample
            values = stationary_closure(graph, profile)
            sid, stage = graph.start, 0
            assert len(ce.address) < 20
            for action in ce.address:
                _, sid, delta = next(e for e in graph.states[sid].edges if e[0] == action)
                stage += delta
            state = graph.states[sid]
            _, target, delta = next(e for e in state.edges if e[0] == ce.action)
            assert ce.player == state.mover
            assert ce.profile_payoff == values[sid].at_stage(stage)[ce.player]
            assert ce.deviation_payoff == values[target].at_stage(stage + delta)[ce.player]
            assert ce.gain > 0
            kinds["worded"] += 1
    assert kinds["SpeOk"] >= 20 and kinds["worded"] >= 100, kinds
    # The first refutation lies past S1, whose two self-loops unfold into
    # about 2**20 positions on a few hundred keys, and nobody deviates
    # there: the descent to S2 searches each of those keys once.
    zero = AffinePayoffs(A=AffineExpr(0), B=AffineExpr(0))
    graph = ParamGraph(
        name="shared",
        states={
            "S0": Decision("A", (("x", "T0", 0), ("a", "S1", 0), ("b", "S2", 0))),
            "S1": Decision("A", (("x", "T0", 0), ("m0", "S1", 0), ("m1", "S1", 1))),
            "S2": Decision("B", (("x", "T0", 0), ("y", "T1", 0))),
            "T0": Terminal(zero),
            "T1": Terminal(AffinePayoffs(A=AffineExpr(0), B=AffineExpr(1))),
        },
        start="S0",
    )
    profile = StationaryProfile(S0="x", S1="x", S2="x")
    assert isinstance(check_spe_param(graph, profile), Refuted)
    check = concrete_unfolding_check(graph, profile, 20)
    assert check == SpeCheck(Counterexample(("b",), "B", "y", Fraction(0), Fraction(1)))


def test_check_spe_param_is_the_only_cross_check_site(monkeypatch, capsys):
    # Enumeration, the other checks and the CLI decide verdicts without
    # re-validating them; check_spe_param cross-checks each admissible
    # pgraph profile exactly once, and nothing else.
    depths = []
    cross_check = coinduction._cross_check

    def counting(*args):
        depths.append(args[4])
        return cross_check(*args)

    monkeypatch.setattr(coinduction, "_cross_check", counting)
    games = Path(__file__).resolve().parent.parent / "games"
    auction = str(games / "dollar_auction_100.pgraph")
    d = dollar_auction(100)
    enumerate_stationary_spe(d)
    for profile in stationary_profiles(d):
        check_spe(d, profile)
        check_spe_graph(d, profile)
    for name in ("alice_always_raises", "bob_always_raises", "never_bid"):
        assert main(["check", auction, "--profile", str(games / f"{name}.profile")]) in (0, 1)
    assert main(["enumerate", auction]) == 0
    assert main(["escalate", auction]) == 0
    assert main(["extrapolate", auction, "--depths", "1..5", "--closure", "quit"]) == 0
    capsys.readouterr()
    assert depths == []
    for profile in stationary_profiles(zero_one_graph()):
        check_spe_param(zero_one_graph(), profile, 5)
    assert depths == []
    diverging = StationaryProfile(S0="bid", DA="raise", DB="raise")
    assert isinstance(check_spe_param(d, diverging, 5), NotAdmissible)
    assert depths == []
    rng = random.Random(19)
    admissible = 0
    for graph in [d] + [random_param_graph(rng) for _ in range(20)]:
        for profile in stationary_profiles(graph):
            if not isinstance(check_spe_param(graph, profile, 5), NotAdmissible):
                admissible += 1
            assert depths == [5] * admissible
    assert admissible >= 20


def test_induced_tree_profile_is_not_bounded_by_the_recursion_limit():
    induced = induced_tree_profile(zero_one_graph(), ALICE_LEAVES, 1500)
    assert len(induced) == 1500
    assert induced[("c",) * 1498] == "l" and induced[("c",) * 1499] == "c"


def reachable_states(graph):
    seen, stack = {graph.start}, [graph.start]
    while stack:
        for _, target, _ in graph.states[stack.pop()].edges:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def as_param_graph(graph):
    """The same plain graph as a ParamGraph with constant affine payoffs."""
    states = {
        sid: Terminal(AffinePayoffs({p: AffineExpr(v) for p, v in state.payoffs.items()}))
        if isinstance(state, Terminal)
        else state
        for sid, state in graph.states.items()
    }
    return ParamGraph(name=graph.name, states=states, start=graph.start)


def test_graph_kind_changes_only_the_stage_of_refutations():
    rng = random.Random(4242)
    graphs = [random_game_graph(rng, max_internal=4, max_terminals=2) for _ in range(800)]
    graphs = [g for g in graphs if reachable_states(g) == set(g.states)]
    assert len(graphs) >= 120
    kinds: Counter = Counter()
    for graph in graphs:
        plain = enumerate_stationary_spe(graph)
        staged = enumerate_stationary_spe(as_param_graph(graph))
        assert [p for p, _ in staged] == [p for p, _ in plain]
        for (_, verdict), (_, staged_verdict) in zip(plain, staged):
            if isinstance(verdict, Refuted):
                assert verdict.stage is None
                assert staged_verdict == Refuted(
                    verdict.state,
                    0,
                    verdict.player,
                    verdict.action,
                    verdict.profile_payoffs,
                    verdict.deviation_payoffs,
                )
            else:
                assert staged_verdict == verdict
            kinds[type(verdict).__name__] += 1
    assert min(kinds[k] for k in ("SpeOk", "NotAdmissible", "Refuted")) >= 25, kinds


def test_graph_kind_decides_whether_unreachable_states_are_checked():
    # S1 is never entered from the start, and B would gain there by
    # deviating: a plain graph checks every state, a pgraph only the
    # (state, stage) pairs play can reach.
    plain = GameGraph(
        name="island",
        states={
            "S0": Decision("A", (("stop", "T0", 0),)),
            "S1": Decision("B", (("low", "T0", 0), ("high", "T1", 0))),
            "T0": Terminal(PayoffVector(A=0, B=0)),
            "T1": Terminal(PayoffVector(A=0, B=1)),
        },
        start="S0",
    )
    profile = StationaryProfile(S0="stop", S1="low")
    assert check_spe_graph(plain, profile) == Refuted(
        "S1", None, "B", "high", PayoffVector(A=0, B=0), PayoffVector(A=0, B=1)
    )
    assert check_spe_param(as_param_graph(plain), profile) == SpeOk()
