import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from seqgames.core import (
    Comparison,
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    TreeProfile,
    UnknownPlayerError,
    depth,
    leaf,
    node,
    play_finite,
    prefers,
    validate_game,
)
from tests.conftest import random_finite_game
from tests.reference import all_profiles

SRC = Path(__file__).resolve().parent.parent / "src"


def test_validate_minimal_leaf():
    report = validate_game(leaf(A=0, B=1), players={"A", "B"})
    assert report.ok


def test_validate_empty_branch_list():
    report = validate_game(node("A"), players={"A"})
    assert not report.ok
    assert any("empty branch list" in str(v) for v in report.violations)


def test_validate_missing_payoff_entry():
    report = validate_game(leaf(A=0), players={"A", "B"})
    assert not report.ok
    assert any("missing payoff for B" in str(v) for v in report.violations)


def test_validate_duplicate_labels():
    game = node("A", ("c", leaf(A=0)), ("c", leaf(A=1)))
    report = validate_game(game)
    assert any("duplicate action label" in v.message for v in report.violations)


def test_prefers_basic():
    p = PayoffVector(A=1, B=0)
    q = PayoffVector(A=0, B=1)
    assert prefers(p, q, "A") is Comparison.BETTER
    assert prefers(p, p, "A") is Comparison.EQUAL
    assert prefers(q, p, "A") is Comparison.WORSE


def test_prefers_unknown_player():
    with pytest.raises(UnknownPlayerError):
        prefers(PayoffVector(A=1), PayoffVector(A=1), "B")


def test_prefers_total_order_properties():
    rng = random.Random(7)
    vectors = [
        PayoffVector(A=Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        for _ in range(40)
    ]
    for p in vectors:
        for q in vectors:
            c = prefers(p, q, "A")
            back = prefers(q, p, "A")
            # trichotomy and antisymmetry
            assert (c, back) in {
                (Comparison.BETTER, Comparison.WORSE),
                (Comparison.WORSE, Comparison.BETTER),
                (Comparison.EQUAL, Comparison.EQUAL),
            }
    for p in vectors[:12]:
        for q in vectors[:12]:
            for r in vectors[:12]:
                if (
                    prefers(p, q, "A") is Comparison.BETTER
                    and prefers(q, r, "A") is Comparison.BETTER
                ):
                    assert prefers(p, r, "A") is Comparison.BETTER


def test_prefers_is_ordinal_under_positive_scaling():
    rng = random.Random(21)
    scale = Fraction(3, 7)
    for _ in range(100):
        p = PayoffVector(A=Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        q = PayoffVector(A=Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        scaled_p = PayoffVector(A=p["A"] * scale)
        scaled_q = PayoffVector(A=q["A"] * scale)
        assert prefers(p, q, "A") is prefers(scaled_p, scaled_q, "A")


def test_play_finite_leaf_game():
    assert play_finite(leaf(A=5, B=5), TreeProfile()) == PayoffVector(A=5, B=5)


def test_play_finite_two_level():
    game = node(
        "A",
        ("c", node("B", ("c", leaf(A=1, B=0)), ("l", leaf(A=1, B=1)))),
        ("l", leaf(A=0, B=0)),
    )
    profile = TreeProfile({(): "c", ("c",): "l"})
    assert play_finite(game, profile) == PayoffVector(A=1, B=1)


def test_play_finite_missing_address():
    game = node("A", ("c", leaf(A=1)), ("l", leaf(A=0)))
    with pytest.raises(ProfileError):
        play_finite(game, TreeProfile())


def _realized_path_length(game, profile):
    from seqgames.core import Node

    current, address, steps = game, (), 0
    while isinstance(current, Node):
        chosen = profile[address]
        current = dict(current.branches)[chosen]
        address = address + (chosen,)
        steps += 1
    return steps


def test_play_finite_reaches_leaf_within_depth():
    rng = random.Random(3)
    for _ in range(25):
        game = random_finite_game(rng, max_profiles=128)
        bound = depth(game)
        for profile in all_profiles(game):
            assert _realized_path_length(game, profile) <= bound
            assert play_finite(game, profile) == play_finite(game, profile)


def test_tree_profile_equality_is_order_insensitive():
    a = TreeProfile({(): "c", ("c",): "l"})
    b = TreeProfile([(("c",), "l"), ((), "c")])
    assert a == b
    assert hash(a) == hash(b)


def test_fresh_import_releases_the_previous_one():
    # Typing caches keyed on package classes would keep every earlier import
    # alive.  The child interpreter keeps this session's classes intact.
    script = textwrap.dedent(
        """
        import gc, sys, weakref
        import seqgames
        old = weakref.ref(seqgames.core.Leaf)
        for name in [n for n in sys.modules if n == "seqgames" or n.startswith("seqgames.")]:
            del sys.modules[name]
        import seqgames
        gc.collect()
        print("retained" if old() is not None else "released")
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PATH": "", "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "released"


def _four_maps():
    """One sample of each frozen map, with a key it lacks and its error type."""
    from seqgames.coinduction import StationaryProfile
    from seqgames.graphs import AffineExpr, AffinePayoffs

    return [
        (PayoffVector, {"A": Fraction(1, 2), "B": Fraction(0)}, "C", UnknownPlayerError),
        (TreeProfile, {(): "c", ("c",): "l"}, ("l",), KeyError),
        (StationaryProfile, {"SA": "l", "SB": "c"}, "SC", KeyError),
        (AffinePayoffs, {"A": AffineExpr(99, -1), "B": AffineExpr(0)}, "C", KeyError),
    ]


def test_frozen_map_contract():
    from seqgames.coinduction import StationaryProfile
    from seqgames.graphs import AffineExpr, AffinePayoffs

    assert repr(PayoffVector(B=0, A="1/2")) == "PayoffVector(A:1/2, B:0)"
    assert repr(TreeProfile({("c",): "l", (): "c"})) == "TreeProfile(.:c, c:l)"
    assert repr(StationaryProfile(SB="c", SA="l")) == "StationaryProfile(SA:l, SB:c)"
    assert (
        repr(AffinePayoffs(B=AffineExpr(0), A=AffineExpr(99, -1)))
        == "AffinePayoffs(A:99 - 1*k, B:0)"
    )

    built = []
    for cls, content, absent, error in _four_maps():
        pairs = list(content.items())
        forms = [cls(content), cls(pairs), cls(reversed(pairs)), cls(dict(reversed(pairs)))]
        if cls is not TreeProfile:  # tree addresses are tuples, not keywords
            forms.append(cls(**content))
            forms.append(cls(pairs[:1], **dict(pairs[1:])))
        for value in forms:
            assert value == forms[0] and hash(value) == hash(forms[0])
            assert not value != forms[0]
        value = forms[0]
        assert list(value) == sorted(content)
        assert len(value) == len(content)
        assert dict(value) == content
        assert value != content and content != value
        assert value != cls(pairs[:1])
        assert not hasattr(value, "__dict__")
        with pytest.raises(error) as raised:
            value[absent]
        assert isinstance(raised.value, KeyError)
        if error is KeyError:
            assert type(raised.value) is KeyError
        assert absent not in value and pairs[0][0] in value
        assert value.get(absent) is None and value.get(pairs[0][0]) == pairs[0][1]
        built.append(value)
    for i, one in enumerate(built):
        for other in built[i + 1 :]:
            assert one != other
    # Equal contents in different classes still differ.
    assert StationaryProfile(A="x") != AffinePayoffs(A="x")  # type: ignore[arg-type]

    # Payoff vectors coerce their values and accept exact rationals only.
    assert PayoffVector(A="1/2")["A"] == Fraction(1, 2)
    assert PayoffVector([("A", 3)])["A"] == Fraction(3)
    with pytest.raises(TypeError):
        PayoffVector(A=1.5)  # type: ignore[arg-type]
    with pytest.raises(UnknownPlayerError, match="no payoff entry for player 'B'"):
        PayoffVector(A=1)["B"]


@dataclass(frozen=True)
class _GeneratedNode:
    """What ``Node`` was before: its dataclass-generated (recursive) methods."""

    mover: str
    branches: tuple


_GeneratedNode.__qualname__ = "Node"


def _generated(game):
    if isinstance(game, Leaf):
        return game
    return _GeneratedNode(game.mover, tuple((a, _generated(c)) for a, c in game.branches))


def test_node_methods_match_the_generated_ones():
    rng = random.Random(17)
    games = [random_finite_game(rng, max_depth=4) for _ in range(150)]
    games += [node("A"), node("A", ("x", leaf(A=1)))]
    shared = leaf(A=1, B=2)
    games.append(node("A", ("x", node("B", ("y", shared))), ("z", node("B", ("y", shared)))))
    for game in games:
        assert hash(game) == hash(_generated(game))
        assert repr(game) == repr(_generated(game))
    for one in games:
        for other in rng.sample(games, 20) + [_copy(one)]:
            assert (one == other) == (_generated(one) == _generated(other))
            assert (one != other) == (_generated(one) != _generated(other))
    assert node("A", ("x", leaf(A=1))) != node("A", ("x", node("A", ("y", leaf(A=1)))))
    # Shared subtrees are visited once: 2^60 root-to-leaf paths, 61 nodes.
    one, other = leaf(A=1), leaf(A=1)
    for _ in range(60):
        one, other = node("A", ("x", one), ("y", one)), node("A", ("x", other), ("y", other))
    assert one == other and hash(one) == hash(other)
    assert one != node("A", ("x", one), ("y", other))
    assert node("A").__eq__(leaf(A=1)) is NotImplemented


def _copy(game):
    if isinstance(game, Leaf):
        return Leaf(game.payoffs)
    return Node(game.mover, tuple((a, _copy(c)) for a, c in game.branches))
