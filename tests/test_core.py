import dataclasses
import importlib
import pickle
import pkgutil
import random
import subprocess
from collections import Counter
from collections.abc import ItemsView
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import seqgames
from seqgames.core import (
    Comparison,
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    TreeProfile,
    UnknownPlayerError,
    _refuse_assignment,
    depth,
    leaf,
    node,
    play_finite,
    prefers,
    validate_game,
)
from seqgames.dsl import ParseError, parse
from seqgames.finite import EquilibriumSummary
from seqgames.graphs import AffineExpr, GameGraph, ParamGraph
from seqgames.truncation import ConstantClosure, MissingClosureError, StateClosure, truncate
from tests.conftest import random_finite_game, random_game_graph, random_param_graph, random_payoffs
from tests.reference import all_profiles, validate_game_by_walk
from tests.test_dsl import _mutation_corpus

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


def _faulty_game(rng: random.Random, pool: list[PayoffVector]):
    """A random tree that may break every rule: leaves over subsets of A-C,
    many of them sharing payoff objects, movers from A-D, repeated labels
    and empty branch lists."""

    def build(depth_left: int):
        if depth_left == 0 or rng.random() < 0.35:
            if rng.random() < 0.7:
                return Leaf(rng.choice(pool))
            players = rng.sample("ABC", rng.randint(0, 3))
            return Leaf(PayoffVector({p: rng.randint(0, 3) for p in players}))
        width = rng.choice((0, 1, 2, 2, 3))
        labels = rng.choices("abc", k=width) if rng.random() < 0.3 else "abc"[:width]
        return Node(rng.choice("ABCD"), tuple((label, build(depth_left - 1)) for label in labels))

    return build(rng.randint(0, 4))


def test_validation_matches_walking_reference():
    # The compiled tree's checks against the walk-based rules they replaced:
    # the same violations, in the same order, with and without players=.
    rng = random.Random(2206)
    games = []
    for _ in range(1500):
        pool = [
            PayoffVector({p: rng.randint(0, 3) for p in rng.sample("ABC", rng.randint(1, 3))})
            for _ in range(3)
        ]
        games.append(_faulty_game(rng, pool))
    for text in _mutation_corpus(seed=22, count=600):
        try:
            doc = parse(text)
        except ParseError:
            continue
        if isinstance(doc, (Leaf, Node)):
            games.append(doc)
    # Shared DAGs whose cut payoffs may miss a player.
    graphs = [random_game_graph(rng, max_internal=4) for _ in range(40)]
    graphs += [random_param_graph(rng, max_internal=4) for _ in range(40)]
    for graph in graphs:
        short = random_payoffs(rng, players=("A",))
        mapping = {
            sid: random_payoffs(rng, players=rng.choice((("A", "B"), ("B",), ("A", "B", "C"))))
            for sid in graph.internal_ids()
        }
        for rule in (ConstantClosure(short), StateClosure(mapping)):
            for depth in range(5):
                try:
                    games.append(truncate(graph, depth, rule))
                except MissingClosureError:
                    pass
    seen = Counter()
    for game in games:
        for players in (None, "AB", "A", "ABC", ()):
            report = validate_game(game, players=None if players is None else set(players))
            assert report == validate_game_by_walk(game, players), (game, players)
            seen.update(v.message.split()[0] for v in report.violations)
            seen["valid"] += report.ok
    # Every rule fires, and so do valid games.
    assert all(
        seen[word] >= 100 for word in ("missing", "payoff", "empty", "duplicate", "undeclared", "valid")
    ), seen


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


def test_frozen_map_items_behave_as_the_generic_items_view():
    for cls, content, absent, _ in _four_maps():
        value = cls(content)
        items, generic = value.items(), ItemsView(value)
        assert isinstance(items, ItemsView)
        assert list(items) == list(generic) == sorted(content.items())
        # The stored entry tuples themselves, not copies.
        assert all(a is b for a, b in zip(items, value._entries))
        assert len(items) == len(generic) == len(content)
        (key, held), (other_key, other_held) = sorted(content.items())
        for probe in ((key, held), (key, other_held), (absent, held), (other_key, other_held)):
            assert (probe in items) == (probe in generic)
        some = {(key, held), (absent, held), (key, other_held)}
        assert items & some == generic & some == {(key, held)}
        assert items | some == generic | some
        assert items - some == generic - some == {(other_key, other_held)}
        assert items ^ some == generic ^ some
        assert items == generic and items <= generic and not items < generic
        assert items.isdisjoint({(absent, held)}) and not items.isdisjoint(some)


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


def _record_classes() -> list[type]:
    """Every record class of the package and every plain subclass of one
    (``ParamGraph``), each after its bases."""
    found = set()
    for module in pkgutil.iter_modules(seqgames.__path__):
        for value in vars(importlib.import_module(f"seqgames.{module.name}")).values():
            if isinstance(value, type) and getattr(value, "__setattr__", None) is _refuse_assignment:
                found.add(value)
    return sorted(found, key=lambda cls: (len(cls.__mro__), cls.__module__, cls.__qualname__))


_RECORD_METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def _dataclass_twins(classes: list[type]) -> dict[type, type]:
    """For each record, ``@dataclass(frozen=True)`` applied to its class body
    without the methods a record has, so that the dataclass makes them all,
    also those a class body writes itself (``Leaf``, ``Node``, ``Refuted``,
    ``Characterization``, ``DepthSummary`` and ``EquilibriumSummary``).  A
    field named ``_...`` is neither compared nor printed."""
    twins: dict[type, type] = {}
    for cls in classes:
        bases = tuple(twins.get(base, base) for base in cls.__bases__)
        if "_fields" not in vars(cls):
            twins[cls] = type(cls.__name__, bases, {"__module__": cls.__module__})
        else:
            namespace = {
                name: value
                for name, value in vars(cls).items()
                if name not in ("__dict__", "__weakref__", "_fields", *_RECORD_METHODS)
            }
            namespace["__annotations__"] = dict(cls.__annotations__)
            for name in cls._fields:
                if name.startswith("_"):
                    default = vars(cls).get(name, dataclasses.MISSING)
                    namespace[name] = dataclasses.field(default=default, repr=False, compare=False)
            twins[cls] = dataclasses.dataclass(frozen=True)(type(cls.__name__, bases, namespace))
        twins[cls].__qualname__ = cls.__qualname__
    return twins


# Field values: equal values of distinct types, an unhashable one, strings
# as_fraction reads or refuses.  ``count`` is printed through Decimal, so it
# takes ints only, and ``Node.branches`` takes branches, which its own
# methods walk.
_VALUES = (0, 1, Fraction(1), -3, Fraction(1, 2), "a", "b", "3/4", None, (), ("x", 1), {"S": 1})
_SPECIAL_VALUES = {
    "count": (0, 1, 7, -2, 10**30),
    "branches": (
        (),
        (("x", leaf(A=1)),),
        (("x", leaf(A=1)), ("y", node("B", ("z", leaf(A=1))))),
        (("x", Leaf(PayoffVector(A=Fraction(1)))), ("y", node("B", ("z", leaf(A=1))))),
    ),
}


def _value(rng: random.Random, name: str) -> object:
    return rng.choice(_SPECIAL_VALUES.get(name, _VALUES))


def _outcome(call) -> tuple:
    try:
        return "returned", call()
    except Exception as error:
        return "raised", type(error)


def _built(cls: type, twin: type, args: list, named: dict) -> tuple | None:
    """The record and its twin from the same call, or None if both refuse it
    alike."""
    record, copy = _outcome(lambda: cls(*args, **named)), _outcome(lambda: twin(*args, **named))
    assert record[0] == copy[0], (cls, args, named, record, copy)
    if record[0] == "raised":
        assert record[1] is copy[1], (cls, args, named)
        return None
    assert vars(record[1]) == vars(copy[1]), (cls, args, named)
    return record[1], copy[1]


def test_records_behave_as_frozen_dataclasses():
    rng = random.Random(33)
    classes = _record_classes()
    assert len([cls for cls in classes if "_fields" in vars(cls)]) >= 30
    assert ParamGraph in classes and Node in classes and EquilibriumSummary in classes
    twins = _dataclass_twins(classes)
    groups: dict[tuple, list[type]] = {}
    for cls in classes:
        groups.setdefault(cls._fields, []).append(cls)
    compared = equal = 0
    for names, group in groups.items():
        for _ in range(20):
            values = [_value(rng, name) for name in names]
            # The values, and for each field the values with only it changed.
            rows = [values] + [
                values[:i] + [_value(rng, name)] + values[i + 1 :] for i, name in enumerate(names)
            ]
            pairs = []
            for cls in group:
                twin = twins[cls]
                required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(twin))
                k = rng.randint(0, len(names))
                calls = [(row, {}) for row in rows] + [
                    ([], dict(zip(names, values))),
                    (values[:k], dict(zip(names[k:], values[k:]))),
                    (values[:required], {}),
                    (values + [0], {}),
                    (values, {"unknown": 0}),
                    (values[: max(required - 1, 0)], {}),
                    (values, dict(zip(names[-1:], [0]))),
                ]
                pairs += filter(None, (_built(cls, twin, args, named) for args, named in calls))
            for record, copy in pairs:
                assert _outcome(lambda: repr(record)) == _outcome(lambda: repr(copy))
                assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(copy))
                restored = pickle.loads(pickle.dumps(record))
                assert type(restored) is type(record) and vars(restored) == vars(record)
                for name in names:
                    for change in (lambda o: setattr(o, name, 0), lambda o: delattr(o, name)):
                        for target in (record, copy):
                            with pytest.raises(AttributeError):
                                change(target)
                    assert vars(restored) == vars(record)
                for other, other_copy in pairs:
                    assert _outcome(lambda: record == other) == _outcome(lambda: copy == other_copy)
                    assert _outcome(lambda: record != other) == _outcome(lambda: copy != other_copy)
                    compared += 1
                    equal += _outcome(lambda: copy == other_copy) == ("returned", True)
    assert compared > 30_000 and equal > 5_000, (compared, equal)
    # The cases named in the records' contract, spelled out.
    graph, staged = GameGraph("g", {}, "S"), ParamGraph("g", {}, "S")
    assert graph != staged and graph == GameGraph("g", {}, "S")
    assert repr(staged) == "ParamGraph(name='g', states={}, start='S')"
    with pytest.raises(TypeError):
        hash(graph)
    assert AffineExpr(Fraction(1, 2), Fraction(1, 3))._ints == (3, 2, 6)
    assert AffineExpr(slope=2, intercept="1/4").__dict__ == {
        "intercept": Fraction(1, 4), "slope": Fraction(2), "_ints": (1, 8, 4)
    }
    summary = EquilibriumSummary({}, 1, TreeProfile(), PayoffVector(A=1), leaf(A=1))
    other = EquilibriumSummary({}, 1, TreeProfile(), PayoffVector(A=1), leaf(A=2))
    assert summary == other
    assert "_game" not in repr(summary) and summary._game == leaf(A=1)
    with pytest.raises(AttributeError):
        summary.count = 2
    assert summary.count == 1


def test_importing_the_cli_imports_no_dataclasses():
    # Generated record methods once cost most of an import with bytecode.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import seqgames.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
