import random
from fractions import Fraction

import pytest

from seqgames.core import Leaf, Node, PayoffVector, TreeProfile
from seqgames.coinduction import StationaryProfile
from seqgames.dsl import ParseError, ProfileDoc, parse, serialize, tokenize
from seqgames.gallery import matching_pennies_sequential, zero_one_finite
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    Decision,
    GameGraph,
    ParamGraph,
    Terminal,
    dollar_auction,
    zero_one_graph,
)
from tests.conftest import random_finite_game


def test_parse_minimal_leaf():
    assert parse("(leaf (A:0) (B:1))") == Leaf(PayoffVector(A=0, B=1))


def test_serialize_minimal_leaf():
    assert serialize(Leaf(PayoffVector(A=0, B=1))) == "(leaf (A:0) (B:1))\n"


def test_rationals_serialize_in_lowest_terms():
    assert serialize(Leaf(PayoffVector(A=Fraction(2, 4)))) == "(leaf (A:1/2))\n"
    assert parse("(leaf (A:2/4))") == Leaf(PayoffVector(A=Fraction(1, 2)))


def test_negative_and_fractional_rationals():
    game = parse("(leaf (A:-3/7) (B:-2))")
    assert game == Leaf(PayoffVector(A=Fraction(-3, 7), B=-2))


def test_comments_and_whitespace_are_ignored():
    text = """
    # a tiny game
    ( node A
      (c (leaf (A:1) (B:0)))  # continue
      (l (leaf (A:0) (B:1))))
    """
    game = parse(text)
    assert isinstance(game, Node) and [a for a, _ in game.branches] == ["c", "l"]


def test_parse_error_truncated_input():
    with pytest.raises(ParseError) as info:
        parse("(node A (c (leaf (A:1)")
    assert info.value.found == "end of input"
    assert info.value.span.line == 1


def test_parse_error_positions_are_exact():
    with pytest.raises(ParseError) as info:
        parse("(leaf (A:0)\n      (A:1))")
    assert info.value.span.line == 2
    assert info.value.span.column == 8


def test_parse_error_on_bad_character():
    with pytest.raises(ParseError):
        parse("(leaf (A:0) $)")


def test_numbers_take_only_decimal_digits():
    # "²" passes str.isdigit but int() rejects it.
    with pytest.raises(ParseError) as info:
        parse("(leaf (A:²))")
    assert str(info.value) == "line 1, column 10: unexpected character '²'"
    assert parse("(leaf (A:٣))") == Leaf(PayoffVector(A=3))
    graph = parse("graph g { state S² = node A { x -> T } state T = leaf (A:1) start S² }")
    assert graph.start == "S²"


def test_overlong_numbers_are_parse_errors():
    # int() refuses strings of more than 4,300 digits by default.
    digits = "7" * 5000
    for text, column in ((f"(leaf (A:{digits}))", 10), (f"(leaf (A:1/{digits}))", 12)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.span.line, info.value.span.column) == (1, column)
        assert info.value.message == "number too long (5000 digits)"


def test_duplicate_state_id_is_semantic_error():
    text = "graph g { state S = leaf (A:0) state S = leaf (A:1) start S }"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert "duplicate state id" in info.value.message


def test_dangling_target_is_semantic_error():
    text = "graph g { state S = node A { x -> NOPE } start S }"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert "undefined state" in info.value.message


def test_undefined_start_is_semantic_error():
    text = "graph g { state S = leaf (A:0) start T }"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert "start names undefined state" in info.value.message


def test_inline_leaf_edges_are_named_deterministically():
    text = "graph g { state S = node A { go -> leaf (A:1) (B:0), stay -> S } start S }"
    graph = parse(text)
    assert type(graph) is GameGraph
    assert graph.states["S"] == Decision("A", (("go", "S_go", 0), ("stay", "S", 0)))
    assert graph.states["S_go"] == Terminal(PayoffVector(A=1, B=0))
    assert parse(serialize(graph)) == graph


def test_inline_leaf_name_collisions_get_suffixed():
    text = (
        "graph g { state S_go = leaf (A:0) "
        "state S = node A { go -> leaf (A:1), back -> S_go } start S }"
    )
    graph = parse(text)
    assert "S_go_" in graph.states


def test_pgraph_round_trip_and_deltas():
    auction = dollar_auction(100)
    text = serialize(auction)
    assert "raise -> DA @ k+1" in text
    assert parse(text) == auction


def test_pgraph_stage_suffix_rejected_in_plain_graph():
    text = "graph g { state S = node A { go -> S @ k+1 } start S }"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert "pgraph" in info.value.message


def test_pgraph_affine_forms():
    text = (
        "pgraph p { state D = node A { quit -> D_quit, go -> D @ k+1 } "
        "state D_quit = leaf (A:1/2 + 2*k) (B:3) start D }"
    )
    graph = parse(text)
    assert isinstance(graph, ParamGraph)
    payoffs = graph.states["D_quit"].payoffs
    assert payoffs["A"] == AffineExpr(Fraction(1, 2), 2)
    assert payoffs["B"] == AffineExpr(3, 0)
    assert parse(serialize(graph)) == graph


def test_profile_documents():
    doc = parse("profile { SA: l SB: c }")
    assert isinstance(doc, ProfileDoc)
    assert doc.as_stationary() == StationaryProfile(SA="l", SB="c")


def test_tree_profile_keys_use_dots():
    doc = parse("profile { .: c c: l c.c: c }")
    assert doc.as_tree() == TreeProfile({(): "c", ("c",): "l", ("c", "c"): "c"})


def test_tree_profile_key_rejected_as_stationary():
    doc = parse("profile { c.c: l }")
    with pytest.raises(ParseError):
        doc.as_stationary()


def test_duplicate_profile_key():
    with pytest.raises(ParseError) as info:
        parse("profile { SA: l SA: c }")
    assert "duplicate profile key" in info.value.message


def test_round_trip_presets():
    values = [
        matching_pennies_sequential(),
        zero_one_finite(6),
        zero_one_finite(7),
        zero_one_graph(),
        dollar_auction(100),
    ]
    for value in values:
        assert parse(serialize(value)) == value


def test_parse_determinism():
    text = serialize(dollar_auction(100))
    assert parse(text) == parse(text)
    bad = "(node A (c (leaf (A:1)"
    first = pytest.raises(ParseError, parse, bad).value
    second = pytest.raises(ParseError, parse, bad).value
    assert (first.span, first.message, first.expected) == (
        second.span,
        second.message,
        second.expected,
    )


def _random_graph_doc(rng: random.Random) -> GameGraph:
    n = rng.randint(1, 4)
    ids = [f"N{i}" for i in range(n)] + ["END"]
    states: dict[str, object] = {}
    for i in range(n):
        edges = []
        for j in range(rng.randint(1, 3)):
            edges.append((f"a{j}", rng.choice(ids), 0))
        states[f"N{i}"] = Decision(rng.choice("AB"), tuple(edges))
    states["END"] = Terminal(
        PayoffVector(A=Fraction(rng.randint(-5, 5), rng.randint(1, 4)), B=rng.randint(0, 3))
    )
    return GameGraph(name="doc", states=states, start="N0")


def _random_pgraph_doc(rng: random.Random) -> ParamGraph:
    states: dict[str, object] = {
        "D": Decision(
            "A",
            (("quit", "Q", 0), ("go", "D", rng.randint(0, 1))),
        ),
        "Q": Terminal(
            AffinePayoffs(
                A=AffineExpr(rng.randint(-3, 3), Fraction(rng.randint(-2, 2), 2)),
                B=AffineExpr(Fraction(rng.randint(-4, 4), 3)),
            )
        ),
    }
    return ParamGraph(name="pdoc", states=states, start="D")


def test_round_trip_random_documents():
    rng = random.Random(99)
    for _ in range(80):
        game = random_finite_game(rng, max_depth=3)
        assert parse(serialize(game)) == game
    for _ in range(60):
        graph = _random_graph_doc(rng)
        assert parse(serialize(graph)) == graph
    for _ in range(40):
        pgraph = _random_pgraph_doc(rng)
        assert parse(serialize(pgraph)) == pgraph
    for _ in range(20):
        profile = StationaryProfile(
            {f"S{i}": rng.choice("abc") for i in range(rng.randint(1, 4))}
        )
        assert parse(serialize(profile)).as_stationary() == profile


def test_truncations_of_serialized_presets_fail_with_positions():
    rng = random.Random(5)
    full = serialize(dollar_auction(100))
    for _ in range(25):
        cut = rng.randrange(1, len(full) - 1)
        text = full[:cut]
        try:
            parse(text)
        except ParseError as error:
            assert error.span.offset <= len(text)
        # a clean prefix that still parses is acceptable only if it is
        # a complete document, which serialize never produces mid-way
        else:
            pytest.fail("truncated document parsed successfully")


def test_tokenize_spans():
    tokens = tokenize("(leaf\n  (A:1))")
    kinds = [t.kind for t in tokens]
    assert kinds[:3] == ["LPAREN", "KEYWORD", "LPAREN"]
    second_line = [t for t in tokens if t.span.line == 2]
    assert second_line[0].span.column == 3


def _recursive_fmt_finite(game, indent=0):
    # The recursive serializer the iterative one replaced, kept as reference.
    if isinstance(game, Leaf):
        shown = " ".join(f"({pid}:{v})" for pid, v in game.payoffs.items())
        return f"(leaf {shown})"
    pad = "  " * (indent + 1)
    lines = [f"(node {game.mover}"]
    for action, child in game.branches:
        lines.append(f"{pad}({action} {_recursive_fmt_finite(child, indent + 1)})")
    return "\n".join(lines) + ")"


def test_tree_serializer_matches_recursive_reference():
    rng = random.Random(41)
    games = [matching_pennies_sequential(), zero_one_finite(1), zero_one_finite(50)]
    games += [random_finite_game(rng, max_profiles=256) for _ in range(60)]
    games.append(Leaf(PayoffVector(A=Fraction(-3, 7), B=Fraction(5, 2))))
    for game in games:
        assert serialize(game) == _recursive_fmt_finite(game) + "\n"
