import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from seqgames.core import Leaf, Node, PayoffVector, TreeProfile, walk
from seqgames.coinduction import StationaryProfile
from seqgames import dsl
from seqgames.dsl import (
    KEYWORDS,
    ParseError,
    ProfileDoc,
    SourceSpan,
    _canonical,
    _Parser,
    _spans,
    parse,
    serialize,
    tokenize,
)
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
from seqgames.truncation import ConstantClosure, DeciderQuitsClosure, truncate
from tests.conftest import (
    random_finite_game,
    random_game_graph,
    random_param_graph,
    random_sloped_graph,
)
from tests.test_cli import WIDE


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
    # Errors at and inside leaves, which parse otherwise reads whole.
    for text, column, message in (
        ("(leaf (A:1/0))", 12, "denominator must be positive"),
        ("(leaf (A:1) (A:2))", 14, "duplicate payoff entry for 'A'"),
        ("(leaf (node:1))", 8, "unexpected input; expected player id; found 'node'"),
        ("(node A (leaf (A:1)))", 10, "unexpected input; expected action label; found 'leaf'"),
        ("(leaf (A:1)) (leaf (A:2))", 14, "unexpected input; expected end of input; found '('"),
        (
            "graph g { state S = leaf (leaf (A:1)) start S }",
            27,
            "unexpected input; expected player id; found 'leaf'",
        ),
    ):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == f"line 1, column {column}: {message}"


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


def test_empty_profiles_round_trip():
    for profile in (TreeProfile({}), StationaryProfile({})):
        assert serialize(profile) == "profile {\n}\n"
    assert parse(serialize(TreeProfile({}))).as_tree() == TreeProfile({})
    assert parse(serialize(StationaryProfile({}))).as_stationary() == StationaryProfile({})
    assert parse("profile { }") == _Parser("profile {}", tokenize("profile {}")).document()
    # A profile that is neither empty nor an entry keeps its message.
    with pytest.raises(ParseError) as info:
        parse("profile { 5 }")
    assert str(info.value) == "line 1, column 11: unexpected input; expected profile entry; found '5'"


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
    text = "(leaf\n  (A:1))"
    tokens = tokenize(text)
    assert tokens[:3] == [("LPAREN", "(", 0), ("KEYWORD", "leaf", 1), ("LPAREN", "(", 8)]
    assert tokens[-1] == ("EOF", "", len(text))
    assert _spans(text, [1, 8]) == [SourceSpan(1, 2, 1), SourceSpan(2, 3, 8)]


def test_comment_at_end_of_input_keeps_the_column_of_its_hash():
    with pytest.raises(ParseError) as info:
        parse("(leaf (A:1) # c")
    assert info.value.span == SourceSpan(1, 13, 15)
    with pytest.raises(ParseError) as info:
        parse("(leaf (A:1)\n# c\n")
    assert info.value.span == SourceSpan(3, 1, 16)


def test_scanner_lexical_rules():
    assert [t[:2] for t in tokenize("12abc ١ １ S² x->-")] == [
        ("NUMBER", "12"),
        ("IDENT", "abc"),
        ("NUMBER", "١"),
        ("NUMBER", "１"),
        ("IDENT", "S²"),
        ("IDENT", "x"),
        ("ARROW", "->"),
        ("MINUS", "-"),
        ("EOF", ""),
    ]
    for char in "²½\x0b\u00a0$":
        with pytest.raises(ParseError) as info:
            tokenize(f"(leaf\n (A:{char}1))")
        assert str(info.value) == f"line 2, column 5: unexpected character {char!r}"


# --- the character-loop scanner the regex scanner replaced, as reference ------

_PUNCT_KINDS = {
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ":": "COLON",
    ",": "COMMA",
    "=": "EQUALS",
    "@": "AT",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    ".": "DOT",
}
_NEWLINE = re.compile(r"\n[ \t\r]*")


def _reference_tokenize(text):
    """(kind, text, span) triples, positions tracked character by character."""
    tokens = []
    line, column = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            end = _NEWLINE.match(text, i).end()
            line += 1
            column = end - i
            i = end
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == "#":
            end = text.find("\n", i)
            i = length if end < 0 else end
            continue
        span = SourceSpan(line, column, i)
        if ch in _PUNCT_KINDS:
            if ch == "-" and text[i : i + 2] == "->":
                tokens.append(("ARROW", "->", span))
                i += 2
                column += 2
                continue
            tokens.append((_PUNCT_KINDS[ch], ch, span))
            i += 1
            column += 1
            continue
        if ch.isdecimal():
            j = i
            while j < length and text[j].isdecimal():
                j += 1
            tokens.append(("NUMBER", text[i:j], span))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("KEYWORD" if word in KEYWORDS else "IDENT", word, span))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(("EOF", "", SourceSpan(line, column, length)))
    return tokens


_INSERTS = ("²", "½", "١", "１", "12abc", "7" * 5000, "\t", "$", "->", "-", "(", ")")


def _mutate(rng: random.Random, text: str) -> str:
    """One to three seeded edits of a valid document."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(7)
        cut = rng.randint(0, len(text))
        if edit == 0:
            text = text.replace("\n", "\r\n")
        elif edit == 1:
            text = text.replace("  ", "\t", rng.randint(1, 5))
        elif edit == 2:
            end = text.find("\n", cut)
            end = len(text) if end < 0 else end
            text = text[:end] + " # c(" + text[end:]
        elif edit == 3:
            text = text.rstrip("\n") + rng.choice(("#", " # end", "\n# end"))
        elif edit == 4:
            text = text[:cut] + rng.choice(_INSERTS) + text[cut:]
        elif edit == 5:
            text = text[:cut] + text[cut + 1 :]
        else:
            text = text[:cut]
    return text


def _mutation_corpus(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    bases = [
        serialize(zero_one_graph()),
        serialize(dollar_auction(100)),
        serialize(matching_pennies_sequential()),
        "profile { .: c c: l c.c: c }\n",
    ]
    bases += [serialize(random_finite_game(rng, max_depth=3)) for _ in range(20)]
    bases += [serialize(_random_graph_doc(rng)) for _ in range(10)]
    bases += [serialize(_random_pgraph_doc(rng)) for _ in range(10)]
    return [_mutate(rng, rng.choice(bases)) for _ in range(count)]


def _check_against_reference(text: str) -> None:
    """The scanner agrees with the reference on every token and position,
    and every parse error points where the reference puts that token."""
    try:
        expected = _reference_tokenize(text)
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert (str(info.value), info.value.span) == (str(error), error.span)
        return
    tokens = tokenize(text)
    spans = _spans(text, [offset for _, _, offset in tokens])
    assert [(k, t, s.line, s.column, s.offset) for (k, t, _), s in zip(tokens, spans)] == [
        (k, t, s.line, s.column, s.offset) for k, t, s in expected
    ]
    at = {span.offset: span for _, _, span in expected}
    try:
        doc = parse(text)
    except ParseError as error:
        assert error.span == at[error.span.offset]
        assert str(error).startswith(f"{at[error.span.offset]}: ")
    else:
        if isinstance(doc, ProfileDoc):
            assert all(span == at[span.offset] for span in doc.spans)


def _parse_agrees_with_token_parser(text: str) -> bool:
    """``parse`` gives what the token parser gives: an equal value of the
    same type, profile spans included, or the same message and span.
    Returns whether the canonical reader read the document."""
    canonical = _canonical(text)
    try:
        expected = _Parser(text, tokenize(text)).document()
    except ParseError as error:
        # The reader accepts nothing the grammar rejects.
        assert canonical is None
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.span) == (str(error), error.span)
        return False
    value = parse(text)
    assert type(value) is type(expected) and value == expected
    if canonical is None:
        return False
    assert type(canonical) is type(expected) and canonical == expected
    assert _exact(canonical) == _exact(expected)
    return True


def _exact(value) -> object:
    """What equality leaves out of a graph: the order of its states and the
    types of its stage deltas and payoff values."""
    if not isinstance(value, GameGraph):
        return None
    shape = []
    for sid, state in value.states.items():
        if isinstance(state, Terminal):
            values = state.payoffs.values()
            shape.append((sid, [(type(v), type(getattr(v, "slope", v))) for v in values]))
        else:
            shape.append((sid, [type(delta) for _, _, delta in state.edges]))
    return shape


# Leaves in canonical form that serialize would not write, and ones that
# break the payoff grammar.
_ODD_LEAVES = (
    "(leaf (B:1) (A:2))",
    "(leaf (_x:-0) (S²:007/014))",
    "(leaf (A:٣/١))",
)
_FAULTY_LEAVES = (
    "(leaf (A:1/0))",
    "(leaf (A:-3/00))",
    "(leaf (A:1) (A:2))",
    "(leaf (B:1) (A:2) (B:1))",
    "(leaf (node:1))",
    "(leaf (A:1) (state:2))",
    "(leaf (_x:1) (²S:1/2))",
    "(leaf (²:1))",
    "(leaf (9A:1))",
    "(leaf (A:" + "7" * 5000 + "))",
    "(leaf (A:1/" + "7" * 5000 + "))",
)


def _node(mover="A", first="c", second="l", leaf="(leaf (A:1))"):
    return f"(node {mover}\n  ({first} {leaf})\n  ({second} (leaf (A:0))))\n"


def _profile(*lines):
    return "profile {\n" + "".join(f"  {line}\n" for line in lines) + "}\n"


# Names the grammar rejects, each tried in every name position.
_BAD_NAMES = (*sorted(KEYWORDS), "²", "²c", "9c", "Ⅻ")
_EDGE_CASES = (
    *(_node(mover=name) for name in _BAD_NAMES),
    *(_node(first=name) for name in _BAD_NAMES),
    *(_node(second=name) for name in _BAD_NAMES),
    *(_node(leaf=f"(leaf ({name}:1))") for name in _BAD_NAMES),
    *(_profile(f"{name}: c") for name in _BAD_NAMES),
    *(_profile(f"c.{name}.c: c") for name in _BAD_NAMES),
    *(_profile(f"c.{name}: c") for name in _BAD_NAMES),
    *(_profile(f"c: {name}") for name in _BAD_NAMES),
    _node(second="c"),
    _node(leaf="(leaf (A:1) (B:2) (A:1))"),
    _profile(".: c", "c.c: l", "c.c: c"),
    _profile(".: c", ".: c"),
    _profile("c..c: l"),
    _profile("c.: l"),
    _profile(".c: l"),
    _profile(".: c", "c: l").replace("\n", "\r\n"),
    _profile(".: c", "c: l") + "# end",
    _profile(".: c", "c: l") + " \t\r\n\n",
    _profile(".: c", "c: l") + "}",
    _profile(".: c", "c: l").rstrip("\n"),
    _profile(".: c", "c_2: l", "c_2.x²: c"),
    _profile(".: c"),
    _profile(),
    "profile {\n}",
    "profile {\n\n  .: c\n}\n",
    _node().replace("\n", "\r\n"),
    _node().replace("  ", "\t"),
    _node() + "# end",
    _node() + " \t\r\n\n",
    _node() + "x",
    _node().rstrip("\n") + ")",
    _node(leaf="(leaf (A:1))  "),
    _node(leaf="(leaf (A:" + "7" * 5000 + "))"),
    _node(leaf="(leaf (A:" + "7" * 4000 + "/" + "3" * 4000 + "))"),
    "(node A\n  (c (leaf (A:1)))",
    "(node A\n  (c (leaf (A:1))))",
    "(node A)\n",
    "(leaf)\n",
    "",
)


def _graph_text(**fields) -> str:
    """A small graph in the one-construct-per-line form, with ``fields``
    replacing its names, stage suffix or keyword."""
    values = dict(kind="graph", name="g", s="S", t="T", mover="A", label="c", stage="", p="A", q="B")
    values.update(fields)
    return (
        "{kind} {name} {{\n"
        "  state {s} = node {mover} {{ {label} -> {s}{stage}, l -> {t}, x -> leaf ({p}:1) (B:2) }}\n"
        "  state {t} = leaf (A:0) ({q}:1)\n"
        "  start {s}\n"
        "}}\n"
    ).format(**values)


# Graph documents the one-pass reader must leave to the token parser: bad
# names in each name position, and each error or non-canonical spelling.
_GRAPH_REFUSALS = (
    *(
        _graph_text(**{field: name})
        for field in ("name", "s", "t", "mover", "label", "p", "q")
        for name in _BAD_NAMES
    ),
    _graph_text(stage=" @ k+1"),
    _graph_text(kind="pgraph", stage=" @ k+2"),
    _graph_text(t="S"),
    _graph_text(label="l"),
    _graph_text(q="A"),
    _graph_text(p="B"),
    _graph_text().replace("l -> T", "l -> U"),
    _graph_text().replace("start S", "start U"),
    _graph_text().replace("(A:1)", "(A:1/0)"),
    _graph_text(kind="pgraph").replace("(A:1)", "(A:1 - 1/0*k)"),
    _graph_text().replace("(A:1)", "(A:" + "7" * 5000 + ")"),
    _graph_text(kind="pgraph").replace("(A:1)", "(A:1 + " + "7" * 5000 + "*k)"),
    _graph_text().replace("(A:1)", "(A:1 - 1*k)"),
    _graph_text().replace("\n", "\r\n"),
    _graph_text().replace("  ", "\t"),
    _graph_text().replace("\n  start", " # c\n  start"),
    _graph_text().replace("{ c", "{c"),
    _graph_text().replace("  start S\n", ""),
    _graph_text().replace("  state T = leaf (A:0) (B:1)\n", ""),
    _graph_text().rstrip("\n") + " x",
)
# And ones it must read, though serialize would not write them.
_GRAPH_ACCEPTANCES = (
    _graph_text(s="S²", name="_g", mover="É٣"),
    _graph_text(t="S_x"),
    _graph_text().replace("(A:1)", "(A:٣/١)"),
    _graph_text(kind="pgraph", stage=" @ k+1").replace("(A:1)", "(A:-٣ - ١/٢*k)"),
    _graph_text(kind="pgraph").replace("(B:2)", "(B:2/4 + 0*k) @ k+1") + " \t\r\n\n",
)


def _rational_text(rng: random.Random) -> str:
    numerator = rng.randint(-6, 9)
    return str(numerator) if rng.random() < 0.6 else f"{numerator}/{rng.randint(1, 6)}"


def _inline_leaf_doc(rng: random.Random, parametrized: bool) -> str:
    """A random graph or pgraph written one construct per line with inline
    leaves, as serialize never writes it: payoffs out of player order and
    not in lowest terms, in a pgraph affine, and stage suffixes on edges to
    states and to leaves alike.  A declared state may take the name an
    inline leaf would get, which then gets a ``_`` suffix."""

    def leaf() -> str:
        entries = []
        for player in rng.sample("AB", 2):
            value = _rational_text(rng)
            if parametrized and rng.random() < 0.6:
                slope = rng.choice(("0", "1", "3", "1/2", "4/6"))
                value += f" {rng.choice('+-')} {slope}*k"
            entries.append(f"({player}:{value})")
        return "leaf " + " ".join(entries)

    ids = [f"S{i}" for i in range(rng.randint(1, 5))]
    lines = []
    for sid in ids:
        edges = []
        for j in range(rng.randint(1, 3)):
            target = leaf() if rng.random() < 0.5 else rng.choice(ids + ["T"])
            stage = " @ k+1" if parametrized and rng.random() < 0.4 else ""
            edges.append(f"a{j} -> {target}{stage}")
        lines.append(f"  state {sid} = node {rng.choice('AB')} {{ {', '.join(edges)} }}")
    lines.append(f"  state T = {leaf()}")
    if rng.random() < 0.3:
        lines.append(f"  state S0_a0 = {leaf()}")
    rng.shuffle(lines)
    head = f"{'pgraph' if parametrized else 'graph'} g {{"
    return "\n".join([head, *lines, f"  start {rng.choice(ids)}", "}"]) + "\n"


def _graph_corpus(seed: int) -> list[str]:
    """Random graphs and pgraphs in serialize's form and the inline-leaf
    form, and seeded mutants of them."""
    rng = random.Random(seed)
    makers = (random_game_graph, random_param_graph, random_sloped_graph)
    texts = [serialize(rng.choice(makers)(rng)) for _ in range(90)]
    texts += [_inline_leaf_doc(rng, rng.random() < 0.5) for _ in range(90)]
    return texts + [_mutate(rng, rng.choice(texts)) for _ in range(600)]


def _random_tree_profile(rng: random.Random, game) -> TreeProfile:
    return TreeProfile(
        (address, rng.choice(sub.branches)[0])
        for address, sub in walk(game)
        if isinstance(sub, Node)
    )


def _differential_corpus() -> list[str]:
    rng = random.Random(13)
    texts = [serialize(random_finite_game(rng, max_depth=3)) for _ in range(200)]
    closure = ConstantClosure(PayoffVector(A=Fraction(-1, 2), B=3))
    for _ in range(60):
        graph = rng.choice((random_game_graph, random_param_graph))(rng)
        texts.append(serialize(truncate(graph, rng.randint(1, 8), closure)))
    for _ in range(60):
        game = random_finite_game(rng, max_depth=4)
        if isinstance(game, Node):
            texts.append(serialize(_random_tree_profile(rng, game)))
        ids = [f"S{i}" for i in range(rng.randint(1, 6))]
        texts.append(serialize(StationaryProfile((sid, rng.choice("abc")) for sid in ids)))
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(600)]
    for leaf in _ODD_LEAVES + _FAULTY_LEAVES:
        texts += [leaf, f"{leaf}\n", _node(leaf=leaf)]
    return texts + list(_EDGE_CASES)


def test_scanner_matches_character_loop_reference():
    for text in _mutation_corpus(seed=12, count=2000):
        _check_against_reference(text)


def test_canonical_reader_agrees_with_token_parser():
    canonical = graphs = 0
    for text in _mutation_corpus(seed=12, count=2000) + _differential_corpus() + _graph_corpus(14):
        read = _parse_agrees_with_token_parser(text)
        canonical += read
        graphs += read and text.startswith(("graph ", "pgraph "))
    for leaf in _ODD_LEAVES:
        assert _canonical(leaf) is not None and _canonical(_node(leaf=leaf)) is not None
    for text in _GRAPH_REFUSALS:
        _parse_agrees_with_token_parser(text)
        assert _canonical(text) is None
    for text in _GRAPH_ACCEPTANCES:
        assert _parse_agrees_with_token_parser(text)
    # 609 documents take the canonical path: the 200 random trees, the 60
    # truncations, the 100-odd profiles, the 180 random graphs and pgraphs,
    # and the mutants and hand-made cases that stay canonical.  190 of them
    # are graphs or pgraphs.
    assert canonical >= 400
    assert graphs >= 185


def test_parse_never_reads_tokens_for_canonical_documents(monkeypatch):
    def refuse(*args):
        raise AssertionError("read token by token")

    values = [zero_one_finite(1500)]
    values.append(truncate(parse(WIDE), 10, DeciderQuitsClosure()))
    rng = random.Random(17)
    values += [random_finite_game(rng, max_depth=4) for _ in range(50)]
    values += [_random_tree_profile(rng, values[1]), TreeProfile({(): "c"})]
    values.append(StationaryProfile(S0="c", S1="l", _x="x2"))
    values += [zero_one_graph(), dollar_auction(100), TreeProfile({}), StationaryProfile({})]
    makers = (random_game_graph, random_param_graph, random_sloped_graph)
    values += [maker(rng) for maker in makers for _ in range(20)]
    games = Path(__file__).resolve().parent.parent / "games"
    texts = [path.read_text(encoding="utf-8") for path in sorted(games.glob("*.[gp]graph"))]
    texts += [_inline_leaf_doc(rng, parametrized) for parametrized in (False, True) for _ in range(20)]
    texts += [_graph_text(), _graph_text(kind="pgraph", stage=" @ k+1")]
    expected = [parse(text) for text in texts]
    monkeypatch.setattr(dsl, "tokenize", refuse)
    monkeypatch.setattr(dsl, "_Parser", refuse)
    for value in values:
        parsed = parse(serialize(value))
        if isinstance(value, TreeProfile):
            parsed = parsed.as_tree()
        elif isinstance(value, StationaryProfile):
            parsed = parsed.as_stationary()
        assert parsed == value
    assert len(texts) == 44 and [parse(text) for text in texts] == expected


def test_deep_spine_round_trips_with_equality_and_hash():
    # 5,000 levels: the generated dataclass methods would recurse past the
    # recursion limit on both the original and the parsed copy.
    spine = zero_one_finite(5000)
    again = parse(serialize(spine))
    assert again is not spine
    assert again == spine and not (again != spine)
    assert hash(again) == hash(spine)
    assert repr(again) == repr(spine)


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
