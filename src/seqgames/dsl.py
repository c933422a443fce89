"""Textual formats for games, graphs, parametrized graphs, and profiles.

One document holds one value.  The grammar is whitespace-insensitive, ``#``
starts a comment running to the end of the line, rationals are written
``p`` or ``p/q``, and affine payoffs in parametrized graphs are written like
``99 - 1*k``.  Profile keys are state ids for graph profiles; for finite-game
profiles they are action paths joined by dots, with ``.`` alone naming the
root.  ``serialize`` emits a canonical form (two-space indentation, branch
order preserved, rationals in lowest terms) that parses back to a
structurally equal value.  ``parse`` reads a canonical finite game or profile,
and a graph or pgraph written one construct per line, in one pass, and any
other document token by token, which words every error.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from seqgames.core import (
    FiniteGame,
    Leaf,
    Node,
    PayoffVector,
    TreeProfile,
    format_address,
)
from seqgames.coinduction import StationaryProfile
from seqgames.graphs import (
    AffineExpr,
    AffinePayoffs,
    Decision,
    GameGraph,
    ParamGraph,
    Terminal,
)

KEYWORDS = frozenset({"leaf", "node", "graph", "pgraph", "state", "start", "profile"})

_PUNCT = {
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


@dataclass(frozen=True)
class SourceSpan:
    """Position in the input: 1-based line and column, 0-based character
    offset into the text."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class ParseError(Exception):
    """Parse or document-level semantic error, with position information."""

    def __init__(
        self,
        message: str,
        span: SourceSpan,
        expected: tuple[str, ...] = (),
        found: str = "",
    ) -> None:
        super().__init__(message)
        self.message = message
        self.span = span
        self.expected = expected
        self.found = found

    def __str__(self) -> str:
        parts = [f"{self.span}: {self.message}"]
        if self.expected:
            parts.append("expected " + " or ".join(self.expected))
        if self.found:
            parts.append(f"found {self.found}")
        return "; ".join(parts)


def _spans(text: str, offsets: Iterable[int]) -> list[SourceSpan]:
    """The spans of ascending ``offsets`` into ``text``, in one pass.

    Tokens carry bare offsets; lines and columns are counted only here, for
    errors and profile keys.  Columns count characters, tabs and carriage
    returns included.  A comment that ends the input without a newline
    leaves the end-of-input position at the column of its ``#``.
    """
    spans = []
    line, line_start, seen = 1, 0, 0
    for offset in offsets:
        newlines = text.count("\n", seen, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", seen, offset) + 1
        seen = offset
        column = offset - line_start
        if offset == len(text) and "#" in text[line_start:]:
            column = text.index("#", line_start) - line_start
        spans.append(SourceSpan(line, column + 1, offset))
    return spans


def _span(text: str, offset: int) -> SourceSpan:
    return _spans(text, (offset,))[0]


# One alternative per token class, tried in order at each position: numbers
# before words, so "12abc" is a number and then a word, and "->" before "-".
# Whitespace and comments match as SKIP; any other character is an ERROR.
_TOKEN_CLASSES = r"""
    (?P<SKIP>[ \t\r\n]+|\#[^\n]*)
  | (?P<NUMBER>\d+)
  | (?P<WORD>\w+)
  | (?P<ARROW>->)
  | (?P<PUNCT>[(){}:,=@+\-*/.])
  | (?P<ERROR>.)
"""
_SCANNER = re.compile(_TOKEN_CLASSES, re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of ``text``, ending with an EOF token.

    Numbers are runs of decimal digits (``str.isdecimal``); a word starts
    with a letter or ``_`` and continues with letters, digits or ``_``.
    """
    tokens = []
    append = tokens.append
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        word = match.group()
        offset = match.start()
        if kind == "WORD":
            if word[0].isalpha() or word[0] == "_":
                kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            else:  # "²" is \w but no letter
                kind = "ERROR"
        elif kind == "PUNCT":
            kind = _PUNCT[word]
        if kind == "ERROR":
            raise ParseError(f"unexpected character {word[0]!r}", _span(text, offset))
        append((kind, word, offset))
    append(("EOF", "", len(text)))
    return tokens


@dataclass(frozen=True)
class ProfileDoc:
    """A parsed profile: ordered (key path, action) pairs with their spans."""

    entries: tuple[tuple[tuple[str, ...], str], ...]
    spans: tuple[SourceSpan, ...]

    def as_stationary(self) -> StationaryProfile:
        for (key, _), span in zip(self.entries, self.spans):
            if len(key) != 1:
                raise ParseError(
                    "graph profiles use plain state ids as keys", span
                )
        return StationaryProfile((key[0], action) for key, action in self.entries)

    def as_tree(self) -> TreeProfile:
        return TreeProfile((key, action) for key, action in self.entries)


Document = FiniteGame | GameGraph | ProfileDoc


def _assemble_graph(
    text: str, name: str, declared: dict[str, object], start: tuple[str, int], parametrized: bool
) -> GameGraph:
    """The graph both readers build.  ``declared`` maps each state id to its
    payoffs, or to its mover and ``_Parser.edge``'s tuples, whose target is a
    state id or an inline leaf's payoffs; ``start`` is the start id and its
    offset."""
    used = set(declared)
    states: dict[str, object] = {}
    for sid, body in declared.items():
        if not isinstance(body, tuple):
            states[sid] = Terminal(body)  # type: ignore[arg-type]
            continue
        mover, raw_edges = body
        edges = []
        for label, target, delta, _, offset in raw_edges:
            if not isinstance(target, str):  # an inline leaf, named afresh
                resolved = f"{sid}_{label}"
                while resolved in used:
                    resolved += "_"
                used.add(resolved)
                states[resolved] = Terminal(target)  # type: ignore[arg-type]
            elif target in declared:
                resolved = target
            else:
                raise ParseError(f"edge targets undefined state {target!r}", _span(text, offset))
            edges.append((label, resolved, delta))
        states[sid] = Decision(mover, tuple(edges))
    start_id, offset = start
    if start_id not in declared:
        raise ParseError(f"start names undefined state {start_id!r}", _span(text, offset))
    graph_type = ParamGraph if parametrized else GameGraph
    return graph_type(name=name, states=states, start=start_id)  # type: ignore[arg-type]


class _Parser:
    """Parser over ``tokenize``'s tuples, read by index, for every document
    ``_canonical`` gives up on; so every error comes from here.  Positions
    stay offsets until an error needs a ``SourceSpan``.
    """

    def __init__(self, text: str, tokens: list[tuple[str, str, int]]) -> None:
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] != "EOF":
            self.pos += 1
        return token

    def fail(self, message: str, offset: int) -> ParseError:
        return ParseError(message, _span(self.text, offset))

    def error(self, expected: tuple[str, ...]) -> ParseError:
        kind, text, offset = self.peek()
        found = "end of input" if kind == "EOF" else repr(text)
        return ParseError("unexpected input", _span(self.text, offset), expected, found)

    def expect(
        self, kind: str, text: str | None = None, what: str | None = None
    ) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] == kind and (text is None or token[1] == text):
            if kind != "EOF":
                self.pos += 1
            return token
        raise self.error((what or text or kind.lower(),))

    def at(self, kind: str, text: str) -> bool:
        token = self.peek()
        return token[0] == kind and token[1] == text

    # --- shared pieces -------------------------------------------------

    def ident(self, what: str) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] == "IDENT":
            self.pos += 1
            return token
        raise self.error((what,))

    def rational(self) -> Fraction:
        negative = False
        if self.peek()[0] == "MINUS":
            self.take()
            negative = True
        value = Fraction(self.number("number"))
        if self.peek()[0] == "SLASH":
            self.take()
            offset = self.peek()[2]
            denominator = self.number("positive denominator")
            if denominator == 0:
                raise self.fail("denominator must be positive", offset)
            value /= denominator
        return -value if negative else value

    def number(self, what: str) -> int:
        _, digits, offset = self.expect("NUMBER", what=what)
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.fail(f"number too long ({len(digits)} digits)", offset) from None

    def affine(self) -> AffineExpr:
        intercept = self.rational()
        if self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1 if self.take()[0] == "MINUS" else 1
            magnitude = self.rational()
            self.expect("STAR", what="'*'")
            if not self.at("IDENT", "k"):
                raise self.error(("k",))
            self.take()
            return AffineExpr(intercept, sign * magnitude)
        return AffineExpr(intercept)

    def payoffs(self, affine: bool) -> PayoffVector | AffinePayoffs:
        """Payoffs, affine in the stage counter or constant."""
        entries: list[tuple[str, object, int]] = []
        while self.peek()[0] == "LPAREN":
            self.take()
            _, player, offset = self.ident("player id")
            self.expect("COLON", what="':'")
            value: object = self.affine() if affine else self.rational()
            self.expect("RPAREN", what="')'")
            entries.append((player, value, offset))
        if not entries:
            raise self.error(("payoff entry",))
        seen: set[str] = set()
        for player, _, offset in entries:
            if player in seen:
                raise self.fail(f"duplicate payoff entry for {player!r}", offset)
            seen.add(player)
        return (AffinePayoffs if affine else PayoffVector)({p: v for p, v, _ in entries})

    # --- finite games ---------------------------------------------------

    def finite(self) -> FiniteGame:
        # Open nodes, innermost last: each is a mover and its branches so far
        # by label, the last of them still open.  An explicit stack, so a
        # document may nest deeper than the recursion limit.
        stack: list[tuple[str, dict[str, FiniteGame | None]]] = []
        while True:
            self.expect("LPAREN", what="'('")
            if self.at("KEYWORD", "node"):
                self.take()
                stack.append((self.ident("player id")[1], {}))
                if self.peek()[0] != "LPAREN":
                    raise self.error(("branch",))
                self.open_branch(stack[-1][1])
                continue
            if not self.at("KEYWORD", "leaf"):
                raise self.error(("leaf", "node"))
            self.take()
            done: FiniteGame = Leaf(self.payoffs(affine=False))  # type: ignore[arg-type]
            self.expect("RPAREN", what="')'")
            # Close the branch the leaf ends, and each node it completes.
            while True:
                if not stack:
                    return done
                self.expect("RPAREN", what="')'")
                mover, branches = stack[-1]
                branches[next(reversed(branches))] = done
                if self.peek()[0] == "LPAREN":
                    break
                self.expect("RPAREN", what="')'")
                stack.pop()
                done = Node(mover, tuple(branches.items()))
            self.open_branch(branches)

    def open_branch(self, branches: dict[str, FiniteGame | None]) -> None:
        """Read the '(' and action label that open a node's next branch."""
        self.take()
        _, label, offset = self.ident("action label")
        if label in branches:
            raise self.fail(f"duplicate action label {label!r}", offset)
        branches[label] = None

    # --- graphs -----------------------------------------------------------

    def graph(self, parametrized: bool) -> GameGraph:
        self.take()  # 'graph' or 'pgraph'
        name = self.ident("graph name")[1]
        self.expect("LBRACE", what="'{'")
        declared: dict[str, object] = {}  # state id -> definition, as _assemble_graph takes it
        while self.at("KEYWORD", "state"):
            self.take()
            _, sid, offset = self.ident("state id")
            if sid in declared:
                raise self.fail(f"duplicate state id {sid!r}", offset)
            self.expect("EQUALS", what="'='")
            declared[sid] = self.state_body(parametrized)
        if not declared:
            raise self.error(("state",))
        self.expect("KEYWORD", "start", what="'start'")
        _, start, offset = self.ident("state id")
        self.expect("RBRACE", what="'}'")
        self.expect("EOF", what="end of input")
        return _assemble_graph(self.text, name, declared, (start, offset), parametrized)

    def state_body(self, parametrized: bool) -> object:
        if self.at("KEYWORD", "leaf"):
            self.take()
            return self.payoffs(affine=parametrized)
        if self.at("KEYWORD", "node"):
            self.take()
            mover = self.ident("player id")[1]
            self.expect("LBRACE", what="'{'")
            edges = [self.edge(parametrized)]
            while self.peek()[0] == "COMMA":
                self.take()
                edges.append(self.edge(parametrized))
            self.expect("RBRACE", what="'}'")
            labels: set[str] = set()
            for label, _, _, label_offset, _ in edges:
                if label in labels:
                    raise self.fail(f"duplicate action label {label!r}", label_offset)
                labels.add(label)
            return (mover, edges)
        raise self.error(("leaf", "node"))

    def edge(self, parametrized: bool) -> tuple[str, object, int, int, int]:
        """(label, target, stage delta, label offset, target offset)."""
        _, label, label_offset = self.ident("action label")
        self.expect("ARROW", what="'->'")
        target: object
        if self.at("KEYWORD", "leaf"):
            target_offset = self.take()[2]
            target = self.payoffs(affine=parametrized)
        else:
            _, target, target_offset = self.ident("target state or leaf")
        delta = 0
        if self.peek()[0] == "AT":
            at = self.take()[2]
            if not parametrized:
                raise self.fail("stage increments are only allowed in pgraph documents", at)
            if not self.at("IDENT", "k"):
                raise self.error(("k+1",))
            self.take()
            self.expect("PLUS", what="k+1")
            _, one, offset = self.expect("NUMBER", what="k+1")
            if one != "1":
                raise self.fail("stage increments are fixed at k+1", offset)
            delta = 1
        return (label, target, delta, label_offset, target_offset)

    # --- profiles ---------------------------------------------------------

    def profile(self) -> ProfileDoc:
        self.take()  # 'profile'
        self.expect("LBRACE", what="'{'")
        entries: list[tuple[tuple[str, ...], str]] = []
        offsets: list[int] = []
        seen: set[tuple[str, ...]] = set()
        while self.peek()[0] in ("IDENT", "DOT"):
            offset = self.peek()[2]
            key = self.profile_key()
            if key in seen:
                raise self.fail(f"duplicate profile key {format_address(key)!r}", offset)
            seen.add(key)
            self.expect("COLON", what="':'")
            entries.append((key, self.ident("action label")[1]))
            offsets.append(offset)
        if not entries and self.peek()[0] != "RBRACE":
            raise self.error(("profile entry",))
        self.expect("RBRACE", what="'}'")
        self.expect("EOF", what="end of input")
        return ProfileDoc(tuple(entries), tuple(_spans(self.text, offsets)))

    def profile_key(self) -> tuple[str, ...]:
        if self.peek()[0] == "DOT":
            self.take()
            return ()
        segments = [self.ident("profile key")[1]]
        while self.peek()[0] == "DOT":
            self.take()
            segments.append(self.ident("profile key segment")[1])
        return tuple(segments)

    def document(self) -> Document:
        if self.peek()[0] == "LPAREN":
            game = self.finite()
            self.expect("EOF", what="end of input")
            return game
        if self.at("KEYWORD", "graph"):
            return self.graph(parametrized=False)
        if self.at("KEYWORD", "pgraph"):
            return self.graph(parametrized=True)
        if self.at("KEYWORD", "profile"):
            return self.profile()
        raise self.error(("'('", "graph", "pgraph", "profile"))


# ``serialize``'s canonical form, one anchored match per construct.  A game
# is a node head with its first branch, ``(node A\n  (c ``, or a whole leaf,
# ``(leaf (A:1) (B:-1/2))``; each subtree is followed by the next branch,
# ``)\n  (l ``, or by the close of its branch and node, ``))``.  A profile
# is ``profile {\n``, one ``  c.c.l: c\n`` line per entry, and ``}``.  A
# graph is ``graph g {\n`` or ``pgraph g {\n``, one line per state,
# ``  state S = leaf (A:1)\n`` or ``  state S = node A { c -> T, l -> leaf
# (A:0) }\n``, then ``  start S\n}``; a pgraph's payoffs may be affine,
# ``(A:99 - 1*k)``, and its edges may end in `` @ k+1``.
_CHILD = re.compile(r"\(node (\w+)\n *\((\w+) |\(leaf(?: \(\w+:-?\d+(?:/\d+)?\))+\)")
_AFTER = re.compile(r"\)(?:\n *\((\w+) |\))")
_ENTRY = re.compile(r"\((\w+):(-?\d+)(?:/(\d+))?(?: ([-+]) (\d+)(?:/(\d+))?\*k)?\)")
_LINE = re.compile(r"  (\.|\w+(?:\.\w+)*): (\w+)\n")
_TAIL = re.compile(r"[ \t\r\n]*\Z")
_HEAD = re.compile(r"(p?graph) (\w+) \{\n")
_START = re.compile(r"  start (\w+)\n\}")


def _graph_forms(payoff: str, stage: str) -> tuple[re.Pattern[str], re.Pattern[str]]:
    """The state line and edge patterns of a graph kind.  Each construct has
    one way to match, so a failing line backtracks in linear time."""
    payoffs = rf"(?: \(\w+:-?\d+(?:/\d+)?{payoff}\))+"
    edge, bare = (rf"({g}\w+) -> (?:leaf({g}{payoffs})|({g}\w+))({g}{stage})" for g in ("", "?:"))
    line = rf"  state (\w+) = (?:leaf({payoffs})|node (\w+) \{{ ({bare}(?:, {bare})*) \}})\n"
    return re.compile(line), re.compile(edge)


_GRAPH_FORMS = {
    "graph": _graph_forms("", ""),
    "pgraph": _graph_forms(r"(?: [-+] \d+(?:/\d+)?\*k)?", r"(?: @ k\+1)?"),
}


def _identifiers(names: Iterable[str]) -> bool:
    """Whether each name starts with a letter or ``_`` and is no keyword."""
    return not any(name in KEYWORDS or not (name[0].isalpha() or name[0] == "_") for name in names)


def _payoffs(text: str, names: set[str], affine: bool = False) -> PayoffVector | AffinePayoffs | None:
    """The payoffs a canonical payoff text spells, its players added to
    ``names``; None on a repeated player, a zero denominator or an overlong
    number."""
    found = _ENTRY.findall(text)
    try:
        values = {
            p: AffineExpr(Fraction(int(n), int(d or 1)), Fraction(int(s + m or 0), int(q or 1)))
            if affine
            else Fraction(int(n), int(d or 1))
            for p, n, d, s, m, q in found
        }
    except (ValueError, ZeroDivisionError):
        return None
    names.update(values)
    payoff_type = AffinePayoffs if affine else PayoffVector
    return payoff_type._from_sorted(tuple(sorted(values.items()))) if len(values) == len(found) else None


def _graph(text: str, keyword: str, name: str, pos: int) -> GameGraph | None:
    """The graph or pgraph whose state lines start at ``pos``, read in one
    anchored match per line and assembled as the token parser assembles it;
    None if it is not canonical or has an error."""
    line_form, edge_form = _GRAPH_FORMS[keyword]
    affine = keyword == "pgraph"
    names = {name}
    decoded: dict[str, object] = {}  # payoff text -> payoffs, or None

    def payoffs(spelled: str) -> object:
        if spelled not in decoded:
            decoded[spelled] = _payoffs(spelled, names, affine)
        return decoded[spelled]

    declared: dict[str, object] = {}
    while line := line_form.match(text, pos):
        pos = line.end()
        sid, leaf, mover, _ = line.groups()
        if sid in declared:
            return None
        if leaf is not None:
            declared[sid] = payoffs(leaf)
            continue
        parts = edge_form.findall(text, *line.span(4))
        labels = {label for label, _, _, _ in parts}
        if len(labels) < len(parts):
            return None
        names.update(labels, (mover,))
        edges = [  # offsets 0: the token parser words every error
            (label, payoffs(inline) if inline else target, 1 if stage else 0, 0, 0)
            for label, inline, target, stage in parts
        ]
        declared[sid] = (mover, edges)
    start = _START.match(text, pos)
    canonical = start and _TAIL.match(text, start.end()) and _identifiers(names.union(declared))
    if not canonical or None in decoded.values():
        return None
    try:
        return _assemble_graph(text, name, declared, (start[1], 0), affine)
    except ParseError:  # an undefined target or start
        return None


def _canonical(text: str) -> Document | None:
    """``text`` read in one pass if it is a finite game, graph, pgraph or
    profile in canonical form, else None.  Equal leaf texts share one
    ``Leaf``, equal graph payoff texts one payoffs object."""
    if text.startswith("profile {\n"):
        lines, pos = [], 10
        while line := _LINE.match(text, pos):
            lines.append(line)
            pos = line.end()
        keys, actions = [line[1] for line in lines], [line[2] for line in lines]
        paths = [() if key == "." else tuple(key.split(".")) for key in keys]
        if not (text.startswith("}", pos) and _TAIL.match(text, pos + 1)):
            return None
        if len(set(keys)) < len(keys) or not _identifiers(set(actions).union(*paths)):
            return None
        spans = (SourceSpan(i, 3, line.start() + 2) for i, line in enumerate(lines, 2))
        return ProfileDoc(tuple(zip(paths, actions)), tuple(spans))
    if head := _HEAD.match(text):
        return _graph(text, head[1], head[2], head.end())
    names: set[str] = set()
    leaves: dict[str, Leaf] = {}
    stack: list[tuple[str, dict[str, FiniteGame | None]]] = []  # as in ``_Parser.finite``
    pos = 0
    while match := _CHILD.match(text, pos):
        pos = match.end()
        mover, label = match.groups()
        if mover is not None:
            names.update((mover, label))
            stack.append((mover, {label: None}))
            continue
        done = leaves.get(match[0])
        if done is None:
            payoffs = _payoffs(match[0], names)
            if payoffs is None:
                return None
            done = leaves[match[0]] = Leaf(payoffs)
        # Close the branch the leaf ends, and each node it completes.
        while stack and (match := _AFTER.match(text, pos)):
            pos = match.end()
            mover, branches = stack[-1]
            branches[next(reversed(branches))] = done
            if match[1] is not None:
                if match[1] in branches:
                    return None
                names.add(match[1])
                branches[match[1]] = None
                break
            stack.pop()
            done = Node(mover, tuple(branches.items()))
        else:  # the root is done, or the text is not canonical
            canonical = not stack and _TAIL.match(text, pos) and _identifiers(names)
            return done if canonical else None
    return None


def parse(text: str) -> Document:
    """Parse one document: a finite game, graph, pgraph, or profile.

    A finite game or profile in ``serialize``'s canonical form is read in one
    pass, and so is a graph or pgraph written one construct per line: its
    header, ``  state S = leaf <payoffs>`` or ``  state S = node A { <edges>
    }`` with edges ``c -> T`` or ``c -> leaf <payoffs>`` (in a pgraph either
    may end in `` @ k+1``), then ``  start S`` and ``}``.  Any other text,
    and any error, is left to the token parser.
    """
    return _canonical(text) or _Parser(text, tokenize(text)).document()


# --- serialization ----------------------------------------------------------


def _fmt_payoffs(payoffs: PayoffVector | AffinePayoffs) -> str:
    return " ".join(f"({pid}:{v})" for pid, v in payoffs.items())


def _fmt_finite(game: FiniteGame) -> str:
    """Render a tree with an explicit stack, so depth is not bounded by the
    recursion limit.  The stack holds subtrees with their indent, and the
    literal text to emit between them.  Each distinct leaf object is
    rendered once; truncations share theirs."""
    parts: list[str] = []
    leaves: dict[int, str] = {}
    stack: list[str | tuple[FiniteGame, int]] = [(game, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        sub, indent = item
        if isinstance(sub, Leaf):
            if id(sub) not in leaves:
                leaves[id(sub)] = f"(leaf {_fmt_payoffs(sub.payoffs)})"
            parts.append(leaves[id(sub)])
            continue
        parts.append(f"(node {sub.mover}")
        stack.append(")")
        pad = "\n" + "  " * (indent + 1)
        for action, child in reversed(sub.branches):
            stack.extend((")", (child, indent + 1), f"{pad}({action} "))
    return "".join(parts)


def serialize(value: Document | StationaryProfile | TreeProfile) -> str:
    """Canonical text for a value; ``parse(serialize(v))`` is structurally v.

    Finite games and graphs keep their branch and declaration order;
    profiles are emitted in sorted key order; rationals print in lowest
    terms.  Output uses two-space indentation and LF newlines.
    """
    if isinstance(value, (Leaf, Node)):
        return _fmt_finite(value) + "\n"
    if isinstance(value, GameGraph):
        keyword = "pgraph" if isinstance(value, ParamGraph) else "graph"
        lines = [f"{keyword} {value.name} {{"]
        for sid, state in value.states.items():
            if isinstance(state, Terminal):
                lines.append(f"  state {sid} = leaf {_fmt_payoffs(state.payoffs)}")
            else:
                edges = ", ".join(
                    f"{action} -> {target}{' @ k+1' if delta else ''}"
                    for action, target, delta in state.edges
                )
                lines.append(f"  state {sid} = node {state.mover} {{ {edges} }}")
        lines.append(f"  start {value.start}")
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(value, (StationaryProfile, TreeProfile, ProfileDoc)):
        pairs = value.entries if isinstance(value, ProfileDoc) else value.items()
        lines = ["profile {"]
        for key, action in pairs:
            shown = key if isinstance(key, str) else format_address(key)
            lines.append(f"  {shown}: {action}")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(value).__name__}")
