"""Textual formats for games, graphs, parametrized graphs, and profiles.

One document holds one value.  The grammar is whitespace-insensitive, ``#``
starts a comment running to the end of the line, rationals are written
``p`` or ``p/q``, and affine payoffs in parametrized graphs are written like
``99 - 1*k``.  Profile keys are state ids for graph profiles; for finite-game
profiles they are action paths joined by dots, with ``.`` alone naming the
root.  ``serialize`` emits a canonical form (two-space indentation, branch
order preserved, rationals in lowest terms) that parses back to a
structurally equal value.
"""

from __future__ import annotations

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
    """Position in the input: 1-based line and column, 0-based byte offset."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        span = SourceSpan(line, column, i)
        if ch in _PUNCT:
            if ch == "-" and text[i : i + 2] == "->":
                tokens.append(Token("ARROW", "->", span))
                i += 2
                column += 2
                continue
            tokens.append(Token(_PUNCT[ch], ch, span))
            i += 1
            column += 1
            continue
        if ch.isdecimal():
            j = i
            while j < length and text[j].isdecimal():
                j += 1
            tokens.append(Token("NUMBER", text[i:j], span))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, span))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", span)
    tokens.append(Token("EOF", "", SourceSpan(line, column, length)))
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


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def error(self, expected: tuple[str, ...]) -> ParseError:
        token = self.peek()
        found = "end of input" if token.kind == "EOF" else repr(token.text)
        return ParseError("unexpected input", token.span, expected, found)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.take()
        raise self.error((what or text or kind.lower(),))

    # --- shared pieces -------------------------------------------------

    def ident(self, what: str) -> Token:
        token = self.peek()
        if token.kind == "IDENT":
            return self.take()
        raise self.error((what,))

    def rational(self) -> Fraction:
        negative = False
        if self.peek().kind == "MINUS":
            self.take()
            negative = True
        number = self.expect("NUMBER", what="number")
        value = Fraction(int(number.text))
        if self.peek().kind == "SLASH":
            self.take()
            denom = self.expect("NUMBER", what="positive denominator")
            if int(denom.text) == 0:
                raise ParseError("denominator must be positive", denom.span)
            value = Fraction(int(number.text), int(denom.text))
        return -value if negative else value

    def affine(self) -> AffineExpr:
        intercept = self.rational()
        if self.peek().kind in ("PLUS", "MINUS"):
            sign = -1 if self.take().kind == "MINUS" else 1
            magnitude = self.rational()
            self.expect("STAR", what="'*'")
            k = self.peek()
            if k.kind != "IDENT" or k.text != "k":
                raise self.error(("k",))
            self.take()
            return AffineExpr(intercept, sign * magnitude)
        return AffineExpr(intercept)

    def payoffs(self, affine: bool) -> list[tuple[str, object, SourceSpan]]:
        entries: list[tuple[str, object, SourceSpan]] = []
        while self.peek().kind == "LPAREN":
            self.take()
            player = self.ident("player id")
            self.expect("COLON", what="':'")
            value: object = self.affine() if affine else self.rational()
            self.expect("RPAREN", what="')'")
            entries.append((player.text, value, player.span))
        if not entries:
            raise self.error(("payoff entry",))
        seen: set[str] = set()
        for player, _, span in entries:
            if player in seen:
                raise ParseError(f"duplicate payoff entry for {player!r}", span)
            seen.add(player)
        return entries

    # --- finite games ---------------------------------------------------

    def finite(self) -> FiniteGame:
        # Open nodes, innermost last: each is a mover and its branches so far
        # by label, the last of them still open.  An explicit stack, so a
        # document may nest deeper than the recursion limit.
        stack: list[tuple[str, dict[str, FiniteGame | None]]] = []
        while True:
            self.expect("LPAREN", what="'('")
            head = self.peek()
            if head.kind == "KEYWORD" and head.text == "leaf":
                self.take()
                entries = self.payoffs(affine=False)
                self.expect("RPAREN", what="')'")
                done: FiniteGame = Leaf(PayoffVector({p: v for p, v, _ in entries}))  # type: ignore[misc]
                # Close the branch the leaf ends, and each node it completes.
                while True:
                    if not stack:
                        return done
                    self.expect("RPAREN", what="')'")
                    mover, branches = stack[-1]
                    branches[next(reversed(branches))] = done
                    if self.peek().kind == "LPAREN":
                        break
                    self.expect("RPAREN", what="')'")
                    stack.pop()
                    done = Node(mover, tuple(branches.items()))
            elif head.kind == "KEYWORD" and head.text == "node":
                self.take()
                stack.append((self.ident("player id").text, {}))
                if self.peek().kind != "LPAREN":
                    raise self.error(("branch",))
            else:
                raise self.error(("leaf", "node"))
            self.take()  # the '(' of the innermost open node's next branch
            label = self.ident("action label")
            branches = stack[-1][1]
            if label.text in branches:
                raise ParseError(f"duplicate action label {label.text!r}", label.span)
            branches[label.text] = None

    # --- graphs -----------------------------------------------------------

    def graph(self, parametrized: bool) -> GameGraph:
        self.take()  # 'graph' or 'pgraph'
        name = self.ident("graph name")
        self.expect("LBRACE", what="'{'")
        declared: list[tuple[str, object]] = []  # (state id, raw definition)
        spans: dict[str, SourceSpan] = {}
        while self.peek().kind == "KEYWORD" and self.peek().text == "state":
            self.take()
            sid = self.ident("state id")
            if sid.text in spans:
                raise ParseError(f"duplicate state id {sid.text!r}", sid.span)
            spans[sid.text] = sid.span
            self.expect("EQUALS", what="'='")
            declared.append((sid.text, self.state_body(parametrized)))
        if not declared:
            raise self.error(("state",))
        self.expect("KEYWORD", "start", what="'start'")
        start = self.ident("state id")
        self.expect("RBRACE", what="'}'")
        self.expect("EOF", what="end of input")
        return self.assemble_graph(name.text, declared, start, parametrized)

    def state_body(self, parametrized: bool) -> object:
        head = self.peek()
        if head.kind == "KEYWORD" and head.text == "leaf":
            self.take()
            return ("leaf", self.payoffs(affine=parametrized))
        if head.kind == "KEYWORD" and head.text == "node":
            self.take()
            mover = self.ident("player id")
            self.expect("LBRACE", what="'{'")
            edges = [self.edge(parametrized)]
            while self.peek().kind == "COMMA":
                self.take()
                edges.append(self.edge(parametrized))
            self.expect("RBRACE", what="'}'")
            labels: set[str] = set()
            for label, _, _, label_span, _ in edges:
                if label in labels:
                    raise ParseError(f"duplicate action label {label!r}", label_span)
                labels.add(label)
            return ("node", mover.text, edges)
        raise self.error(("leaf", "node"))

    def edge(
        self, parametrized: bool
    ) -> tuple[str, object, int, SourceSpan, SourceSpan]:
        label = self.ident("action label")
        self.expect("ARROW", what="'->'")
        head = self.peek()
        target: object
        if head.kind == "KEYWORD" and head.text == "leaf":
            self.take()
            target = ("inline", self.payoffs(affine=parametrized))
            target_span = head.span
        else:
            ident = self.ident("target state or leaf")
            target = ("ref", ident.text)
            target_span = ident.span
        delta = 0
        if self.peek().kind == "AT":
            at = self.take()
            if not parametrized:
                raise ParseError("stage increments are only allowed in pgraph documents", at.span)
            k = self.peek()
            if k.kind != "IDENT" or k.text != "k":
                raise self.error(("k+1",))
            self.take()
            self.expect("PLUS", what="k+1")
            one = self.expect("NUMBER", what="k+1")
            if one.text != "1":
                raise ParseError("stage increments are fixed at k+1", one.span)
            delta = 1
        return (label.text, target, delta, label.span, target_span)

    def assemble_graph(
        self,
        name: str,
        declared: list[tuple[str, object]],
        start: Token,
        parametrized: bool,
    ) -> GameGraph:
        known = {sid for sid, _ in declared}
        used = set(known)
        states: dict[str, object] = {}
        payoff_type = AffinePayoffs if parametrized else PayoffVector

        def fresh(base: str) -> str:
            candidate = base
            while candidate in used:
                candidate = candidate + "_"
            used.add(candidate)
            return candidate

        def terminal(entries: list) -> Terminal:
            return Terminal(payoff_type({p: v for p, v, _ in entries}))

        for sid, body in declared:
            if body[0] == "leaf":
                states[sid] = terminal(body[1])
                continue
            _, mover, raw_edges = body
            edges = []
            for label, target, delta, _, span in raw_edges:
                if target[0] == "inline":
                    resolved = fresh(f"{sid}_{label}")
                    states[resolved] = terminal(target[1])
                else:
                    resolved = target[1]
                    if resolved not in known:
                        raise ParseError(
                            f"edge targets undefined state {resolved!r}", span
                        )
                edges.append((label, resolved, delta))
            states[sid] = Decision(mover, tuple(edges))
        if start.text not in known:
            raise ParseError(f"start names undefined state {start.text!r}", start.span)
        graph_type = ParamGraph if parametrized else GameGraph
        return graph_type(name=name, states=states, start=start.text)  # type: ignore[arg-type]

    # --- profiles ---------------------------------------------------------

    def profile(self) -> ProfileDoc:
        self.take()  # 'profile'
        self.expect("LBRACE", what="'{'")
        entries: list[tuple[tuple[str, ...], str]] = []
        spans: list[SourceSpan] = []
        seen: set[tuple[str, ...]] = set()
        while self.peek().kind in ("IDENT", "DOT"):
            key_span = self.peek().span
            key = self.profile_key()
            if key in seen:
                raise ParseError(f"duplicate profile key {format_address(key)!r}", key_span)
            seen.add(key)
            self.expect("COLON", what="':'")
            action = self.ident("action label")
            entries.append((key, action.text))
            spans.append(key_span)
        if not entries:
            raise self.error(("profile entry",))
        self.expect("RBRACE", what="'}'")
        self.expect("EOF", what="end of input")
        return ProfileDoc(tuple(entries), tuple(spans))

    def profile_key(self) -> tuple[str, ...]:
        if self.peek().kind == "DOT":
            self.take()
            return ()
        segments = [self.ident("profile key").text]
        while self.peek().kind == "DOT":
            self.take()
            segments.append(self.ident("profile key segment").text)
        return tuple(segments)


def parse(text: str) -> Document:
    """Parse one document: a finite game, graph, pgraph, or profile."""
    parser = _Parser(tokenize(text))
    head = parser.peek()
    if head.kind == "LPAREN":
        game = parser.finite()
        parser.expect("EOF", what="end of input")
        return game
    if head.kind == "KEYWORD" and head.text == "graph":
        return parser.graph(parametrized=False)
    if head.kind == "KEYWORD" and head.text == "pgraph":
        return parser.graph(parametrized=True)
    if head.kind == "KEYWORD" and head.text == "profile":
        return parser.profile()
    raise parser.error(("'('", "graph", "pgraph", "profile"))


# --- serialization ----------------------------------------------------------


def _fmt_payoffs(payoffs: PayoffVector | AffinePayoffs) -> str:
    return " ".join(f"({pid}:{v})" for pid, v in payoffs.items())


def _fmt_finite(game: FiniteGame) -> str:
    """Render a tree with an explicit stack, so depth is not bounded by the
    recursion limit.  The stack holds subtrees with their indent, and the
    literal text to emit between them."""
    parts: list[str] = []
    stack: list[str | tuple[FiniteGame, int]] = [(game, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        sub, indent = item
        if isinstance(sub, Leaf):
            parts.append(f"(leaf {_fmt_payoffs(sub.payoffs)})")
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
