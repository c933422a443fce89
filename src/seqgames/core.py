"""Domain types for sequential games: payoffs, finite game trees, profiles.

Payoffs are exact rationals (`fractions.Fraction`) and the solvers only ever
compare them, never add them, so every result is invariant under strictly
monotone re-encodings of the payoff scale.  All values in this module are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class GameError(Exception):
    """Base class for game construction and evaluation errors."""


class UnknownPlayerError(GameError, KeyError):
    """A payoff vector was queried for a player it does not cover."""

    def __str__(self) -> str:  # KeyError quotes its repr, which reads badly
        return self.args[0] if self.args else ""


class ProfileError(GameError):
    """A strategy profile does not fit the game it is applied to."""


class CapExceededError(GameError):
    """An exhaustive enumeration would exceed the configured cap."""


RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``"-3/4"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class _FrozenMap(Mapping):
    """Immutable mapping stored as a tuple of entries sorted by key.

    Two maps of the same class with the same content compare and hash equal
    whatever the construction order; maps of different classes never do.
    Lookups scan the tuple, which beats a dict or bisection at the handful
    of entries most maps hold.  The hash is computed on first use and kept,
    because maps are hashed often as set members and dict keys.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping | Iterable[tuple] = (), **named: object) -> None:
        items = dict(entries)
        items.update(named)
        self._entries: tuple[tuple, ...] = tuple(sorted(items.items()))

    @classmethod
    def _from_sorted(cls, entries: tuple[tuple, ...]):
        """A map over entries already sorted by key, keys distinct; no copy."""
        self = cls.__new__(cls)
        self._entries = entries
        return self

    def __getitem__(self, key):
        for k, value in self._entries:
            if k == key:
                return value
        raise self._missing(key)

    def _missing(self, key) -> KeyError:
        return KeyError(key)

    def __iter__(self) -> Iterator:
        return iter([k for k, _ in self._entries])

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._entries == other._entries  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash: int = hash(self._entries)
            return self._hash

    def _format_key(self, key) -> str:
        return str(key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{self._format_key(k)}:{v}" for k, v in self._entries)
        return f"{type(self).__name__}({inner})"


class PayoffVector(_FrozenMap):
    """Immutable map from player id to an exact rational payoff.

    Values are coerced with ``as_fraction``; looking up a player the vector
    does not cover raises UnknownPlayerError.
    """

    __slots__ = ()

    def __init__(
        self,
        entries: Mapping[str, RationalLike] | Iterable[tuple[str, RationalLike]] = (),
        **named: RationalLike,
    ) -> None:
        items = dict(entries)
        items.update(named)
        self._entries = tuple(sorted((pid, as_fraction(v)) for pid, v in items.items()))

    def _missing(self, player: str) -> KeyError:
        return UnknownPlayerError(f"no payoff entry for player {player!r}")

    @property
    def players(self) -> frozenset[str]:
        return frozenset(pid for pid, _ in self._entries)

    # A constant payoff is affine in the stage counter with slope 0, so it
    # answers the stage-aware calls of ``graphs.AffinePayoffs`` unchanged.
    def at_stage(self, k: int) -> "PayoffVector":
        return self

    def shifted(self, delta: int) -> "PayoffVector":
        return self


class Comparison(Enum):
    """Outcome of comparing two payoffs from one player's point of view."""

    BETTER = "better"
    EQUAL = "equal"
    WORSE = "worse"


def prefers(p: PayoffVector, q: PayoffVector, who: str) -> Comparison:
    """Compare ``p`` against ``q`` for player ``who``; comparison only.

    Raises UnknownPlayerError if either vector lacks an entry for ``who``.
    """
    mine, theirs = p[who], q[who]
    if mine > theirs:
        return Comparison.BETTER
    if mine < theirs:
        return Comparison.WORSE
    return Comparison.EQUAL


@dataclass(frozen=True)
class Leaf:
    """Terminal position distributing the payoffs."""

    payoffs: PayoffVector


@dataclass(frozen=True, eq=False, repr=False)
class Node:
    """Decision position: ``mover`` picks one of the labelled branches.

    Equality, hashing and ``repr`` give what a frozen dataclass generates,
    but walk the tree with explicit stacks, so they work on trees deeper
    than the recursion limit.  Shared subtrees are visited once per call.
    """

    mover: str
    branches: tuple[tuple[str, "FiniteGame"], ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a.mover != b.mover or len(a.branches) != len(b.branches):
                return False
            for (label, x), (other_label, y) in zip(a.branches, b.branches):
                if label != other_label:
                    return False
                if x is y or (id(x), id(y)) in seen:
                    continue
                if x.__class__ is Node and y.__class__ is Node:
                    seen.add((id(x), id(y)))
                    pending.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        # hash((mover, branches)), with each child node's hash computed
        # first and handed to the tuple hash through a _Hashed stand-in.
        hashes: dict[int, _Hashed] = {}
        stack: list[Node] = [self]
        while stack:
            node = stack[-1]
            if id(node) in hashes:
                stack.pop()
                continue
            missing = [
                child
                for _, child in node.branches
                if child.__class__ is Node and id(child) not in hashes
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            branches = tuple(
                (label, hashes[id(child)] if child.__class__ is Node else child)
                for label, child in node.branches
            )
            hashes[id(node)] = _Hashed(hash((node.mover, branches)))
        return hashes[id(self)].value

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is not Node:
                parts.append(item if isinstance(item, str) else repr(item))
                continue
            parts.append(f"Node(mover={item.mover!r}, branches=(")
            tail = ",))" if len(item.branches) == 1 else "))"
            stack.append(tail)
            for i in reversed(range(len(item.branches))):
                label, child = item.branches[i]
                stack.extend((")", child, f"{', ' if i else ''}({label!r}, "))
        return "".join(parts)


class _Hashed:
    """Stands in for a subtree whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


FiniteGame = Leaf | Node

# A node address is the path of action labels leading to it from the root.
Address = tuple[str, ...]


def leaf(entries: Mapping[str, RationalLike] | None = None, **named: RationalLike) -> Leaf:
    return Leaf(PayoffVector(entries or {}, **named))


def node(
    mover: str,
    *pairs: tuple[str, FiniteGame],
    **named: FiniteGame,
) -> Node:
    """Build a decision node; branch order follows the argument order."""
    branches = tuple(pairs) + tuple(named.items())
    return Node(mover, branches)


def walk(game: FiniteGame) -> Iterator[tuple[Address, FiniteGame]]:
    """Yield every position with its address, parents before children."""
    stack: list[tuple[Address, FiniteGame]] = [((), game)]
    while stack:
        address, sub = stack.pop()
        yield address, sub
        if isinstance(sub, Node):
            for action, child in reversed(sub.branches):
                stack.append((address + (action,), child))


def depth(game: FiniteGame) -> int:
    return max(len(address) for address, _ in walk(game))


def declared_players(game: FiniteGame) -> frozenset[str]:
    """Players appearing as movers or in leaf payoffs."""
    players: set[str] = set()
    for _, sub in walk(game):
        if isinstance(sub, Leaf):
            players.update(sub.payoffs.players)
        else:
            players.add(sub.mover)
    return frozenset(players)


@dataclass(frozen=True)
class Violation:
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def format_address(address: Address) -> str:
    """Render an address for display: ``.`` for the root, else ``c.l``."""
    return ".".join(address) if address else "."


def validate_game(game: FiniteGame, players: Iterable[str] | None = None) -> ValidationReport:
    """Check structural invariants; returns violations instead of raising.

    With ``players`` given, every leaf must carry exactly that player set;
    otherwise the set is inferred as the union over all leaves and movers.
    """
    expected = frozenset(players) if players is not None else declared_players(game)
    found: list[Violation] = []
    for address, sub in walk(game):
        where = format_address(address)
        if isinstance(sub, Leaf):
            missing = expected - sub.payoffs.players
            extra = sub.payoffs.players - expected
            for pid in sorted(missing):
                found.append(Violation(where, f"missing payoff for {pid}"))
            for pid in sorted(extra):
                found.append(Violation(where, f"payoff for undeclared player {pid}"))
            continue
        if not sub.branches:
            found.append(Violation(where, "empty branch list"))
        seen: set[str] = set()
        for action, _ in sub.branches:
            if action in seen:
                found.append(Violation(where, f"duplicate action label {action!r}"))
            seen.add(action)
        if players is not None and sub.mover not in expected:
            found.append(Violation(where, f"undeclared mover {sub.mover}"))
    return ValidationReport(tuple(found))


class TreeProfile(_FrozenMap):
    """One chosen action per decision node, keyed by node address.

    Profiles on deep trees reach hundreds of addresses, so lookups go
    through a dict; the sorted tuple still serves iteration, equality,
    hashing and repr, which prints the root as ``.`` and others as ``c.l``.
    """

    __slots__ = ("_lookup",)

    def __init__(
        self,
        choices: Mapping[Address, str] | Iterable[tuple[Address, str]] = (),
    ) -> None:
        pairs = choices.items() if isinstance(choices, Mapping) else choices
        self._lookup: dict[Address, str] = {tuple(addr): action for addr, action in pairs}
        self._entries = tuple(sorted(self._lookup.items()))

    def __getitem__(self, address: Address) -> str:
        return self._lookup[address]

    def _format_key(self, address: Address) -> str:
        return format_address(address)

    def action_at(self, address: Address) -> str:
        try:
            return self[address]
        except KeyError:
            raise ProfileError(
                f"profile not total: no choice at address {format_address(address)}"
            ) from None


def check_profile_total(game: FiniteGame, profile: TreeProfile) -> None:
    """Raise ProfileError unless ``profile`` chooses one of the actions at
    exactly the decision nodes.

    Missing choices are reported first, then choices at non-decision
    addresses, then unknown actions; each names the first offending address
    in (length, address) order.
    """
    actions = {
        address: {action for action, _ in sub.branches}
        for address, sub in walk(game)
        if isinstance(sub, Node)
    }
    given = set(profile)
    missing = actions.keys() - given
    if missing:
        first = format_address(_first_address(missing))
        raise ProfileError(f"profile not total: no choice at address {first}")
    extra = given - actions.keys()
    if extra:
        first = format_address(_first_address(extra))
        raise ProfileError(f"profile has a choice at non-decision address {first}")
    unknown = [address for address, known in actions.items() if profile[address] not in known]
    if unknown:
        first = _first_address(unknown)
        raise ProfileError(
            f"profile chooses unknown action {profile[first]!r} at {format_address(first)}"
        )


def _first_address(addresses: Iterable[Address]) -> Address:
    """The first address in (length, address) order."""
    return min(addresses, key=lambda a: (len(a), a))


def play_finite(game: FiniteGame, profile: TreeProfile) -> PayoffVector:
    """Follow the profile's chosen action at each node; return the leaf payoffs."""
    current = game
    address: Address = ()
    while isinstance(current, Node):
        chosen = profile.action_at(address)
        for action, child in current.branches:
            if action == chosen:
                current = child
                break
        else:
            raise ProfileError(
                f"profile chooses unknown action {chosen!r} at {format_address(address)}"
            )
        address = address + (chosen,)
    return current.payoffs
