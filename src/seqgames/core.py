"""Domain types for sequential games: payoffs, finite game trees, profiles.

Payoffs are exact rationals (`fractions.Fraction`) and the solvers only ever
compare them, never add them, so every result is invariant under strictly
monotone re-encodings of the payoff scale.  All values in this module are
immutable after construction and safe to share between threads.  The hash
cached on a payoff map or a game node is written once, on first use, and
any thread that writes it writes the same value.
"""

from __future__ import annotations

import decimal
import operator
from collections.abc import Collection, ItemsView, Iterable, Iterator, Mapping
from enum import Enum
from fractions import Fraction

# ``validate_game`` reaches ``finite`` (which imports this module) on the
# package it was imported with, as ``graphs.unfold`` reaches ``coinduction``.
import seqgames


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


class _FrozenRecordError(AttributeError):
    """A record's attribute was assigned or deleted."""


# Stores an attribute past a record's ``__setattr__``.  Unlike a write into
# ``__dict__``, it keeps the values in the object, as a class's own
# ``__init__`` would, so a record allocates no dict.
_setattr = object.__setattr__


def _refuse_assignment(self, name: str, value: object) -> None:
    raise _FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise _FrozenRecordError(f"cannot delete field {name!r}")


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, named: dict) -> tuple:
    """The field values of a record built from ``args`` and ``named``, in
    field order, or the TypeError the call deserves."""
    if len(args) > len(names):
        raise TypeError(f"{qualname}() takes {len(names)} positional arguments, not {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name in named:
            values.append(named.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{qualname}() missing required argument: {name!r}")
    for name in named:
        kind = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{qualname}() got {kind} argument {name!r}")
    return tuple(values)


def _record(cls: type) -> type:
    """Make ``cls`` a frozen record of the fields its body annotates, in order.

    A class-level value is the field's default.  A field whose name starts
    with ``_`` is left out of ``==``, ``hash`` and ``repr``.  The class gets
    an ``__init__`` that takes the fields positionally, then by keyword,
    stores them with ``_setattr`` and calls ``__post_init__`` if the class
    has one; an ``__eq__`` that compares the other fields with a record of
    the same class only; a ``__hash__`` of their tuple; a
    ``Name(field=value, ...)`` ``__repr__``; and a ``__setattr__`` and
    ``__delattr__`` that raise ``_FrozenRecordError``.  A method the class
    body defines wins.  These behave as ``@dataclass(frozen=True)``'s, made
    without compiling source.  The field names are kept as ``_fields``.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    shown = tuple(name for name in names if not name.startswith("_"))
    post_init = hasattr(cls, "__post_init__")
    # The compared values as a tuple; ``attrgetter`` makes one of two or more.
    if len(shown) > 1:
        key = operator.attrgetter(*shown)
    elif shown:
        get = operator.attrgetter(*shown)
        key = lambda self: (get(self),)
    else:
        key = lambda self: ()

    def __init__(self, *args, **named) -> None:
        if named or len(args) != len(names):
            args = _bind(self.__class__.__qualname__, names, defaults, args, named)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        shown_fields = ", ".join(f"{name}={value!r}" for name, value in zip(shown, key(self)))
        return f"{self.__class__.__qualname__}({shown_fields})"

    cls._fields = names
    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__setattr__": _refuse_assignment,
        "__delattr__": _refuse_deletion,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


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

    def items(self) -> ItemsView:
        return _EntriesView(self)

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


class _EntriesView(ItemsView):
    """``items()`` of a ``_FrozenMap``, iterating its stored entry tuples."""

    __slots__ = ()

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._mapping._entries)


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


@_record
class Leaf:
    """Terminal position distributing the payoffs."""

    payoffs: PayoffVector

    # The parser and ``unfold`` build one leaf and one node per position, so
    # both skip the generic record ``__init__``.
    def __init__(self, payoffs: PayoffVector) -> None:
        _setattr(self, "payoffs", payoffs)


@_record
class Node:
    """Decision position: ``mover`` picks one of the labelled branches.

    Equality, hashing and ``repr`` give what ``_record`` makes of the fields,
    but walk the tree with explicit stacks, so they work on trees deeper
    than the recursion limit.  Shared subtrees are visited once per call.
    Each node keeps its hash once computed, so hashing it again, or any tree
    that contains it, does not walk below it.
    """

    mover: str
    branches: tuple[tuple[str, "FiniteGame"], ...]

    def __init__(self, mover: str, branches: tuple[tuple[str, FiniteGame], ...]) -> None:
        _setattr(self, "mover", mover)
        _setattr(self, "branches", branches)

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
        try:
            return self._hash
        except AttributeError:
            pass
        # hash((mover, branches)), children first, so the tuple hash finds
        # each child node's hash already stored on it.
        stack: list[Node] = [self]
        while stack:
            node = stack[-1]
            missing = [
                child
                for _, child in node.branches
                if child.__class__ is Node and "_hash" not in child.__dict__
            ]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if "_hash" not in node.__dict__:
                node.__dict__["_hash"] = hash((node.mover, node.branches))
        return self._hash

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


@_record
class Violation:
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


@_record
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _count_text(count: int) -> str:
    """``str(count)`` past ``sys.get_int_max_str_digits()``: Decimal has no limit."""
    return str(decimal.Decimal(count))


def _count_repr(self) -> str:
    """The record repr, with the ``count`` field printed by ``_count_text``."""
    shown = (
        f"{name}={_count_text(self.count) if name == 'count' else repr(getattr(self, name))}"
        for name in self._fields if not name.startswith("_")
    )
    return f"{type(self).__qualname__}({', '.join(shown)})"


def format_address(address: Address) -> str:
    """Render an address for display: ``.`` for the root, else ``c.l``."""
    return ".".join(address) if address else "."


def validate_game(game: FiniteGame, players: Iterable[str] | None = None) -> ValidationReport:
    """Check structural invariants; returns violations instead of raising.

    With ``players`` given, every leaf must carry exactly that player set
    and every mover must be in it; otherwise the set is inferred as the
    union over all leaves and movers.  Checked on the tree the solvers
    compile and solve (``finite._Tree.violations``); their summaries'
    ``subgame_values`` are computed on first access.
    """
    return ValidationReport(seqgames.finite._Tree(game).violations(players))


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
    _require_total(actions, profile)


def _require_total(actions: Mapping[Address, Collection[str]], profile: TreeProfile) -> None:
    """``check_profile_total`` given each decision node's actions by address."""
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
