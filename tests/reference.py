"""Reference implementations the tests compare the engine against.

None of these is part of the library: each is a slow, direct statement of
what some faster library code must agree with.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from seqgames.core import (
    Address,
    FiniteGame,
    GameError,
    Leaf,
    Node,
    TreeProfile,
    check_profile_total,
    walk,
)
from seqgames.finite import _best_responses, _reached, _Tree


def subgame_at(game: FiniteGame, address: Address) -> FiniteGame:
    """Return the subgame rooted at ``address``; raises on a bad path."""
    current = game
    for step, label in enumerate(address):
        if isinstance(current, Leaf):
            raise GameError(f"address {address!r} descends below a leaf at step {step}")
        for action, child in current.branches:
            if action == label:
                current = child
                break
        else:
            raise GameError(f"no action {label!r} at address {address[:step]!r}")
    return current


def internal_addresses(game: FiniteGame) -> list[Address]:
    """Addresses of all decision nodes, in depth-first (preorder) order."""
    return [address for address, sub in walk(game) if isinstance(sub, Node)]


def is_spe_by_best_response(game: FiniteGame, profile: TreeProfile) -> bool:
    """Reference check allowing arbitrary (multi-node) unilateral deviations.

    Accepts the profile iff in every subgame, every player's payoff under the
    profile already equals her best response against the others.  Used to
    confirm that one-shot deviations suffice on finite games.
    """
    check_profile_total(game, profile)
    tree = _Tree(game)
    picks = tree.picks(profile)
    reached = _reached(tree, picks)
    choose = dict(zip(tree.post, picks)).__getitem__
    for player in tree.players():
        for i in tree.post:
            best = _best_responses(tree, player, choose, i)[i]
            if best > tree.payoffs[reached[i]][player]:
                return False
    return True


def all_profiles(game: FiniteGame) -> Iterator[TreeProfile]:
    """Every total profile, in lexicographic (address, branch order) order."""
    tree = _Tree(game)
    nodes = sorted((tree.addresses[i], tree.labels[i]) for i in tree.post)
    addresses = [address for address, _ in nodes]
    for combo in itertools.product(*(labels for _, labels in nodes)):
        yield TreeProfile(zip(addresses, combo))
