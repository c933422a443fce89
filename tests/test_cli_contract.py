"""The CLI at scale, pinned by exit code, sha256 digest and time bound.

Each command runs in a child interpreter under the bound its comment
explains, so a slide back to exponential or quadratic work fails instead of
hanging the suite.  JSON outputs name their input by the path given, so
each command runs from its input's directory, or from the repository root.
"""

import hashlib
import json
import random

import pytest

from seqgames import backward_induction, brute_force_spe, enumerate_spe_profiles, leaf, node, play_finite
from seqgames.dsl import serialize
from tests.test_cli import WIDE, WIDE_14_SHA256, run_cli, run_python
from tests.test_cli_golden import DEEP_PGRAPH_DIGESTS, ROOT
from tests.test_coinduction import ring_graph


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ok(*argv, cwd, timeout) -> str:
    """The stdout of a command that must exit 0 within ``timeout`` seconds."""
    result = run_cli(*argv, cwd=cwd, timeout=timeout)
    assert (result.returncode, result.stderr) == (0, ""), argv
    return result.stdout


def profile_text(choices) -> str:
    """A profile document choosing each (key, action) pair in order."""
    return "profile {\n" + "".join(f"  {key}: {action}\n" for key, action in choices) + "}\n"


# Extrapolation solves all depths on one shared table; re-solving each
# depth of zero_one would take minutes and exceed the 60 s bound.  Past
# stage 0 every dollar auction payoff falls by 1 per stage for both bidders,
# so the table keys every later stage as stage 1 and moves values by that
# slope: depths 1..300 make a table of 1,201 positions, where keys by stage
# made about 45,000.  A solver whose cost per position grew with the
# table's size or with the depth would exceed the bound.  Depths 1..600
# make a table of 2,401 positions, and each run takes about 0.2 s; keyed by
# stage the table had 181,500 positions and a run took about 2.6 s (CPython
# 3.11, 2 vCPU), so these two runs get 10 s.  Their digests are the bytes
# the table keyed by stage prints.
@pytest.mark.parametrize(
    "document, depths, fmt, timeout, digest",
    [
        ("games/zero_one.ggraph", "1..2000", "table", 60, None),
        ("games/dollar_auction_100.pgraph", "1..300", "table", 60, DEEP_PGRAPH_DIGESTS["table"]),
        ("games/dollar_auction_100.pgraph", "1..600", "table", 10,
         "ce76407771ed11e69e37dbb76af3838bb8d9162fa49129111419dfeca69ce54b"),
        ("games/dollar_auction_100.pgraph", "1..600", "json", 10,
         "a62e0583e6defea7ddeb3ceaf6b134f0e894c46bab0b332565985fac1b084191"),
    ],
    ids=["zero_one-2000", "auction-300", "auction-600", "auction-600-json"],
)
def test_deep_extrapolation(document, depths, fmt, timeout, digest):
    argv = ("extrapolate", document, "--depths", depths, "--closure", "quit", "--format", fmt)
    out = ok(*argv, cwd=ROOT, timeout=timeout)
    assert digest is None or sha256(out) == digest


def test_deep_round_trip(tmp_path):
    # A depth-5000 truncation is a 50 MB document, nearly all of it
    # indentation; a scanner that backtracks on long runs of whitespace
    # would exceed the 60 s bounds.  check then reads the representative as
    # a 25 MB profile.  Read in one pass, the check takes about 3 s and
    # 0.3 GB; read token by token, about 35 s and 2.6 GB, past its 30 s
    # bound.
    ok("truncate", "games/zero_one.ggraph", "--depth", "5000", "--closure", "quit",
       "-o", str(tmp_path / "deep.game"), cwd=ROOT, timeout=60)
    ok("validate", str(tmp_path / "deep.game"), cwd=ROOT, timeout=60)
    solved = ok("solve", "deep.game", "--format", "json", cwd=tmp_path, timeout=60)
    assert sha256(solved) == "c7e7123fd380304d1b37e853b06019847632be2464fdc095cf89f3275241160a"
    (tmp_path / "deep.profile").write_text(profile_text(json.loads(solved)["representative"].items()))
    checked = ok("check", "deep.game", "--profile", "deep.profile", "--format", "json", cwd=tmp_path, timeout=30)
    assert sha256(checked) == "e081f7ad1b97fbdce7214e58fa64d8534fefbe0dbf7ab7abf6ca5a46a56eecb5"


def test_deep_check(tmp_path):
    # check on a 1,500-level spine, in both modes, for two profiles built
    # from the solve output: the representative (an equilibrium) and
    # quitting at every node (refuted, exit 1).  Both checks walk the tree
    # with explicit stacks; each run takes about half a second, and the
    # 2.3 MB profile is read in one pass.
    ok("truncate", "games/zero_one.ggraph", "--depth", "1500", "--closure", "quit",
       "-o", str(tmp_path / "spine.game"), cwd=ROOT, timeout=60)
    solved = ok("solve", "spine.game", "--format", "json", cwd=tmp_path, timeout=60)
    chosen = json.loads(solved)["representative"]
    (tmp_path / "rep.profile").write_text(profile_text(chosen.items()))
    (tmp_path / "quit.profile").write_text(profile_text((key, "l") for key in chosen))
    for name, code, flag, digest in (
        ("rep", 0, (), "0be930efcd946f228f7b7fbc39fe61cd5ca2264679d0f48300303723d50c265d"),
        ("quit", 1, (), "551b053e35266378d821f8853bdd538e4f971073ec0c0fa3a1fce998a64e2ecc"),
        ("rep", 0, ("--root-only",), "06a52a3bb74e8b5873308d7e102548d0177271350eba370502634b25ff074bbf"),
        ("quit", 1, ("--root-only",), "7a2d273c4ff7b70e0e539067f52d2f4a43a2cb014c7267c6900c406687f9e153"),
    ):
        argv = ("check", "spine.game", "--profile", f"{name}.profile", *flag, "--format", "json")
        result = run_cli(*argv, cwd=tmp_path, timeout=60)
        assert (result.returncode, result.stderr, sha256(result.stdout)) == (code, "", digest), argv


def test_wide_round_trip(tmp_path):
    # The depth-14 truncation of WIDE has 49,150 positions but only 31
    # distinct subgames: truncate builds one shared object per subgame and
    # writes the whole 2.2 MB tree.  The parser reads its 32,767 leaves, 2
    # distinct, whole and shares them.  Its equilibrium count has 4,932
    # digits, more than str(int) converts, and solve prints it exactly.
    # Every command runs under 60 s.
    (tmp_path / "wide.ggraph").write_text(WIDE)
    ok("truncate", "wide.ggraph", "--depth", "14", "--closure", "quit", "-o", "wide.game", cwd=tmp_path, timeout=60)
    assert hashlib.sha256((tmp_path / "wide.game").read_bytes()).hexdigest() == WIDE_14_SHA256
    ok("validate", "wide.game", cwd=tmp_path, timeout=60)
    solved = ok("solve", "wide.game", "--format", "json", cwd=tmp_path, timeout=60)
    assert sha256(solved) == "76ca096327828176ca0d16723ec1fb22f2799a4648f5950682b3d603766c635b"
    solved = ok("solve", "wide.game", cwd=tmp_path, timeout=60)
    assert sha256(solved) == "2e4a6d269c781a53027cc45235f707ed42db5dde309e4432f0800339c4f50ae4"


def test_long_graph_documents_validate_in_linear_time(tmp_path):
    # A 20,000-state ring graph (1.2 MB) and a one-state pgraph whose 20,001
    # edges, 20,000 of them to inline leaves, stand on one line (0.8 MB).
    # parse reads both one line at a time, and validate takes about 0.4 s
    # and 0.25 s on them; read token by token they took about 1.2-1.5 s and
    # 1.0 s (CPython 3.11, 2 vCPU).  A reader whose cost grew faster than
    # linearly in the length of a line would exceed the 10 s bounds.  The
    # chain and prime cycles of the same bounds are in test_cli.py.
    n = 20000
    lines = ["graph ring {"]
    for i in range(n):
        lines.append(f"  state S{i} = node {'AB'[i % 2]} {{ c -> S{(i + 1) % n}, l -> leaf (A:{i % 5}) (B:{i % 3}) }}")
    lines += ["  start S0", "}"]
    (tmp_path / "long-ring.ggraph").write_text("\n".join(lines) + "\n")
    edges = ", ".join(f"e{i} -> leaf (A:{i % 7} - 1*k) (B:{i % 5} + 1/2*k)" for i in range(n)) + ", c -> S @ k+1"
    (tmp_path / "long-fan.pgraph").write_text(f"pgraph fan {{\n  state S = node A {{ {edges} }}\n  start S\n}}\n")
    for document in ("long-ring.ggraph", "long-fan.pgraph"):
        assert ok("validate", document, cwd=tmp_path, timeout=10) == "OK\n"


def stage_ring(n: int) -> str:
    """A pgraph ring of ``n`` decision states, every third edge advancing
    the stage and A's payoffs falling with it."""
    lines = ["pgraph ring {"]
    for i in range(n):
        stage = " @ k+1" if i % 3 == 0 else ""
        lines.append(f"  state S{i} = node {'AB'[i % 2]} {{ c -> S{(i + 1) % n}{stage}, l -> T{i} }}")
        lines.append(f"  state T{i} = leaf (A:{5 * i % 4} - 1*k) (B:{(3 * i + 1) % 4})")
    lines += ["  start S0", "}"]
    return "\n".join(lines) + "\n"


# A 16-state ring has exactly 2^16 stationary profiles, the default cap.
# escalate checks them all in about half a second, and enumerate prints them
# all as a table in under a second and as 41 MB of JSON in about a second;
# the 20 s bounds catch a slide back to minutes-long enumeration or
# per-profile rendering.  The digests pin that a walk emitting whole subtrees
# at once gives every profile the verdict, and the order, that a
# leaf-by-leaf walk gives it.  The 12-state pgraph ring has 4,096 profiles,
# 3 equilibria and about 3,100 refutations past stage 0; its digests hold
# the stage test and the walk's whole subtrees on a pgraph to the same.
@pytest.mark.parametrize(
    "name, text, digests",
    [
        ("ring16.ggraph", serialize(ring_graph(16)), (
            "256196e1a7c8d5e7205af74cf84ef26c6ba99153a4761ef7d7f94e1d716be3c1",
            "e446b6c9036bdd85e5e8cf77ef37c9e11ba791fa72325ba2bbd4bde19b8fdc75",
            "4726e73d9216c1af69d06bec396ed882bb2e8209f6c158c413b6664fb74f67bb",
        )),
        ("ring12.pgraph", stage_ring(12), (
            "ec828f44c751ad094af4fa78f620a295b5c2a2801081a4705f61711bc473bdeb",
            "cb5e5086fac19a7fcff677c590cc33d7414b354cfdb0f2d4da984820172b5b8b",
            "50ba363b4bd0c3b6dd46d30c99031cecb6c3bf79436d29cabb786248f1a6b813",
        )),
    ],
    ids=["ring16", "ring12"],
)
def test_enumeration_at_the_cap(tmp_path, name, text, digests):
    (tmp_path / name).write_text(text)
    outputs = (
        ok("escalate", name, "--format", "json", cwd=tmp_path, timeout=20),
        ok("enumerate", name, cwd=tmp_path, timeout=20),
        ok("enumerate", name, "--format", "json", cwd=tmp_path, timeout=20),
    )
    assert tuple(map(sha256, outputs)) == digests


def binary_tree(rng, nodes, high=None):
    """``nodes`` two-way decision nodes, each grown at a random leaf; each
    player's leaf payoffs distinct, or drawn from 0..high.  Every leaf is
    built apart, so equal payoffs are distinct objects."""
    kids = [()]
    open_leaves = [0]
    for _ in range(nodes):
        grown = open_leaves.pop(rng.randrange(len(open_leaves)))
        kids[grown] = (len(kids), len(kids) + 1)
        open_leaves += kids[grown]
        kids += [(), ()]
    leaves = len(kids) - nodes
    values = {
        p: rng.sample(range(leaves), leaves) if high is None else [rng.randint(0, high) for _ in range(leaves)]
        for p in "AB"
    }
    built = [None] * len(kids)
    for i in reversed(range(len(kids))):  # children come after their parent
        if kids[i]:
            built[i] = node(rng.choice("AB"), ("l", built[kids[i][0]]), ("r", built[kids[i][1]]))
        else:
            built[i] = leaf(A=values["A"].pop(), B=values["B"].pop())
    return built[0]


def oracle_beyond_the_cap():
    game = binary_tree(random.Random(60), 60)
    assert brute_force_spe(game, cap=2**60) == {backward_induction(game).representative}
    for seed in (1, 2, 3):
        game = binary_tree(random.Random(seed), 20, high=1)
        brute = brute_force_spe(game)
        assert brute == set(enumerate_spe_profiles(game)), seed
        summary = backward_induction(game)
        assert summary.count == len(brute), seed
        values = summary.subgame_values[()]
        assert len(set(values)) == len(values), seed
        assert set(values) == {play_finite(game, p) for p in brute}, seed


def test_tree_oracle_beyond_the_cap():
    # brute_force_spe searches only the prefixes no one-shot deviation
    # refutes, so its work grows with the equilibria, not the profiles.  A
    # 60-node binary tree with distinct payoffs has 2^60 profiles and one
    # equilibrium, found in milliseconds; a scan of every profile exceeds the
    # 30 s bound, in a child so that it fails instead of hanging the suite.
    # Three tie-heavy trees of 2^20 profiles, the default cap, have 1,088 to
    # 2,560 equilibria each, which enumeration must match; the solver's count
    # must be their number, and its root values their payoffs, each once.
    code = "from tests.test_cli_contract import oracle_beyond_the_cap; oracle_beyond_the_cap()"
    result = run_python("-c", code, cwd=ROOT, timeout=30)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
