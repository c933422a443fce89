import decimal
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from seqgames import coinduction, core
from seqgames.cli import main
from seqgames.dsl import parse, serialize
from seqgames.finite import _Tree, backward_induction
from seqgames.truncation import DeciderQuitsClosure, extrapolation_report, summarize_depth, truncate

GAMES = Path(__file__).resolve().parent.parent / "games"
SRC = Path(__file__).resolve().parent.parent / "src"

# Stderr that means the child never ran the CLI to a verdict.
CHILD_CRASH_MARKERS = (
    "Traceback (most recent call last)",
    "Error while finding module specification for 'seqgames.cli'",
)


def run_cli(*argv, cwd=None, hash_seed=None):
    # The child runs the CLI of this tree's src/, whether or not a copy of
    # seqgames is installed and whatever directory pytest runs from.
    env = {"PATH": "", "NO_COLOR": "1", "PYTHONPATH": str(SRC)}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "seqgames.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    if any(marker in result.stderr for marker in CHILD_CRASH_MARKERS):
        pytest.fail(result.stderr, pytrace=False)
    return result


def game(path: str) -> str:
    return str(GAMES / path)


def test_validate_ok():
    result = run_cli("validate", game("zero_one.ggraph"))
    assert result.returncode == 0
    assert result.stdout.strip() == "OK"


def test_validate_reports_violations(tmp_path):
    bad = tmp_path / "bad.ggraph"
    bad.write_text("graph g { state S = node A { x -> S, x -> S } start S }")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("(node A (c (leaf (A:1)")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "parse error" in result.stderr


def test_solve_matching_pennies():
    result = run_cli("solve", game("matching_pennies.game"))
    assert result.returncode == 0
    assert "equilibria: 2" in result.stdout


def test_solve_json_is_byte_deterministic():
    first = run_cli("solve", game("matching_pennies.game"), "--format", "json")
    second = run_cli("solve", game("matching_pennies.game"), "--format", "json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["equilibria"] == 2
    assert payload["payoff"] == {"A": "1", "B": "1"}


def test_check_spe_exit_zero():
    result = run_cli(
        "check", game("zero_one.ggraph"), "--profile", game("alice_leaves.profile")
    )
    assert result.returncode == 0
    assert "SPE" in result.stdout


def test_check_refuted_exit_one():
    result = run_cli(
        "check",
        game("dollar_auction_100.pgraph"),
        "--profile",
        game("never_bid.profile"),
    )
    assert result.returncode == 1
    assert "gains 99" in result.stdout


def test_check_tree_profile_on_finite_game():
    result = run_cli(
        "check",
        game("zero_one_7.game"),
        "--profile",
        game("zero_one_7_a_continues.profile"),
    )
    assert result.returncode == 0


def test_check_takes_the_empty_profile(tmp_path, capsys):
    # The only profile of a game with no decision point has no entries.
    profile = tmp_path / "none.profile"
    profile.write_text("profile {\n}\n", encoding="utf-8")
    for name, text in (
        ("leaf.game", "(leaf (A:1) (B:2))\n"),
        ("end.ggraph", "graph g {\n  state T = leaf (A:1) (B:2)\n  start T\n}\n"),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["check", str(tmp_path / name), "--profile", str(profile)]) == 0
        assert "SPE" in capsys.readouterr().out


def test_check_json_payload():
    result = run_cli(
        "check",
        game("dollar_auction_100.pgraph"),
        "--profile",
        game("never_bid.profile"),
        "--format",
        "json",
    )
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "Refuted"
    assert payload["state"] == "S0"
    assert payload["stage"] == 0
    assert payload["gain"] == "99"


def test_check_root_only_usage_error_on_graphs():
    result = run_cli(
        "check",
        game("zero_one.ggraph"),
        "--profile",
        game("alice_leaves.profile"),
        "--root-only",
    )
    assert result.returncode == 4


def test_check_profile_mismatch_is_input_error(tmp_path):
    partial = tmp_path / "partial.profile"
    partial.write_text("profile { SA: l }")
    result = run_cli("check", game("zero_one.ggraph"), "--profile", str(partial))
    assert result.returncode == 2


def test_unknown_action_error_does_not_depend_on_hash_seed(tmp_path):
    # Six unknown actions; the first in (length, address) order is reported.
    bad = tmp_path / "bad.profile"
    choices = ["  .: c"] + [
        f"  {'.'.join('c' * k)}: x{k}" for k in range(1, 7)
    ]
    bad.write_text("profile {\n" + "\n".join(choices) + "\n}\n")
    argv = ("check", game("zero_one_7.game"), "--profile", str(bad))
    first = run_cli(*argv, hash_seed=0)
    second = run_cli(*argv, hash_seed=1)
    assert first.returncode == second.returncode == 2
    assert first.stderr == second.stderr
    assert "profile chooses unknown action 'x1' at c\n" in first.stderr


def test_enumerate_table():
    result = run_cli("enumerate", game("zero_one.ggraph"))
    assert result.returncode == 0
    assert "equilibria: 2" in result.stdout
    assert "not admissible" in result.stdout


def test_enumerate_cap_exceeded():
    result = run_cli("enumerate", game("zero_one.ggraph"), "--cap", "2")
    assert result.returncode == 3


def test_cap_below_one_is_a_usage_error(capsys):
    for command in ("enumerate", "escalate"):
        for cap in ("0", "-3"):
            assert main([command, game("zero_one.ggraph"), "--cap", cap]) == 4
            assert capsys.readouterr().err == "usage error: argument --cap: cap must be >= 1\n"
    assert main(["escalate", game("zero_one.ggraph"), "--cap", "1"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: stationary profile space 4 exceeds cap 1\n"
    )


def test_enumerate_json_deterministic():
    first = run_cli("enumerate", game("dollar_auction_100.pgraph"), "--format", "json")
    second = run_cli("enumerate", game("dollar_auction_100.pgraph"), "--format", "json")
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    verdicts = [entry["verdict"] for entry in payload["profiles"]]
    assert verdicts.count("SPE") == 2
    assert verdicts.count("NotAdmissible") == 2


def test_truncate_emits_parseable_game(tmp_path):
    out = tmp_path / "cut.game"
    result = run_cli(
        "truncate",
        game("zero_one.ggraph"),
        "--depth",
        "7",
        "--closure",
        "quit",
        "--output",
        str(out),
    )
    assert result.returncode == 0
    reference = (GAMES / "zero_one_7.game").read_text()
    assert out.read_text() == reference


def test_truncate_missing_closure_is_input_error():
    result = run_cli(
        "truncate",
        game("zero_one.ggraph"),
        "--depth",
        "2",
        "--closure",
        "map:SB=(A:1,B:0)",
    )
    assert result.returncode == 2


def test_extrapolate_parity_disagreement():
    result = run_cli(
        "extrapolate",
        game("zero_one.ggraph"),
        "--depths",
        "1..12",
        "--closure",
        "quit",
    )
    assert result.returncode == 0
    assert "ParityDisagreement" in result.stdout


def test_extrapolate_json_deterministic():
    args = (
        "extrapolate",
        game("zero_one.ggraph"),
        "--depths",
        "1..8",
        "--closure",
        "quit",
        "--format",
        "json",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["verdict"] == "ParityDisagreement"


@pytest.mark.parametrize(
    "closure, message",
    [
        ("const:(A:1)", "error: invalid game: c: missing payoff for B (1 violation(s))\n"),
        ("map:SA=(A:1,B:0)", "error: no closure payoff for cut state 'SB'\n"),
    ],
)
def test_extrapolate_closure_errors(closure, message, tmp_path):
    # Depth 1 cuts SB: const names only A, the map has no entry for SB.
    result = run_cli("extrapolate", game("zero_one.ggraph"), "--depths", "1..12", "--closure", closure)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)
    # truncate fails the same way and writes no file.
    cut = tmp_path / "cut.game"
    result = run_cli("truncate", game("zero_one.ggraph"), "--depth", "1", "--closure", closure, "-o", str(cut))
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)
    assert not cut.exists()
    # Depth 0 is the cut start state alone, a valid one-player game.
    result = run_cli("extrapolate", game("zero_one.ggraph"), "--depths", "0", "--closure", closure)
    assert result.returncode == 0, result.stderr
    result = run_cli("truncate", game("zero_one.ggraph"), "--depth", "0", "--closure", closure)
    assert (result.returncode, result.stdout[:11]) == (0, "(leaf (A:1)"), result.stderr


def test_overlong_number_is_a_positioned_parse_error(tmp_path):
    big = tmp_path / "big.game"
    big.write_text("(leaf (A:" + "1" * 5000 + "))")
    result = run_cli("validate", str(big))
    assert result.returncode == 2
    assert result.stderr == "parse error: line 1, column 10: number too long (5000 digits)\n"


def test_escalate_zero_one():
    result = run_cli("escalate", game("zero_one.ggraph"))
    assert result.returncode == 0
    assert "cycle [SA(c) SB(c)]" in result.stdout


def test_escalate_dollar_auction_json():
    result = run_cli("escalate", game("dollar_auction_100.pgraph"), "--format", "json")
    payload = json.loads(result.stdout)
    witness = payload["witness"]
    assert [step["state"] for step in witness["prefix"]] == ["S0"]
    assert {step["state"] for step in witness["cycle"]} == {"DA", "DB"}


def test_preset_round_trips_against_shipped_files(tmp_path):
    pairs = [
        (("preset", "matching_pennies"), "matching_pennies.game"),
        (("preset", "zero_one_finite", "--turns", "7"), "zero_one_7.game"),
        (("preset", "zero_one_finite", "--turns", "6"), "zero_one_6.game"),
        (("preset", "zero_one_graph"), "zero_one.ggraph"),
        (("preset", "dollar_auction", "--stake", "100"), "dollar_auction_100.pgraph"),
    ]
    for argv, filename in pairs:
        result = run_cli(*argv)
        assert result.returncode == 0
        assert result.stdout == (GAMES / filename).read_text()


def test_preset_serializes_trees_deeper_than_the_recursion_limit():
    result = run_cli("preset", "zero_one_finite", "--turns", "1500")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("(node A\n  (c (node B\n")
    assert result.stdout.count("(node ") == 1500
    assert result.stdout.count("(leaf ") == 1501
    assert result.stdout.count("(") == result.stdout.count(")")


def test_deep_finite_documents_read_back(tmp_path, capsys):
    path = str(tmp_path / "deep.game")
    assert main(["preset", "zero_one_finite", "--turns", "1500", "-o", path]) == 0
    capsys.readouterr()
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert main(["solve", path, "--format", "json"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["payoff"] == {"A": "0", "B": "1"}
    assert solved["equilibria"] == 2**750


# Two states that each continue two ways or exit: the equilibrium count of
# the depth-14 truncation has 4,932 digits, more than str(int) converts.
WIDE = (
    "graph wide { state S = node A { a -> S, b -> R, x -> T } "
    "state R = node B { a -> S, b -> R, x -> U } "
    "state T = leaf (A:1) (B:0) state U = leaf (A:0) (B:1) start S }"
)


def test_counts_beyond_the_int_digit_limit_print_exactly(tmp_path, capsys):
    source, tree = tmp_path / "wide.ggraph", str(tmp_path / "wide.game")
    source.write_text(WIDE)
    count = summarize_depth(parse(WIDE), 14, DeciderQuitsClosure()).count
    digits = str(decimal.Decimal(count))
    assert len(digits) == 4932
    limit = sys.get_int_max_str_digits()
    # CPython's default, whatever an earlier test left behind, so that a
    # limit left lifted by the commands below shows.
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["truncate", str(source), "--depth", "14", "--closure", "quit", "-o", tree]) == 0
        assert main(["solve", tree]) == 0
        assert capsys.readouterr().out.startswith(f"equilibria: {digits}\n")
        assert main(["solve", tree, "--format", "json"]) == 0
        solved = json.loads(capsys.readouterr().out, parse_int=decimal.Decimal)
        assert solved["equilibria"] == decimal.Decimal(count)
        assert main(["extrapolate", str(source), "--depths", "13..14", "--closure", "quit"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[3].split()[:2] == ["14", digits]
        argv = ["extrapolate", str(source), "--depths", "14", "--closure", "quit", "--format", "json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out, parse_int=decimal.Decimal)
        assert report["depths"][0]["equilibrium_count"] == decimal.Decimal(count)
        # The limit is lifted only while the JSON is rendered.
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_reprs_print_counts_beyond_the_digit_limit():
    graph = parse(WIDE)
    limit = sys.get_int_max_str_digits()
    # CPython's default, whatever an earlier test left behind.
    sys.set_int_max_str_digits(4300)
    try:
        summary = backward_induction(truncate(graph, 14, DeciderQuitsClosure()))
        depth = summarize_depth(graph, 14, DeciderQuitsClosure())
        report = extrapolation_report(graph, [14], DeciderQuitsClosure())
        digits = core._count_text(summary.count)
        assert len(digits) == 4932
        assert depth.count == report.summaries[0].count == summary.count
        for text in (repr(summary), repr(depth), repr(report), str(report)):
            assert f"count={digits}," in text
        assert repr(report) == str(report)
        assert repr(depth) == (
            f"DepthSummary(depth=14, closure='quit', count={digits}, "
            f"characterization={depth.characterization!r}, payoff={depth.payoff!r})"
        )
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


# What ``truncate`` writes for WIDE at depth 14 with the quit closure.
WIDE_14_SHA256 = "9434089676e3fb48dcc8e2014735d8a6a27a46c09c682932f0ab83b098cebf61"


def test_wide_truncation_is_one_object_per_table_position():
    graph = parse(WIDE)
    tree = truncate(graph, 14, DeciderQuitsClosure())
    table, _ = _Tree.from_graph(graph, [14], lambda sid, stage: None)
    distinct, pending = {}, [tree]
    while pending:
        sub = pending.pop()
        if id(sub) not in distinct:
            distinct[id(sub)] = sub
            pending.extend(child for _, child in getattr(sub, "branches", ()))
    assert len(distinct) == len(table.movers) == 31
    text = serialize(tree)
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_14_SHA256
    # 49,150 positions on the parsed side: equality visits each pair once.
    assert parse(text) == tree


def test_extrapolation_report_json_prints_counts_beyond_the_digit_limit():
    count = summarize_depth(parse(WIDE), 14, DeciderQuitsClosure()).count
    limit = sys.get_int_max_str_digits()
    # CPython's default, whatever an earlier test left behind.
    sys.set_int_max_str_digits(4300)
    try:
        text = extrapolation_report(parse(WIDE), [14], DeciderQuitsClosure()).to_json()
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    report = json.loads(text, parse_int=decimal.Decimal)
    assert report["depths"][0]["equilibrium_count"] == decimal.Decimal(count)


def test_each_command_compiles_the_game_once(tmp_path, capsys, monkeypatch):
    # Validation runs on the tree the solvers compile, so every finite-game
    # command compiles its game exactly once and walks it no other way.
    compiled, walked = [], []
    compile_game, walk = _Tree.__init__, core.walk

    def counting(self, tree):
        compiled.append(tree)
        compile_game(self, tree)

    def counting_walk(tree):
        walked.append(tree)
        return walk(tree)

    monkeypatch.setattr(_Tree, "__init__", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("seqgames") and getattr(module, "walk", None) is walk:
            monkeypatch.setattr(module, "walk", counting_walk)
    good = game("matching_pennies.game")
    profile = game("matching_pennies_eq.profile")
    bad = tmp_path / "bad.game"
    bad.write_text("(node A (c (leaf (A:1))) (l (leaf (A:0) (B:1))))")
    for argv, code in [
        (["solve", good], 0),
        (["solve", good, "--format", "json"], 0),
        (["check", good, "--profile", profile], 0),
        (["check", good, "--profile", profile, "--root-only"], 0),
        (["validate", good], 0),
        (["solve", str(bad)], 2),
        (["solve", str(bad), "--format", "json"], 2),
        (["check", str(bad), "--profile", profile], 2),
        (["validate", str(bad)], 2),
    ]:
        compiled.clear()
        capsys.readouterr()
        assert main(argv) == code, argv
        assert (len(compiled), walked) == (1, []), argv
        out, err = capsys.readouterr()
        if code == 2 and argv[0] == "validate":
            assert out == "violation: c: missing payoff for B\n"
        elif code == 2:
            assert err == "error: invalid game: c: missing payoff for B\n", argv


@pytest.mark.parametrize(
    "path, opening",
    [
        ("zero_one.ggraph", "(node A\n  (c (node B\n"),
        ("dollar_auction_100.pgraph", "(node A\n  (pass (leaf (A:0) (B:0)))\n  (bid (node B\n"),
    ],
    ids=["zero_one", "dollar_auction"],
)
def test_truncate_deeper_than_the_recursion_limit(path, opening):
    # Both shipped graphs have one continuing edge per decision, so the
    # depth-1000 unfolding is a spine: 1,000 decisions, one exit leaf off
    # each and the cut leaf at the bottom.
    result = run_cli("truncate", game(path), "--depth", "1000", "--closure", "quit")
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith(opening)
    assert result.stdout.count("(node ") == 1000
    assert result.stdout.count("(leaf ") == 1001


def test_usage_errors_exit_four():
    result = run_cli("solve", game("zero_one.ggraph"))
    assert result.returncode == 4
    result = run_cli("enumerate", game("zero_one_7.game"))
    assert result.returncode == 4
    result = run_cli("truncate", game("zero_one.ggraph"), "--depth", "2", "--closure", "huh")
    assert result.returncode == 4
    result = run_cli("unknown-command")
    assert result.returncode == 4


def test_stake_that_is_no_fraction_is_a_usage_error(capsys):
    assert main(["preset", "dollar_auction", "--stake", "1/0"]) == 4
    assert capsys.readouterr().err == (
        "usage error: argument --stake: invalid Fraction value: '1/0'\n"
    )
    assert main(["preset", "dollar_auction", "--stake", "abc"]) == 4
    assert capsys.readouterr().err == (
        "usage error: argument --stake: invalid Fraction value: 'abc'\n"
    )


def test_arguments_out_of_range_are_usage_errors(capsys):
    for argv, message in (
        (
            ["truncate", game("zero_one.ggraph"), "--depth", "-1", "--closure", "quit"],
            "argument --depth: depth must be >= 0",
        ),
        (["preset", "zero_one_finite", "--turns", "0"], "need at least one turn"),
        (
            ["preset", "dollar_auction", "--stake", "1"],
            "stake must be at least 2 for raising to stay attractive",
        ),
    ):
        assert main(argv) == 4
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_preset_options_it_does_not_take_are_usage_errors(capsys):
    for argv, message in (
        (["preset", "dollar_auction", "--turns", "0"], "preset dollar_auction does not take --turns"),
        (["preset", "zero_one_finite", "--stake", "1"], "preset zero_one_finite does not take --stake"),
        (["preset", "zero_one_graph", "--stake", "100"], "preset zero_one_graph does not take --stake"),
    ):
        assert main(argv) == 4
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_escalate_does_not_check_enumerated_equilibria_again(monkeypatch, capsys):
    checked = []
    check = coinduction._ProfileChecker.check

    def counting(self, *args, **kwargs):
        checked.append(args)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(coinduction._ProfileChecker, "check", counting)
    assert main(["escalate", game("dollar_auction_100.pgraph")]) == 0
    assert "escalation witness: prefix S0(bid); cycle [DB(raise) DA(raise)]" in capsys.readouterr().out
    assert checked == []


def test_depths_that_do_not_parse_are_a_usage_error(capsys):
    for text in ("a..b", "1,,x", "1..2..3"):
        assert main(["extrapolate", game("zero_one.ggraph"), "--depths", text, "--closure", "quit"]) == 4
        assert capsys.readouterr().err == (
            f"usage error: argument --depths: invalid depths value: {text!r}\n"
        )


def test_running_out_of_memory_exits_three_without_a_traceback():
    # 10^12 depths do not fit in the 1 GiB of address space the child gets;
    # exit 1 would read as a refuted profile.
    argv = ["extrapolate", game("zero_one.ggraph"), "--depths", "1..1000000000000", "--closure", "quit"]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from seqgames.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stderr) == (3, "out of memory\n")


def test_validate_rejects_non_decimal_digits_with_a_position(tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("(leaf (A:²))", encoding="utf-8")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert result.stderr == "parse error: line 1, column 10: unexpected character '²'\n"


def test_missing_file_is_input_error():
    result = run_cli("validate", "no/such/file.game")
    assert result.returncode == 2


def test_no_color_respected():
    result = run_cli(
        "check", game("zero_one.ggraph"), "--profile", game("alice_leaves.profile")
    )
    assert result.returncode == 0
    assert "SPE" in result.stdout
    assert "\x1b[" not in result.stdout
