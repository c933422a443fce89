import json
import subprocess
import sys
from pathlib import Path

import pytest

from seqgames.cli import main

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
