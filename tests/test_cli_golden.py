"""The CLI's observable behaviour on every shipped document, pinned byte for byte.

``tests/golden/cli_transcript.txt`` holds stdout, stderr and the exit code
of each invocation in ``INVOCATIONS``, run in-process through
``seqgames.cli.main`` from the repository root.  To re-record it after an
intended output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``
from the repository root and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from seqgames.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_transcript.txt"

DOCUMENTS = tuple(
    f"games/{path.name}"
    for path in sorted((ROOT / "games").iterdir())
    if path.suffix in (".game", ".ggraph", ".pgraph")
)
PROFILES = tuple(
    f"games/{path.name}" for path in sorted((ROOT / "games").glob("*.profile"))
)
FORMATS = ("table", "json")
CLOSURES = ("quit", "const:(A:1/2,B:0)")
PRESET_RUNS = (
    ("matching_pennies",),
    ("zero_one_finite",),
    ("zero_one_finite", "--turns", "4"),
    ("zero_one_graph",),
    ("dollar_auction",),
    ("dollar_auction", "--stake", "7/2"),
)


def _invocations() -> list[tuple[str, ...]]:
    runs: list[tuple[str, ...]] = []
    for doc in DOCUMENTS:
        runs.append(("validate", doc))
        for fmt in FORMATS:
            runs.append(("solve", doc, "--format", fmt))
            for profile in PROFILES:
                runs.append(("check", doc, "--profile", profile, "--format", fmt))
            runs.append(("enumerate", doc, "--format", fmt))
            runs.append(("enumerate", doc, "--cap", "2", "--format", fmt))
            runs.append(("escalate", doc, "--format", fmt))
            for closure in CLOSURES:
                runs.append(("extrapolate", doc, "--depths", "1..12", "--closure", closure, "--format", fmt))
        for depth in ("1", "3", "8"):
            for closure in CLOSURES:
                runs.append(("truncate", doc, "--depth", depth, "--closure", closure))
    for preset in PRESET_RUNS:
        runs.append(("preset", *preset))
    return runs


INVOCATIONS = tuple(_invocations())


def _run(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def render_transcript() -> str:
    """Every invocation with its exit code, stdout and stderr, run from the
    repository root so the paths in messages stay relative."""
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        parts = []
        for argv in INVOCATIONS:
            code, out, err = _run(argv)
            parts.append(
                f"$ seqgames {' '.join(argv)}\n"
                f"exit: {code}\n"
                f"--- stdout\n{out}"
                f"--- stderr\n{err}"
                "=== end\n"
            )
        return "".join(parts)
    finally:
        os.chdir(previous)


def test_cli_transcript_matches_golden(monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    assert render_transcript() == GOLDEN.read_text(encoding="utf-8")


def test_one_parser_serves_successive_calls(monkeypatch):
    # main keeps one parser per process; a usage error must not leave it
    # changed for the calls after it.
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.chdir(ROOT)
    golden = {}
    for block in GOLDEN.read_text(encoding="utf-8").split("=== end\n")[:-1]:
        command, rest = block.split("\n", 1)
        golden[command] = rest
    runs = (
        ("solve", "games/zero_one_6.game", "--format", "table"),
        ("solve", "games/dollar_auction_100.pgraph", "--format", "table"),
        ("truncate", "games/zero_one.ggraph", "--closure", "quit"),
        ("truncate", "games/zero_one.ggraph", "--depth", "3", "--closure", "quit"),
    )
    for argv in runs:
        code, out, err = _run(argv)
        rendered = f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"
        command = f"$ seqgames {' '.join(argv)}"
        if command in golden:
            assert rendered == golden[command], command
        else:
            assert code == 4 and err == "usage error: the following arguments are required: --depth\n"
    assert build_parser() is not build_parser()


# The transcript stops at depth 12.  These digests pin the stage-keyed
# dollar auction at depths 1..300, a table of about 45,000 positions, run
# from the repository root: the JSON payload echoes the input path as given.
DEEP_PGRAPH_DIGESTS = {
    "table": "d445f8f29373bed6d6e167a3076773420db25ae737bf22f54b3f4945958664a3",
    "json": "c095f76ffedd04b0fa136513a719cd6025ddcf357147cab6e9d7b76a1107ed04",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_deep_pgraph_extrapolation_matches_pinned_digest(monkeypatch, fmt):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.chdir(ROOT)
    argv = ("extrapolate", "games/dollar_auction_100.pgraph", "--depths", "1..300", "--closure", "quit", "--format", fmt)
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_PGRAPH_DIGESTS[fmt]


if __name__ == "__main__":
    os.environ["NO_COLOR"] = "1"
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_transcript())
    sys.stdout.write(f"wrote {len(INVOCATIONS)} invocations to {GOLDEN.relative_to(ROOT)}\n")
