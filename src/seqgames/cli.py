"""Command-line front end.

Exit codes: 0 success (a checked profile is an equilibrium), 1 a checked
profile is refuted or not admissible, 2 parse or validation errors in the
inputs, 3 an enumeration cap was exceeded, 4 usage errors.  Structured
output (``--format json``) is byte-deterministic for fixed inputs and
renders every number as an exact rational string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from seqgames.core import (
    FiniteGame,
    GameError,
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    CapExceededError,
    format_address,
    validate_game,
    walk,
)
from seqgames.coinduction import (
    DEFAULT_STATIONARY_CAP,
    NotAdmissible,
    Refuted,
    SpeVerdict,
    StationaryProfile,
    check_spe,
    enumerate_stationary_spe,
)
from seqgames.dsl import ParseError, ProfileDoc, parse, serialize
from seqgames.escalation import (
    credible_threat_report,
    escalation_witness,
    rationalizable_actions,
)
from seqgames.finite import backward_induction, is_spe_finite
from seqgames.gallery import PRESETS, build_preset
from seqgames.graphs import GameGraph, ParamGraph, validate_graph
from seqgames.truncation import (
    ClosureRule,
    extrapolation_report,
    parse_closure_spec,
    truncate,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _styled(text: str, code: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _good(text: str) -> str:
    return _styled(text, "32")


def _bad(text: str) -> str:
    return _styled(text, "31")


def _rat(value: Fraction) -> str:
    return str(value)


def _payoffs_text(payoffs: PayoffVector) -> str:
    return "(" + ", ".join(f"{p}:{_rat(v)}" for p, v in payoffs.items()) + ")"


def _payoffs_json(payoffs: PayoffVector) -> dict:
    return {p: _rat(v) for p, v in payoffs.items()}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path: str):
    return parse(_read(path))


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _depths_arg(text: str) -> list[int]:
    depths: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            low, _, high = part.partition("..")
            depths.extend(range(int(low), int(high) + 1))
        elif part:
            depths.append(int(part))
    if not depths:
        raise argparse.ArgumentTypeError("no depths given")
    if any(d < 0 for d in depths):
        raise argparse.ArgumentTypeError("depths must be >= 0")
    return depths


def _closure_arg(text: str) -> ClosureRule:
    try:
        return parse_closure_spec(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqgames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a game or graph document")
    p.add_argument("file")

    p = sub.add_parser("solve", help="backward induction over a finite game")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("check", help="check a profile for subgame perfection")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.add_argument(
        "--root-only",
        action="store_true",
        help="finite games only: accept plain equilibria, ignoring non-credible threats",
    )
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("enumerate", help="verdicts for all stationary profiles")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_STATIONARY_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("truncate", help="unfold a graph to a finite game document")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--closure", type=_closure_arg, required=True)
    p.add_argument("--output", "-o")

    p = sub.add_parser("extrapolate", help="compare truncations against the infinite game")
    p.add_argument("file")
    p.add_argument("--depths", type=_depths_arg, required=True, metavar="A..B")
    p.add_argument("--closure", type=_closure_arg, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("escalate", help="find an all-rationalizable infinite play")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_STATIONARY_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("preset", help="write a preset's document")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--stake", type=_fraction_arg, default=Fraction(100))
    p.add_argument("--turns", type=int, default=7)
    p.add_argument("--output", "-o")
    return parser


def _require_graph(doc, path: str) -> GameGraph:
    if not isinstance(doc, GameGraph):
        raise _UsageError(f"{path} does not hold a graph document")
    report = validate_graph(doc)
    if not report.ok:
        raise GameError(f"invalid graph: {report.violations[0]}")
    return doc


def _require_finite(doc, path: str) -> FiniteGame:
    if not isinstance(doc, (Leaf, Node)):
        raise _UsageError(f"{path} does not hold a finite game document")
    report = validate_game(doc)
    if not report.ok:
        raise GameError(f"invalid game: {report.violations[0]}")
    return doc


def _cmd_validate(args) -> int:
    doc = _load(args.file)
    if isinstance(doc, GameGraph):
        report = validate_graph(doc)
    elif isinstance(doc, (Leaf, Node)):
        report = validate_game(doc)
    else:
        print("profile document; nothing to validate beyond parsing")
        return EXIT_OK
    if report.ok:
        print("OK")
        return EXIT_OK
    for violation in report.violations:
        print(f"violation: {violation}")
    return EXIT_INPUT


def _cmd_solve(args) -> int:
    game = _require_finite(_load(args.file), args.file)
    summary = backward_induction(game)
    movers = {
        address: sub.mover for address, sub in walk(game) if isinstance(sub, Node)
    }
    if args.format == "json":
        _emit_json(
            {
                "command": "solve",
                "input": args.file,
                "solver": "backward_induction",
                "equilibria": summary.count,
                "payoff": _payoffs_json(summary.payoff),
                "optimal_actions": {
                    format_address(a): list(summary.optimal_actions[a])
                    for a in sorted(summary.optimal_actions)
                },
                "representative": {
                    format_address(a): summary.representative[a]
                    for a in summary.representative
                },
            }
        )
        return EXIT_OK
    print(f"equilibria: {summary.count}")
    print(f"payoff: {_payoffs_text(summary.payoff)}")
    print("optimal actions:")
    for address in sorted(summary.optimal_actions):
        actions = " ".join(summary.optimal_actions[address])
        print(f"  {format_address(address)} [{movers[address]}]: {actions}")
    print("representative:")
    for address in summary.representative:
        print(f"  {format_address(address)}: {summary.representative[address]}")
    return EXIT_OK


def _verdict_json(verdict: SpeVerdict) -> dict:
    if verdict.ok:
        return {"verdict": "SPE"}
    if isinstance(verdict, NotAdmissible):
        return {
            "verdict": "NotAdmissible",
            "state": verdict.state,
            "cycle": list(verdict.cycle),
        }
    assert isinstance(verdict, Refuted)
    return {
        "verdict": "Refuted",
        "state": verdict.state,
        "stage": verdict.stage if verdict.stage is not None else "concrete",
        "player": verdict.player,
        "action": verdict.action,
        "profile_payoffs": _payoffs_json(verdict.profile_payoffs),
        "deviation_payoffs": _payoffs_json(verdict.deviation_payoffs),
        "gain": _rat(verdict.gain),
    }


def _cmd_check(args) -> int:
    doc = _load(args.file)
    profile_doc = _load(args.profile)
    if not isinstance(profile_doc, ProfileDoc):
        raise _UsageError(f"{args.profile} does not hold a profile document")
    if isinstance(doc, (Leaf, Node)):
        game = _require_finite(doc, args.file)
        profile = profile_doc.as_tree()
        result = is_spe_finite(game, profile, root_only=args.root_only)
        payload = {
            "command": "check",
            "input": args.file,
            "profile": args.profile,
            "solver": "one_shot_deviations" if not args.root_only else "root_best_response",
        }
        if result.ok:
            payload["verdict"] = "SPE" if not args.root_only else "equilibrium"
            if args.format == "json":
                _emit_json(payload)
            else:
                print(_good(payload["verdict"]))
            return EXIT_OK
        ce = result.counterexample
        payload["verdict"] = "Refuted"
        payload["counterexample"] = {
            "address": format_address(ce.address),
            "player": ce.player,
            "action": ce.action,
            "profile_payoff": _rat(ce.profile_payoff),
            "deviation_payoff": _rat(ce.deviation_payoff),
            "gain": _rat(ce.gain),
        }
        if args.format == "json":
            _emit_json(payload)
        else:
            print(_bad("refuted") + f": {ce}")
        return EXIT_REFUTED
    if args.root_only:
        raise _UsageError("--root-only applies to finite game documents only")
    graph = _require_graph(doc, args.file)
    profile = profile_doc.as_stationary()
    verdict = check_spe(graph, profile)
    payload = {
        "command": "check",
        "input": args.file,
        "profile": args.profile,
        "solver": "one_shot_deviations_staged"
        if isinstance(graph, ParamGraph)
        else "one_shot_deviations",
    }
    payload.update(_verdict_json(verdict))
    if args.format == "json":
        _emit_json(payload)
    else:
        print(_good("SPE") if verdict.ok else _bad(verdict.describe()))
    return EXIT_OK if verdict.ok else EXIT_REFUTED


def _profile_text(profile: StationaryProfile) -> str:
    return ", ".join(f"{sid}:{profile[sid]}" for sid in profile)


def _cmd_enumerate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    results = enumerate_stationary_spe(graph, cap=args.cap)
    if args.format == "json":
        _emit_json(
            {
                "command": "enumerate",
                "input": args.file,
                "solver": "stationary_enumeration",
                "caps": {"stationary": args.cap},
                "profiles": [
                    {"profile": dict(profile), **_verdict_json(verdict)}
                    for profile, verdict in results
                ],
            }
        )
        return EXIT_OK
    spe_count = sum(1 for _, v in results if v.ok)
    print(f"stationary profiles: {len(results)}; equilibria: {spe_count}")
    for profile, verdict in results:
        mark = _good("SPE") if verdict.ok else _bad(verdict.describe())
        print(f"  {{{_profile_text(profile)}}}  {mark}")
    return EXIT_OK


def _cmd_truncate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    tree = truncate(graph, args.depth, args.closure)
    _write_output(serialize(tree), args.output)
    return EXIT_OK


def _cmd_extrapolate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    report = extrapolation_report(graph, args.depths, args.closure)
    if args.format == "json":
        payload = {
            "command": "extrapolate",
            "input": args.file,
            "solver": "backward_induction+stationary_enumeration",
            "closure": args.closure.describe(),
        }
        payload.update(report.to_dict())
        _emit_json(payload)
        return EXIT_OK
    print(f"closure: {args.closure.describe()}")
    print(f"{'depth':>5}  {'count':>7}  characterization (payoff)")
    for summary in report.summaries:
        chars = ", ".join(
            f"{p} {summary.characterization[p].describe()}"
            for p in sorted(summary.characterization)
        )
        print(
            f"{summary.depth:>5}  {summary.count:>7}  {chars} "
            f"{_payoffs_text(summary.payoff)}"
        )
    print("infinite stationary equilibria:")
    for profile in report.infinite_spes:
        print(f"  {{{_profile_text(profile)}}}")
    print(f"verdict: {report.verdict.value}")
    print(f"  {report.explanation}")
    return EXIT_OK


def _cmd_escalate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    results = enumerate_stationary_spe(graph, cap=args.cap)
    spes = [profile for profile, verdict in results if verdict.ok]
    payload = {
        "command": "escalate",
        "input": args.file,
        "solver": "stationary_enumeration+lasso_search",
        "caps": {"stationary": args.cap},
        "equilibria": [dict(p) for p in spes],
    }
    if not spes:
        payload["witness"] = None
        if args.format == "json":
            _emit_json(payload)
        else:
            print("no stationary equilibria; no escalation")
        return EXIT_OK
    rmap = rationalizable_actions(graph, spes)
    payload["rationalizable"] = {
        sid: {action: list(tags) for action, tags in actions.items()}
        for sid, actions in rmap.actions.items()
    }
    witness = escalation_witness(graph, rmap)
    threat = credible_threat_report(graph, spes)
    payload["mutually_non_credible"] = list(threat.mutually_non_credible)
    if witness is None:
        payload["witness"] = None
    else:
        payload["witness"] = {
            "prefix": [
                {"state": s.state, "action": s.action, "spe": s.spe_id}
                for s in witness.prefix
            ],
            "cycle": [
                {"state": s.state, "action": s.action, "spe": s.spe_id}
                for s in witness.cycle
            ],
        }
    if args.format == "json":
        _emit_json(payload)
        return EXIT_OK
    print(f"equilibria: {len(spes)}")
    for i, profile in enumerate(spes, start=1):
        print(f"  #{i}: {{{_profile_text(profile)}}}")
    print("rationalizable actions:")
    for sid in rmap.actions:
        actions = ", ".join(
            f"{action} (via #{', #'.join(map(str, tags))})"
            for action, tags in rmap.actions[sid].items()
        )
        print(f"  {sid}: {actions}")
    if threat.mutually_non_credible:
        print(
            "mutually non-credible states: "
            + ", ".join(threat.mutually_non_credible)
        )
    if witness is None:
        print("escalation witness: none")
    else:
        prefix = " ".join(f"{s.state}({s.action})" for s in witness.prefix) or "-"
        cycle = " ".join(f"{s.state}({s.action})" for s in witness.cycle)
        print(f"escalation witness: prefix {prefix}; cycle [{cycle}]")
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.name == "zero_one_finite":
        value = build_preset(args.name, turns=args.turns)
    elif args.name == "dollar_auction":
        value = build_preset(args.name, stake=args.stake)
    else:
        value = build_preset(args.name)
    _write_output(serialize(value), args.output)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "check": _cmd_check,
    "enumerate": _cmd_enumerate,
    "truncate": _cmd_truncate,
    "extrapolate": _cmd_extrapolate,
    "escalate": _cmd_escalate,
    "preset": _cmd_preset,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as error:
        print(f"cap exceeded: {error}", file=sys.stderr)
        return EXIT_CAP
    except (ProfileError, GameError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
