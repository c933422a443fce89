"""Command-line front end.

Exit codes: 0 success (a checked profile is an equilibrium), 1 a checked
profile is refuted or not admissible, 2 parse or validation errors in the
inputs, 3 an enumeration cap or the stage reachability entry budget was
exceeded or memory ran out, 4 usage errors.  Every command reports an
invalid game or graph in the library's words: ``invalid game: <first
violation> (<n> violation(s))``, or ``invalid graph: ...``.  Structured
output (``--format json``) is byte-deterministic for fixed inputs and
renders every number as an exact rational string.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction

from seqgames.core import (
    GameError,
    Leaf,
    Node,
    PayoffVector,
    ProfileError,
    CapExceededError,
    _count_text,
    _refuse_invalid,
    format_address,
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
from seqgames.escalation import credible_threat_report, escalation_witness, rationalizable_actions
from seqgames.finite import _require_valid, backward_induction, is_spe_finite, validate_game
from seqgames.gallery import PRESETS, build_preset
from seqgames.graphs import GameGraph, ParamGraph, _require_valid_graph, validate_graph
from seqgames.truncation import (
    ClosureRule,
    DeciderQuitsClosure,
    _describe_char,
    _json_text,
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


def _payoffs_text(payoffs: PayoffVector) -> str:
    return "(" + ", ".join(f"{p}:{v}" for p, v in payoffs.items()) + ")"


def _payoffs_json(payoffs: PayoffVector) -> dict:
    return {p: str(v) for p, v in payoffs.items()}


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _depths_arg(text: str) -> list[int]:
    depths: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                low, _, high = part.partition("..")
                span = range(int(low), int(high) + 1)
                if not span:  # a reversed range
                    raise ValueError(part)
                depths.extend(span)
            elif part:
                depths.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid depths value: {text!r}") from None
    if not depths:
        raise argparse.ArgumentTypeError("no depths given")
    if any(d < 0 for d in depths):
        raise argparse.ArgumentTypeError("depths must be >= 0")
    return depths


def _int_at_least(name: str, low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return value

    return parse


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
    p.add_argument("--cap", type=_int_at_least("cap", 1), default=DEFAULT_STATIONARY_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("truncate", help="unfold a graph to a finite game document")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least("depth", 0), required=True)
    p.add_argument("--closure", type=_closure_arg, required=True)
    p.add_argument("--output", "-o")

    p = sub.add_parser("extrapolate", help="compare truncations against the infinite game")
    p.add_argument("file")
    p.add_argument("--depths", type=_depths_arg, required=True, metavar="A..B")
    p.add_argument("--closure", type=_closure_arg, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("escalate", help="find an all-rationalizable infinite play")
    p.add_argument("file")
    p.add_argument("--cap", type=_int_at_least("cap", 1), default=DEFAULT_STATIONARY_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("preset", help="write a preset's document")
    p.add_argument("name", choices=sorted(PRESETS))
    # No defaults here: _cmd_preset rejects an option its preset does not take.
    p.add_argument("--stake", type=_fraction_arg)
    p.add_argument("--turns", type=int)
    p.add_argument("--output", "-o")
    return parser


def _require_graph(doc, path: str) -> GameGraph:
    """The graph in ``doc``, validated through the gate the library keeps."""
    if not isinstance(doc, GameGraph):
        raise _UsageError(f"{path} does not hold a graph document")
    _require_valid_graph(doc)
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
    doc = _load(args.file)
    if not isinstance(doc, (Leaf, Node)):
        raise _UsageError(f"{args.file} does not hold a finite game document")
    summary = backward_induction(doc)
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
    tree = _require_valid(doc)  # the compile backward_induction keeps
    movers = dict(zip(tree.addresses, tree.movers))
    print(f"equilibria: {_count_text(summary.count)}")
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
        "gain": str(verdict.gain),
    }


def _cmd_check(args) -> int:
    doc = _load(args.file)
    profile_doc = _load(args.profile)
    if not isinstance(profile_doc, ProfileDoc):
        raise _UsageError(f"{args.profile} does not hold a profile document")
    payload = {"command": "check", "input": args.file, "profile": args.profile}
    if isinstance(doc, (Leaf, Node)):
        _require_valid(doc)  # is_spe_finite does not validate; it reuses this compile
        result = is_spe_finite(doc, profile_doc.as_tree(), args.root_only)
        payload["solver"] = "one_shot_deviations" if not args.root_only else "root_best_response"
        ok, ce = result.ok, result.counterexample
        if ok:
            payload["verdict"] = "SPE" if not args.root_only else "equilibrium"
            text = _good(payload["verdict"])
        else:
            payload["verdict"] = "Refuted"
            payload["counterexample"] = {
                "address": format_address(ce.address),
                "player": ce.player,
                "action": ce.action,
                "profile_payoff": str(ce.profile_payoff),
                "deviation_payoff": str(ce.deviation_payoff),
                "gain": str(ce.gain),
            }
            text = _bad("refuted") + f": {ce}"
    else:
        if args.root_only:
            raise _UsageError("--root-only applies to finite game documents only")
        graph = _require_graph(doc, args.file)
        verdict = check_spe(graph, profile_doc.as_stationary())
        staged = isinstance(graph, ParamGraph)
        payload["solver"] = "one_shot_deviations_staged" if staged else "one_shot_deviations"
        payload.update(_verdict_json(verdict))
        ok = verdict.ok
        text = _good("SPE") if ok else _bad(verdict.describe())
    if args.format == "json":
        _emit_json(payload)
    else:
        print(text)
    return EXIT_OK if ok else EXIT_REFUTED


def _profile_text(profile: StationaryProfile) -> str:
    return ", ".join(map(":".join, profile._entries))


def _cmd_enumerate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    results = enumerate_stationary_spe(graph, cap=args.cap)
    # Profiles share verdict objects, so each distinct verdict is rendered
    # once, keyed by identity while ``results`` keeps it alive.
    rendered: dict[int, str] = {}
    if args.format == "json":
        head = {
            "command": "enumerate",
            "input": args.file,
            "solver": "stationary_enumeration",
            "caps": {"stationary": args.cap},
        }
        # One object field per (state, action) pair, rendered once.
        field = functools.cache(lambda entry: f"        {json.dumps(entry[0])}: {json.dumps(entry[1])}")
        rows = []
        for profile, verdict in results:
            if id(verdict) not in rendered:
                rendered[id(verdict)] = _json_fields(_verdict_json(verdict), 6)
            fields = ",\n".join(map(field, profile._entries))
            choices = "{\n" + fields + "\n      }" if fields else "{}"
            rows.append(f'    {{\n      "profile": {choices},\n{rendered[id(verdict)]}\n    }}')
        # What ``_emit_json`` prints for ``head`` with a last key "profiles"
        # holding the rows.
        text = json.dumps(head, indent=2)[:-2]
        sys.stdout.write(text + ',\n  "profiles": [\n' + ",\n".join(rows) + "\n  ]\n}\n")
        return EXIT_OK
    spe_count = sum(1 for _, v in results if v.ok)
    lines = [f"stationary profiles: {len(results)}; equilibria: {spe_count}"]
    for profile, verdict in results:
        if id(verdict) not in rendered:
            rendered[id(verdict)] = _good("SPE") if verdict.ok else _bad(verdict.describe())
        lines.append(f"  {{{_profile_text(profile)}}}  {rendered[id(verdict)]}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _json_fields(payload: dict, indent: int) -> str:
    """The fields of ``payload`` as ``json.dumps(indent=2)`` renders them
    inside an object whose fields sit ``indent`` spaces deep, without the
    braces."""
    body = json.dumps(payload, indent=2)[2:-2]
    pad = " " * (indent - 2)
    return pad + body.replace("\n", "\n" + pad)


def _cmd_truncate(args) -> int:
    graph = _require_graph(_load(args.file), args.file)
    tree = truncate(graph, args.depth, args.closure)
    if not isinstance(args.closure, DeciderQuitsClosure):
        # Cut payoffs from outside the graph may miss or add players; the
        # graph's own terminals, which quit reuses, are already validated.
        _refuse_invalid("game", validate_game(tree).violations)
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
        print(
            f"{summary.depth:>5}  {_count_text(summary.count):>7}  "
            f"{_describe_char(summary.characterization)} {_payoffs_text(summary.payoff)}"
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
    # The profiles come from the enumeration, whose kept walk verifies them
    # by lookup, so the map and the threat report check none of them again.
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
    params = {option: getattr(args, option) for option in ("stake", "turns") if getattr(args, option) is not None}
    if unknown := sorted(params.keys() - PRESETS[args.name].defaults.keys()):
        raise _UsageError(f"preset {args.name} does not take --{unknown[0]}")
    try:
        value = build_preset(args.name, **params)
    except ValueError as error:  # a parameter out of the preset's range
        raise _UsageError(str(error)) from None
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves a parser as it was."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
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
    except MemoryError:
        # Not exit 1, which would read as a refuted profile.
        print("out of memory", file=sys.stderr)
        return EXIT_CAP
    except (ProfileError, GameError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
