"""Command-line interface.

Every subcommand but `scenario run` and `scenario list` is generated from
its entry in the operation registry `scenarios.OPERATIONS`: the entry's help
and argument spec give the subcommand's help and flags, and the subcommand
runs the operation, so the CLI and scripted scenarios share one code path.
A subcommand takes `--json`/`--text` and exactly the flags of its spec,
never abbreviated; `scenario run` takes `--seed`.  Adding an operation
means adding one registry entry.  Documents come in as JSON files (`-`
reads stdin); small geometric arguments (points, intervals, interval sets)
are inline JSON with exact values as strings.  `run_op` loads both by the
kind its spec declares.

Exit codes: 0 = the reported outcome is definite, 2 = a budget-limited
outcome is being reported (not a failure), 1 = error or assertion failure,
usage errors included.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GroupTreesError, ParseError
from .report import EXIT_BUDGET, EXIT_ERROR, EXIT_OK, render_json, render_text, wrap
from .scenarios import (BUDGET, DOCUMENTS, FAILED, OPERATIONS, REQUIRED,
                        bundled_scenarios, run_op, run_scenario,
                        scenario_from_doc)

_KIND_EXIT = {"proven": EXIT_OK, BUDGET: EXIT_BUDGET, FAILED: EXIT_ERROR}

_GROUPS = {
    "stallings": "folded subgroup graphs of free groups",
    "cvn": "marked metric graphs and their trees",
    "soi": "systems of partial isometries on multi-intervals",
    "measure": "piecewise-constant length measures",
    "lam": "rational boundary leaves",
    "scenario": "deterministic scripted runs",
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, reported and exited like any other."""

    def error(self, message):
        raise ParseError(message)


def _read_document(path: str, what: str) -> dict:
    try:
        if path == "-":   # UTF-8, as a file is, whatever the locale
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} file {path!r}: {exc}")
    from .documents import load_json
    return load_json(text, f"{what} file {path!r}")


def _inline_points(text: str):
    """A point, or a JSON list of points if the text starts with '['."""
    if not text.lstrip().startswith("["):
        return text
    from .documents import parse_json
    return parse_json(text, "--samples")


def _flag(arg) -> str:
    return arg.flag or "--" + arg.key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grouptrees", allow_abbrev=False,
        description="exact computations on subgroup graphs, marked metric "
                    "graphs, interval isometry systems, length measures and "
                    "boundary leaves")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}

    def leaf(group: str, command: str, help_text: str):
        if group not in groups:
            groups[group] = top.add_parser(
                group, help=_GROUPS[group],
                allow_abbrev=False).add_subparsers(dest="command",
                                                   required=True)
        p = groups[group].add_parser(command, help=help_text,
                                     allow_abbrev=False)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", dest="as_json",
                          help="emit the canonical JSON report")
        mode.add_argument("--text", action="store_false", dest="as_json",
                          help="emit the plain-text report (default)")
        p.set_defaults(as_json=False)
        return p

    for name, spec in OPERATIONS.items():
        if spec.help is None:
            continue
        group, command = name.split(".")
        p = leaf(group, command.replace("_", "-"), spec.help)
        for arg in spec.args:
            required = arg.default is REQUIRED
            p.add_argument(_flag(arg), dest=arg.key, required=required,
                           default=None if required else arg.default,
                           type=int if arg.integer else None,
                           help=arg.help,
                           metavar="FILE" if arg.kind in DOCUMENTS else None)

    p = leaf("scenario", "run", "run a bundled scenario or a scenario file")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized batches")
    p.add_argument("name", help="bundled scenario name or path to a "
                                "scenario JSON file")
    leaf("scenario", "list", "list bundled scenarios")
    # a missing subcommand is named by its choices, not by its dest
    for action in (top, *groups.values()):
        action.metavar = "{" + ",".join(action.choices) + "}"
    return parser


def _op_args(spec, ns: argparse.Namespace, command: str) -> dict:
    """The operation's arguments given on the command line, files read."""
    args: dict = {}
    for arg in spec.args:
        value = getattr(ns, arg.key)
        if arg.either is not None:
            other = next(a for a in spec.args if a.key == arg.either)
            if (value is None) == (getattr(ns, other.key) is None):
                raise ParseError(f"{command} needs exactly one of "
                                 f"{_flag(arg)} or {_flag(other)}")
        if value is not None and arg.kind in DOCUMENTS:
            value = _read_document(value, arg.kind)
        elif value is not None and arg.kind == "samples":
            value = _inline_points(value)
        args[arg.key] = value
    return args


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        if ns.group == "scenario":
            return _run_scenario_command(ns)
        command = f"{ns.group} {ns.command}"
        op = f"{ns.group}.{ns.command.replace('-', '_')}"
        spec = OPERATIONS[op]
        args = _op_args(spec, ns, command)
        result, kind = run_op(op, args)
    except GroupTreesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # keep CLI failures one-line and typed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    budgets = {arg.key: args[arg.key] for arg in spec.args if arg.budget}
    report = wrap(command, result, budgets=budgets)
    report["status"] = kind
    sys.stdout.write((render_json if ns.as_json else render_text)(report))
    return _KIND_EXIT[kind]


def _run_scenario_command(ns: argparse.Namespace) -> int:
    bundled = bundled_scenarios()
    if ns.command == "list":
        rows = [{"name": sc.name, "steps": len(sc.steps), "seed": sc.seed,
                 "description": sc.description}
                for sc in bundled.values()]
        report = wrap("scenario list", {"scenarios": rows})
        sys.stdout.write((render_json if ns.as_json else render_text)(report))
        return EXIT_OK

    if ns.name in bundled:
        scenario = bundled[ns.name]
    else:
        doc = _read_document(ns.name, "scenario")
        scenario = scenario_from_doc(doc)
    result = run_scenario(scenario, seed_override=ns.seed)
    report = wrap("scenario run", result)
    report["status"] = {0: "proven", 2: BUDGET}.get(result["exit_code"],
                                                    FAILED)
    sys.stdout.write((render_json if ns.as_json else render_text)(report))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
