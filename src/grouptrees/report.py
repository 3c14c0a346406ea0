"""Canonical report emission: JSON and text renderings, exit-code mapping.

Reports are byte-stable: keys sorted, compact separators, one trailing
newline, no timestamps, every scalar rendered through its canonical exact
string.  Exit codes: 0 = definite outcome, 2 = a budget-limited outcome is
being reported (not a failure), 1 = error or assertion failure.
"""

from __future__ import annotations

import json

from .core import Scalar, Word

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2


def _default(value):
    """The JSON form of an engine value: the text of a Scalar or a Word, a set
    as a list sorted by repr, or what its `jsonable()` gives."""
    if isinstance(value, (Scalar, Word)):
        return str(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    jsonable = getattr(value, "jsonable", None)
    if jsonable is None:
        raise TypeError(f"no JSON form for {type(value).__name__}")
    return jsonable()


_LEAVES = frozenset({str, int, bool, type(None), Scalar, Word})  # hold no dict
_PLAIN = (dict, list, tuple, str, int, float, type(None))  # what needs no `_default`


def _check_keys(values) -> None:
    """Refuse a dict key, at any depth of `values`, that is not a str: keys are
    sorted before they become text, so 2 would come before 10, not after."""
    for v in values:
        if type(v) in _LEAVES:
            continue
        if isinstance(v, dict):
            for k in v:
                if not isinstance(k, str):
                    raise TypeError(f"report key {k!r} is not a str")
            _check_keys(v.values())
        elif isinstance(v, (list, tuple)):
            _check_keys(v)


# `_check_keys` meets every container first, and a cycle ends it in RecursionError
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                            default=_default, check_circular=False)
_IN_ORDER = json.JSONEncoder(ensure_ascii=False, default=_default)


def to_jsonable(value):
    """The value as plain JSON data in insertion order, keys as text, for the scenarios."""
    return json.loads(_IN_ORDER.encode(value))


def render_json(report: dict) -> str:
    """The canonical text of a report, in one pass of the encoder."""
    _check_keys((report,))
    return _ENCODER.encode(report) + "\n"


def _text_lines(value, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        items = ((f"{k}:", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = (("-", v) for v in value)
    else:
        yield f"{pad}{_scalar_text(value)}"
        return
    for head, v in items:
        if not isinstance(v, _PLAIN):
            v = _default(v)
        if isinstance(v, (dict, list, tuple)) and v:
            yield f"{pad}{head}"
            yield from _text_lines(v, indent + 1)
        else:
            yield f"{pad}{head} {_scalar_text(v)}"


def _scalar_text(v) -> str:
    return v if isinstance(v, str) else json.dumps(v)


def render_text(report: dict) -> str:
    _check_keys((report,))
    return "\n".join(_text_lines(report, 0)) + "\n"


def wrap(command: str, result: dict, budgets: dict | None = None) -> dict:
    """Attach the stable envelope (schema version, command, echoed budgets)."""
    out = {"schema_version": SCHEMA_VERSION, "command": command}
    if budgets:
        out["budgets"] = dict(budgets)
    out["result"] = result
    return out
