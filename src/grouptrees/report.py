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


def to_jsonable(value):
    """Recursively convert engine values to JSON-serializable structures; an
    engine value with a report form of its own gives it by `jsonable()`."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Scalar):
        return str(value)
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [to_jsonable(v) for v in items]
    jsonable = getattr(value, "jsonable", None)
    if jsonable is not None:
        return jsonable()
    if hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        raise TypeError(f"no JSON form for {type(value).__name__}")
    return value


def render_json(report: dict) -> str:
    body = to_jsonable(report)
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def _text_lines(value, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from _text_lines(v, indent + 1)
            else:
                yield f"{pad}{k}: {_scalar_text(v)}"
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}-"
                yield from _text_lines(v, indent + 1)
            else:
                yield f"{pad}- {_scalar_text(v)}"
    else:
        yield f"{pad}{_scalar_text(value)}"


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
    return str(v)


def render_text(report: dict) -> str:
    return "\n".join(_text_lines(to_jsonable(report), 0)) + "\n"


def render(report: dict, as_json: bool) -> str:
    return render_json(report) if as_json else render_text(report)


def wrap(command: str, result: dict, budgets: dict | None = None) -> dict:
    """Attach the stable envelope (schema version, command, echoed budgets)."""
    out = {"schema_version": SCHEMA_VERSION, "command": command}
    if budgets:
        out["budgets"] = dict(budgets)
    out["result"] = result
    return out
