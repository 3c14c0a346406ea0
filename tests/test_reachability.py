"""Guard against unreached code in the package.

Every module-level function, class and assignment of `src/grouptrees`, and
every non-dunder method of a module-level class, must be named somewhere in
`src/`, `scripts/` or `perfbench/` outside its own definition.  A name only the
tests use belongs in the tests.  "Named" means an identifier, an attribute,
an imported name or an `__all__` entry in the syntax tree; docstrings and
comments do not count.  A method or property is reached only through an
attribute, an imported name or an `__all__` entry: a bare identifier of the
same name (a parameter, a local) does not reach it.

Every module-level class of `src/grouptrees` that defines `__init__` must
also be called by name in those trees outside its own body: a call whose
target is the class's name, or an attribute of that name.  A constructor that
only the tests call is a second way in, past the input boundary.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grouptrees"
SEARCHED = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

#: name or qualified name -> reason it may stay although nothing in the
#: searched trees names it.
EXEMPT = {
    "__all__": "read by `from grouptrees import *`, never named in code",
    "cli._Parser.error": "overrides `argparse.ArgumentParser.error`, which "
                         "argparse calls on a usage error",
    **{f"{cls}.jsonable": "read by `report._default` through `getattr`"
       for cls in ("intervals.Interval", "intervals.MultiInterval",
                   "measures.LengthMeasure", "stallings.StallingsGraph")},
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def _definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name, line span, is a member) of every checked
    definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, _span(node), False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{path.stem}.{target.id}", target.id, _span(node), False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                           _span(item), True)


def _uses(tree: ast.Module):
    """(name, line, is a bare identifier) for every identifier, attribute,
    imported name and `__all__` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            for item in node.value.elts:
                yield item.value, item.lineno, False


def _searched_trees() -> dict[Path, ast.Module]:
    trees = {}
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return trees


def unreached_names() -> list[str]:
    trees = _searched_trees()
    uses: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _uses(tree):
            uses.setdefault(name, []).append((path, line, bare))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, (first, last), member in _definitions(path, trees[path]):
            if name in EXEMPT or qualified in EXEMPT:
                continue
            outside = [(p, line) for p, line, bare in uses.get(name, ())
                       if (p != path or not first <= line <= last)
                       and not (member and bare)]
            if not outside:
                unreached.append(qualified)
    return unreached


def uncalled_constructors() -> list[str]:
    """Module-level classes of the package that define `__init__` and that
    nothing in the searched trees calls outside the class's own body."""
    trees = _searched_trees()
    calls: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = node.func
                name = (target.id if isinstance(target, ast.Name)
                        else target.attr if isinstance(target, ast.Attribute) else None)
                if name is not None:
                    calls.setdefault(name, []).append((path, node.lineno))
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not (isinstance(node, ast.ClassDef)
                    and any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                            for item in node.body)):
                continue
            first, last = _span(node)
            if not any(p != path or not first <= line <= last
                       for p, line in calls.get(node.name, ())):
                uncalled.append(f"{path.stem}.{node.name}")
    return uncalled


def test_every_package_name_is_reached():
    assert unreached_names() == []


def test_every_constructor_is_called():
    assert uncalled_constructors() == []
