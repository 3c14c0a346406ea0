"""The README's Library tour runs as written and prints what it says."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
UNCHECKED = object()


def tour_blocks() -> list[str]:
    """The ```python blocks of the Library tour section."""
    text = README.read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, re.S)


def expected_value(lines: list[str], stmt: ast.stmt):
    """The value a `# value` comment promises for an expression statement:
    the comment after its last line, or a comment line right below it.  The
    value is the comment's text up to its first two-space gap, read by
    `ast.literal_eval`; UNCHECKED when there is none or it is no literal."""
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
    if not tail and stmt.end_lineno < len(lines):
        tail = lines[stmt.end_lineno].strip()
    if not tail.startswith("#"):
        return UNCHECKED
    text = re.split(r"\s{2,}", tail[1:].strip())[0]
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return UNCHECKED


def test_library_tour_runs_and_prints_what_it_says():
    blocks = tour_blocks()
    assert len(blocks) == 2
    checked = []
    for source in blocks:
        lines = source.splitlines()
        namespace: dict = {}
        for stmt in ast.parse(source).body:
            want = (expected_value(lines, stmt) if isinstance(stmt, ast.Expr)
                    else UNCHECKED)
            if want is UNCHECKED:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == want, ast.unparse(stmt)
            checked.append(ast.unparse(stmt))
    # every promised value is checked: a comment that stops parsing shows here
    assert len(checked) == 7, checked
