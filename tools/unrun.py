"""List the function-body statements of src/iasltools that a pytest run never reaches.

    python tools/unrun.py [PYTEST ARGS...]      # default: tests

pytest runs in this process, with the arguments passed through, under a
sys.settrace hook that traces only frames whose code lives in
src/iasltools/.  Afterwards each statement inside a function body (a
docstring excepted) that has code of its own and never ran is printed
as ``module:line: source``, one a line, ordered by module and line.  A
compound statement (if, for, while, with, try, def) or an except clause
counts as run when its header line ran.  The exit status is 0 whatever
pytest reports.

Limits: the CLI tests that start ``python -m iasltools`` as a subprocess
are not traced, so code only they reach is listed as unrun.  Tracing
slows every traced line several times over, so the tests with a
wall-clock limit (acceptance criterion 1 and
test_odd_girth_trees_stop_at_the_best_cycle) fail under it; their lines
still count as run.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iasltools"


def _statements(tree: ast.Module):
    """Every statement nested in a function body, docstrings excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            stack = list(body)
            while stack:
                stmt = stack.pop()
                yield stmt
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)):
                    for name in ("body", "orelse", "finalbody", "handlers"):
                        stack += getattr(stmt, name, [])


def _own_lines(stmt) -> range:
    """The lines of stmt itself: a compound statement's header, before its body."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        start = stmt.lineno
        end = body[0].lineno - 1
        return range(start, max(end, start) + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unrun(ran: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        live = _code_lines(compile(source, str(path), "exec"))
        seen = ran.get(str(path), set())
        found = set()
        for stmt in _statements(ast.parse(source)):
            own = [line for line in _own_lines(stmt) if line in live]
            if own and not seen.intersection(own):
                found.add(stmt.lineno)
        out += [f"{path.stem}:{line}: {text[line - 1].strip()}" for line in sorted(found)]
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.settrace(tracer)
    try:
        pytest.main(argv or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    lines = unrun(ran)
    print("\n".join(lines))
    print(f"{len(lines)} unrun statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
