"""List the statements of ``src/elicitkit`` that the tier-1 tests never run.

Runs pytest in this process under a stdlib ``sys.settrace`` line tracer
that records lines only in frames whose code lives under
``src/elicitkit``, then reads each module's syntax tree: a statement has
run when any line of it ran (for a compound statement, any line of its
header: decorators, ``def``, ``if`` test, ``for`` target and iterable).
Bare strings (docstrings) and statements that compile to no code
(``global``, ``nonlocal``, a bare annotation inside a function) are not
counted.

Exits with pytest's status when a test fails; otherwise 1 when a
statement outside ``ALLOWED`` never ran, each one printed as
``path:line: source``, and 0 when none did.  Usage, from the repository
root::

    PYTHONPATH=src python tools/line_counter.py [pytest arguments]

Tracing slows the suite about 1.6 times, so this runs as its own CI
step rather than inside tier-1.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "elicitkit"

#: Statements allowed never to run in-process: ``(file, enclosing function,
#: first source line)``, where ``None`` matches anything.
ALLOWED: tuple[tuple[str, str | None, str | None], ...] = (
    # scipy's HiGHS binding already loaded, absent, or failing to load.
    ("_numerics.py", "_load_highs", "return sys.modules[name]"),
    ("_numerics.py", "_load_highs", 'raise ImportError(f"No module named {name!r}", name=name)'),
    ("_numerics.py", "_load_highs", "del sys.modules[name]"),
    ("_numerics.py", "_load_highs", "raise"),
    # Script entry points: they run only in a separate process.
    ("cli.py", None, "sys.exit(main())"),
    ("__main__.py", None, None),
)


def _compiles_to_nothing(node: ast.stmt, function: str | None) -> bool:
    """Docstrings and other bare strings, ``global``, ``nonlocal``, a bare local annotation."""
    if isinstance(node, ast.Expr):
        return isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    if isinstance(node, ast.AnnAssign):
        return node.value is None and function is not None
    return isinstance(node, (ast.Global, ast.Nonlocal))


def _statements(tree: ast.Module) -> list[tuple[range, str | None, ast.stmt]]:
    """Each counted statement: the lines any of which shows it ran, its function, itself."""
    found: list[tuple[range, str | None, ast.stmt]] = []

    def visit(body: list[ast.stmt], function: str | None) -> None:
        for node in body:
            if _compiles_to_nothing(node, function):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            inner = [
                getattr(node, name)
                for name in ("body", "orelse", "finalbody")
                if getattr(node, name, None)
            ]
            inner += [handler.body for handler in getattr(node, "handlers", ())]
            if inner:
                last = max(min(block[0].lineno for block in inner) - 1, node.lineno)
            else:
                last = node.end_lineno or node.lineno
            found.append((range(first, last + 1), function, node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, node.name)
            else:
                for block in inner:
                    visit(block, function)

    visit(tree.body, None)
    return found


def _allowed(file: str, function: str | None, source: str) -> bool:
    return any(
        file == a_file
        and (a_function is None or function == a_function)
        and (a_source is None or source == a_source)
        for a_file, a_function, a_source in ALLOWED
    )


def main(argv: list[str]) -> int:
    hits: set[tuple[str, int]] = set()
    prefix = str(PACKAGE) + "/"
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    if status != 0:
        print(f"line counter: pytest exited {int(status)}", file=sys.stderr)
        return int(status)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = {line for file, line in hits if file == str(path)}
        for span, function, node in _statements(ast.parse(source)):
            total += 1
            if ran.intersection(span):
                continue
            text = lines[node.lineno - 1].strip()
            if _allowed(path.name, function, text):
                continue
            missed += 1
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {text}")
    print(f"line counter: {missed} of {total} statements never ran outside the allow-list")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
