"""List the statements of src/jcone that no Tier-1 test runs.

Usage, from the repository root:

    python tools/line_census.py [pytest arguments]

It runs pytest in this process (by default the whole suite, `-q -p
no:cacheprovider`) under a `sys.settrace` line tracer that follows only
frames whose code lives in src/jcone, also in threads started by the tests.
It then prints each statement that never ran as `file:line: source`, one a
line, and exits with pytest's status, or 1 if pytest passed and a statement
never ran.  A statement is one node of the module's syntax tree: a simple
statement, or the header of a compound one (an `if` with its test, a `def`
with its decorators).  It ran when any line of it reported a line event, so
a body written on its header's line counts as run with the header.
Statements that compile to no code, such as a function's docstring, are not
counted.

The tracer sees only this process: code that runs in a child process, such
as the `jcone.cli` subprocesses of the CLI tests, counts as never run
unless some test also runs it in process.  Tracing about doubles the run
time of the suite.  It uses the standard library alone, so that it needs no
coverage package.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jcone"


def _trace_lines(files: dict[str, set[int]]):
    """A sys.settrace function adding each line run in `files` to its set."""
    def tracer(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local
    return tracer


def _code_lines(code) -> set[int]:
    """Every line that the code object or one nested in it has code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.Module):
    """(first line, last line) of each statement, a compound one's header only."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield first, max(first, last)


def never_run(path: Path, ran: set[int]) -> list[int]:
    """The first line of each statement of `path` that has code on some
    line but no line in `ran`."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    missed = set()
    for first, last in _statements(ast.parse(source)):
        span = set(range(first, last + 1))
        if span & code and not span & ran:
            missed.add(first)
    return sorted(missed)


def main(argv: list[str]) -> int:
    import pytest
    files = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    tracer = _trace_lines(files)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, ran in files.items():
        path = Path(name)
        lines = path.read_text().splitlines()
        for line in never_run(path, ran):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement(s) of src/jcone never ran")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
