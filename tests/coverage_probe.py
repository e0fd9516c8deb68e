"""List the statements of ``src/`` that the test suite never runs.

A standard-library line tracer: it sets ``sys.settrace``, runs the suite
in this process through ``pytest.main``, and records every line of
``src/`` that produced a call or line event.  A statement is one
``ast.stmt`` node; it counts when its own lines (the whole statement, or
the header of a compound one, with its decorators) carry bytecode, and it
ran when one of those lines did.  Tests that start a subprocess are not
traced.

Usage, from the repository root:

    python tests/coverage_probe.py [pytest arguments]

With no arguments it runs ``-q -p no:cacheprovider tests``.  It prints one
``path:line: source`` per statement that never ran, then the count, and
exits with pytest's status.  The file has no ``test_`` prefix, so the
suite does not collect it.
"""
from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _code_lines(code):
    """Every line that carries bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node):
    """The lines of a statement that are not lines of a nested statement."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def statements(path):
    """(line, own lines) of every statement of ``path`` that carries bytecode."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    with_code = _code_lines(code)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = with_code.intersection(_own_lines(node))
            if own:
                found.append((node.lineno, own))
    return sorted(found)


def main(argv):
    import pytest

    prefix = str(SRC) + "/"
    ran = {}  # filename -> lines with an event

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        hit = ran.get(str(path), set())
        for line, own in statements(path):
            total += 1
            if not own & hit:
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), line, lines[line - 1].strip()))
    print("%d of %d statements in src/ never ran" % (missed, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
