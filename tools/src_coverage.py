"""List the lines of ``src/genform`` that the test suite never executes.

Runs ``pytest -q -p no:cacheprovider tests`` in this process under
``sys.settrace``, with ``src`` first on ``sys.path``, recording only the lines
of code objects whose file lies in ``src/genform``, then prints
``file:line: source`` for every line that ``co_lines()`` marks executable and
that never ran.  It needs nothing beyond the standard library and pytest,
not coverage.py.  Run from the repository root::

    python tools/src_coverage.py

Lines run only in child processes, such as a test that starts ``python -m
genform.cli`` or the benchmark in a subprocess, are not seen and are reported
as never executed; so are lines run only in threads other than the main one.
The exit status is pytest's.
"""

import os
import sys
import types
from pathlib import Path


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers ``co_lines()`` gives for code and every nested code object."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    package = Path("src/genform").resolve()
    sys.path.insert(0, str(package.parent))
    prefix = str(package) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest

    sys.settrace(scope)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)

    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        code = compile(text, str(path), "exec")
        never = sorted(executable_lines(code) - ran.get(str(path), set()))
        for line in never:
            print(f"{os.path.relpath(path)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
