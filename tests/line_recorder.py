"""Pytest plugin: the lines of trapeval's functions that the suite never runs.

    PYTHONPATH=src:tests python -m pytest -p line_recorder

The suite does not collect this file. From ``pytest_configure`` on, it
records every line executed in a file of the ``trapeval`` package, with
``sys.settrace`` (and ``threading.settrace`` for threads started later).
At the end of the session it compiles each module and prints, per module,
the lines of function code objects (nested functions, lambdas and
comprehensions included) that never ran. Module and class bodies, and the
comprehensions in them, are left out: they run at import, which may come
before recording starts. Lines run only in a child process (the suite's
``subprocess`` tests) are not seen. Tracing makes the suite about twice
as slow.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import trapeval

PACKAGE = Path(trapeval.__file__).parent
_PREFIX = str(PACKAGE)
_CO_OPTIMIZED = 0x1  # set on function code, clear on module and class bodies
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

_hits: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_PREFIX):
        _hits.add((code.co_filename, code.co_firstlineno))
        return _local
    return None


def function_lines(code, in_function: bool = False) -> set[int]:
    """Line numbers of the function code objects nested in ``code``. A
    comprehension outside any function runs at import, so it is left out."""
    lines: set[int] = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            counted = bool(const.co_flags & _CO_OPTIMIZED) and (
                in_function or const.co_name not in _COMPREHENSIONS
            )
            if counted:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            lines |= function_lines(const, counted)
    return lines


def unrun_lines() -> dict[str, list[int]]:
    """Per module file name, the sorted function lines no traced frame ran."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, encoding="utf-8") as stream:
            code = compile(stream.read(), str(path), "exec")
        ran = {line for name, line in _hits if name == code.co_filename}
        missed = sorted(function_lines(code) - ran)
        if missed:
            report[path.name] = missed
    return report


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("trapeval function lines never run")
    report = unrun_lines()
    for name, missed in report.items():
        terminalreporter.write_line(f"{name}: {ranges(missed)}")
    if not report:
        terminalreporter.write_line("none")
