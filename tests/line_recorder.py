"""Pytest plugin: the lines of trapeval's functions that the suite never
runs, and those that only unit tests run.

    PYTHONPATH=src:tests python -m pytest -p line_recorder

The suite does not collect this file. From ``pytest_configure`` on, it
records every line executed in a file of the ``trapeval`` package, with
``sys.settrace`` (and ``threading.settrace`` for threads started later),
under one of three contexts: with ``cli.main`` on the stack (a depth kept
from its call and return events), else in a test of
``tests/test_acceptance.py`` (the running test is read in
``pytest_runtest_setup``), else in any other test. At the end of the
session it compiles each module and prints two lists:

- per module, the lines of function code objects (nested functions,
  lambdas and comprehensions included) that never ran;
- per module and function, the lines that ran only in the third context:
  neither a command nor the acceptance suite reaches them;

then the counts of function lines in each context. Module and class
bodies, and the comprehensions in them, are left out: they run at import,
which may come before recording starts. Lines run only in a child process
(the suite's ``subprocess`` tests) are not seen. Tracing makes the suite
about twice as slow.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

import trapeval
from trapeval.cli import main

PACKAGE = Path(trapeval.__file__).parent
_PREFIX = str(PACKAGE)
_MAIN = main.__code__
_CO_OPTIMIZED = 0x1  # set on function code, clear on module and class bodies
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

# The lines run under cli.main, in tests/test_acceptance.py, in other tests.
_hits: tuple[set[tuple[str, int]], ...] = (set(), set(), set())
_cli_depth = 0
_in_acceptance = False
_current = _hits[2]


def _update() -> None:
    global _current
    _current = _hits[0] if _cli_depth else _hits[1] if _in_acceptance else _hits[2]


def _local(frame, event, arg):
    if event == "line":
        _current.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _main_local(frame, event, arg):
    global _cli_depth
    if event == "line":
        _current.add((frame.f_code.co_filename, frame.f_lineno))
    elif event == "return":  # also as an exception leaves the frame
        _cli_depth -= 1
        _update()
    return _main_local


def _global(frame, event, arg):
    global _cli_depth
    code = frame.f_code
    if not code.co_filename.startswith(_PREFIX):
        return None
    if code is _MAIN:
        _cli_depth += 1
        _update()
        _current.add((code.co_filename, code.co_firstlineno))
        return _main_local
    _current.add((code.co_filename, code.co_firstlineno))
    return _local


def function_lines(code, owner: str | None = None) -> dict[int, str]:
    """Line number -> name of the outermost function it lies in, for the
    function code objects nested in ``code``. A comprehension outside any
    function runs at import, so it is left out."""
    lines: dict[int, str] = {}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            counted = bool(const.co_flags & _CO_OPTIMIZED) and (
                owner is not None or const.co_name not in _COMPREHENSIONS
            )
            name = owner
            if counted:
                name = owner or getattr(const, "co_qualname", const.co_name)
                for _, _, line in const.co_lines():
                    if line is not None:
                        lines.setdefault(line, name)
            for line, inner in function_lines(const, name).items():
                lines.setdefault(line, inner)
    return lines


def module_lines() -> dict[str, tuple[str, dict[int, str]]]:
    """Per module file name: its compiled file name and its function lines."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, encoding="utf-8") as stream:
            code = compile(stream.read(), str(path), "exec")
        report[path.name] = code.co_filename, function_lines(code)
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


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    global _in_acceptance
    _in_acceptance = item.path.name == "test_acceptance.py"
    _update()


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    counts = [0, 0, 0, 0]  # under cli.main, only acceptance, only other tests, never
    never: list[str] = []
    unit_only: list[str] = []
    for name, (filename, lines) in module_lines().items():
        ran = [{line for file, line in hits if file == filename} for hits in _hits]
        missed: list[int] = []
        by_function: dict[str, list[int]] = {}
        for line in sorted(lines):
            context = next((i for i, hits in enumerate(ran) if line in hits), 3)
            counts[context] += 1
            if context == 3:
                missed.append(line)
            elif context == 2:
                by_function.setdefault(lines[line], []).append(line)
        if missed:
            never.append(f"{name}: {ranges(missed)}")
        unit_only += [f"{name} {function}: {ranges(found)}" for function, found in by_function.items()]
    terminalreporter.section("trapeval function lines never run")
    for line in never or ["none"]:
        write(line)
    terminalreporter.section("trapeval function lines run only outside cli.main and tests/test_acceptance.py")
    for line in unit_only or ["none"]:
        write(line)
    cli, acceptance, other, missed = counts
    write(
        f"{sum(counts):,} function lines: {cli:,} under cli.main, {acceptance:,} more only under "
        f"tests/test_acceptance.py, {other:,} only from other tests, {missed:,} never run"
    )
