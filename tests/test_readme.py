"""README.md's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced ``python`` block under ``## Library example``."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert float(capsys.readouterr().out) < namespace["trace"].rows[0].center_dist
    heat = namespace["heat"].data
    assert heat.shape == (64, 64) and 0.0 <= heat.min() and heat.max() <= 1.0
