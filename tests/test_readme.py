"""The README's library example runs as printed, so removing or renaming a
public name it uses fails here instead of for a reader who copies it."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "True ['[1, 2, 3, 4] -> [6, 7, 8, 9]']",
        "True ['remove-edges u=7 v=1', 'remove-edges u=11 v=2']",
    ]
