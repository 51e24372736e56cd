"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_shown_equations():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code, shown = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    expected = shown.strip().splitlines()
    assert len(expected) == 4
    assert out.getvalue().splitlines() == expected
