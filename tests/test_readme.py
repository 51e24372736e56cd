"""The README's library example prints what the README shows, and every
job file of its "Job files" section runs through ``falsify``."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from veralg import cli

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


def _job_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Job files", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"```json\n(.*?)```", section, re.S)


def _kind(block):
    return re.search(r'"kind": "([^"]+)"', block).group(1)


def test_job_files_show_both_kinds():
    assert [_kind(b) for b in _job_blocks()] == ["equation-ideal", "smallest-closed"]


@pytest.mark.parametrize("block", _job_blocks(), ids=_kind)
def test_job_file_falsifies(block, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(block, encoding="utf-8")
    assert cli.main(["falsify", "--spec", str(path)]) == 0, capsys.readouterr().err
