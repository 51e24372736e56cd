"""The README's library example prints what the README shows, every job
file of its "Job files" section runs through ``falsify``, and its facts
about the pinned example ids and the modules ``import veralg`` loads hold."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_exports import HEAVY_MODULES

from veralg import cases, cli

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


def _backticked(paragraph, pattern=r"[^`]+"):
    return re.findall(f"`({pattern})`", paragraph)


def test_pinned_example_ids_are_the_documented_ones():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Pinned example ids:", 1)[1].split("\n\n", 1)[0]
    # every id has an underscore; the subcommands the paragraph names do not
    assert tuple(_backticked(paragraph, r"\w+_\w+")) == cases.EXAMPLE_IDS


def test_import_loads_the_documented_modules():
    text = " ".join(README.read_text(encoding="utf-8").split())
    named = _backticked(text.split("`import veralg` loads", 1)[1].split(".", 1)[0])
    assert named
    assert not set(named) & set(HEAVY_MODULES)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, veralg; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(README.parent / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert [m for m in named if m not in loaded] == []
