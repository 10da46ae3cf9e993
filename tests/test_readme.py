"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import pytest

from treewedge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("treewedge ")]


def test_readme_has_commands():
    assert len(_command_lines()) >= 5


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)  # --json report.json lands here
    assert main(shlex.split(line)[1:]) == 0
