"""The README's library example runs as written, so every public name it
shows stays exported, and every ``--option`` it names is one a parser
accepts, so it documents no removed route."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from mlmod.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()  # the example prints Q and the community count


def test_every_readme_option_is_accepted(capsys):
    helps = []
    for command in ("detect", "sweep", "compare"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    helps.append(subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), "--help"],
                                capture_output=True, text=True, check=True).stdout)
    # an option's own help line starts two blanks in; wrapped help text starts further in
    accepted = set(re.findall(r"^  (?:-\w, )?(--[a-z][a-z-]*)", "".join(helps), re.M))
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text(encoding="utf-8")))
    assert {"--out", "--against"} <= accepted
    assert not named - accepted, sorted(named - accepted)
