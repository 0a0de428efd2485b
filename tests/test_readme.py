"""The README's quick tour runs as written, so that a renamed or deleted
public name fails the test suite and not a reader."""

import re
import shlex
from pathlib import Path

from permanental.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    tour = re.search(r"Quick tour:\s*```python\n(.*?)```", text, re.S)
    assert tour, "README has no quick-tour python block"
    exec(compile(tour.group(1), "README quick tour", "exec"), {})


def test_cli_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("permanental ")]
    assert len(lines) >= 12
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
