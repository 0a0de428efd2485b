"""The README's quick tour runs as written, so that a renamed or deleted
public name fails the test suite and not a reader."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text()
    tour = re.search(r"Quick tour:\s*```python\n(.*?)```", text, re.S)
    assert tour, "README has no quick-tour python block"
    exec(compile(tour.group(1), "README quick tour", "exec"), {})
