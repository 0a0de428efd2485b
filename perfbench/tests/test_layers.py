"""Span bookkeeping of the traced run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from layers import distinct_lags, outer_calls, self_times  # noqa: E402

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["levy.potential_bundle", 1.0, 9.0, 0],
        ["levy.psi_with_error", 2.0, 5.0, 1],
        ["oscillatory.quad_careful", 3.0, 4.0, 2],
    ]
    assert self_times(spans) == [2.0, 5.0, 2.0, 1.0]


def test_outer_calls_skip_calls_nested_in_their_own_group():
    spans = [
        ["levy.psi_with_error", 0.0, 4.0, -1],   # negative lambda ...
        ["levy.psi_with_error", 1.0, 3.0, 0],    # ... recurses once
        ["gamma_tails.tail_bounds", 5.0, 6.0, -1],
        ["gamma_tails.gamma_tail_exact", 5.2, 5.5, 2],
    ]
    time, calls = outer_calls(spans)
    assert calls["levy.psi_s"] == 1 and time["levy.psi_s"] == 4.0
    assert calls["gamma_tails.tail_s"] == 1 and time["gamma_tails.tail_s"] == 1.0


def test_rounding_distinct_lags_count_once():
    pts = [j * 0.1 for j in range(4)]
    lags = {abs(t - s) for s in pts for t in pts}
    assert len(lags) == 6
    assert distinct_lags(list(lags)) == 4


def test_launcher_sees_calls_through_names_copied_by_from_import(tmp_path):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.5], [0.25, 1.0]]}))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "launcher.py"), str(trace), "--",
         "permanent", "--matrix", str(matrix), "--alpha", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    spans = json.loads(trace.read_text())["spans"]
    names = [s[0] for s in spans]
    # cli calls alpha_permanent through its own `from .linalg import` binding
    perm = names.index("linalg.alpha_permanent")
    assert names[spans[perm][3]] == "cli.main"
    assert "matio.load_matrix" in names
