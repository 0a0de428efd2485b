"""Self-test of the output gate: corrupted outputs must count as failed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from gate import (  # noqa: E402
    check_job,
    is_refusal,
    laplace_reference,
    levy_references,
    permanent_oracle,
)
from workloads import LEVY_JOBS, LEVY_MODELS, LEVY_POINTS, Inputs, Job, m_matrix  # noqa: E402


def _write(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _brute_permanent(m, alpha):
    n = len(m)
    total = 0.0
    for perm in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for i in range(n):
            if i not in seen:
                cycles += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        total += alpha**cycles * math.prod(m[i][perm[i]] for i in range(n))
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_permanent_oracle_matches_enumeration(n):
    m = np.random.default_rng(n).random((n, n))
    for alpha in (0.5, 1.0, 2.0):
        assert permanent_oracle(m, alpha) == pytest.approx(_brute_permanent(m, alpha),
                                                           rel=1e-12)


def _permanent_job(tmp_path, value):
    m = np.random.default_rng(7).random((6, 6)).tolist()
    out = _write(tmp_path / "perm.out", {"value": value, "alpha": 1.5, "n": 6,
                                         "rel_err": 1e-14})
    return Job("permanent", ["permanent"], out, {"type": "permanent", "matrix": m,
                                                 "alpha": 1.5})


def test_wrong_permanent_fails(tmp_path):
    m = np.random.default_rng(7).random((6, 6))
    right = permanent_oracle(m, 1.5)
    assert check_job(_permanent_job(tmp_path, right)) is None
    wrong = permanent_oracle(m, 1.0)  # alpha ignored
    assert check_job(_permanent_job(tmp_path, wrong)) is not None
    assert check_job(_permanent_job(tmp_path, right * (1 + 1e-9))) is not None


def _laplace_job(tmp_path, value, rel_err):
    A = m_matrix(4, 0.3, np.random.default_rng(3))
    s = [0.5, 1.0, 0.0, 2.0]
    out = _write(tmp_path / "lap.out", {"value": value, "rel_err": rel_err})
    check = {"type": "laplace", "A": A.tolist(), "alpha": 2.0, "s": s}
    return Job("laplace", ["laplace"], out, check), laplace_reference(A, 2.0, s)


@pytest.mark.parametrize("rel_err", [1e-14, 1e-8])
def test_laplace_off_by_1e6_relative_fails(tmp_path, rel_err):
    _, ref = _laplace_job(tmp_path, 0.0, rel_err)
    job, _ = _laplace_job(tmp_path, ref, rel_err)
    assert check_job(job) is None
    job, _ = _laplace_job(tmp_path, ref * (1 + 1e-6), rel_err)
    assert check_job(job) is not None


def _sample_job(tmp_path, corrupt_row=None):
    g = np.random.default_rng(11)
    mean = np.array([1.5, 2.5])
    x = g.gamma(1.0, mean, size=(4000, 2))
    lower = x * g.random((4000, 2))
    z = g.integers(0, 3, size=(4000, 2))
    if corrupt_row is not None:
        lower[corrupt_row, 1] = x[corrupt_row, 1] + 1e-9
    path = tmp_path / "s.csv"
    with open(path, "w") as fh:
        fh.write("X_1,X_2,L_1,L_2,Z_1,Z_2\n")
        for xl, zs in zip(np.hstack([x, lower]), z):
            fh.write(",".join([*(repr(float(v)) for v in xl), *(str(int(v)) for v in zs)]))
            fh.write("\n")
    check = {"type": "sample", "n": 2, "draws": 4000, "couple": True,
             "mean": mean.tolist()}
    return Job("sample", ["sample"], str(path), check, stdout_is_out=False)


def test_sample_row_with_x_below_l_fails(tmp_path):
    assert check_job(_sample_job(tmp_path)) is None
    reason = check_job(_sample_job(tmp_path, corrupt_row=17))
    assert reason is not None and "X < L" in reason


def _levy_job(tmp_path, bump=None):
    model, h = LEVY_JOBS[0]
    label, _ = LEVY_MODELS[model]
    points = [j * h for j in range(LEVY_POINTS)]
    ref = levy_references()[f"{label} h={h}"]
    rows = [list(r) for r in ref["kernel"]]
    err = ref["quad_err"]
    if bump is not None:
        i, j = bump
        rows[i][j] += 10.0 * err
    out = _write(tmp_path / "levy.out", {"points": points, "quad_err": err,
                                         "kernel": {"n": LEVY_POINTS, "rows": rows}})
    check = {"type": "levy-kernel", "model": label, "h": h, "points": points}
    return Job("levy", ["levy"], out, check)


@pytest.mark.parametrize("bump", [(0, 0), (1, 2), (3, 0)])
def test_levy_entry_off_by_10_quad_err_fails(tmp_path, bump):
    assert check_job(_levy_job(tmp_path)) is None
    assert check_job(_levy_job(tmp_path, bump)) is not None


def test_only_probes_at_the_cap_count_as_refused(tmp_path):
    jobs = Inputs("short-queries", 1, str(tmp_path)).build()
    probe = next(j for j in jobs if j.probe)
    plain = next(j for j in jobs if not j.probe)
    message = "error: coefficient grid 11^8 = 214358881 exceeds cap 40000000\n"
    assert is_refusal(probe, 2, message)
    assert not is_refusal(probe, 1, message)
    assert not is_refusal(plain, 2, message)
