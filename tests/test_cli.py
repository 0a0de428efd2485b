import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from permanental import bounds, cli, gamma_tails, levy, linalg, markov, matio, sampler
from permanental.cli import _MAX_LAG, _scan_kernel
from permanental.errors import PermanentalError
from permanental.model import PermanentalSpec
from permanental.sampler import RngStream, sample_chunks

from conftest import (gather, laplace_means, naive_alpha_permanent, oracle_chunks,
                      save_spec_file)

CLI = [sys.executable, "-m", "permanental.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kw
    )


@pytest.fixture(scope="module")
def kernel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "kernel.json"
    out = run_cli("gen-kernel", "--n", 3, "--seed", 5, "--kill-min", 0.6,
                  "--out", path)
    assert out.returncode == 0, out.stderr
    return str(path)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory, kernel_file):
    path = tmp_path_factory.mktemp("cli") / "spec.json"
    save_spec_file(str(path), 1.0, kernel=matio.load_matrix(kernel_file))
    return str(path)


def test_validate_kernel_report(kernel_file):
    out = run_cli("validate-kernel", kernel_file)
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["passed"] is True
    assert report["positive_row_sums"] is True


def test_validate_kernel_rejects_non_m(tmp_path):
    bad = tmp_path / "bad.json"
    matio.save_matrix(str(bad), [[1.0, 2.0], [2.0, 1.0]])
    out = run_cli("validate-kernel", str(bad))
    assert out.returncode == 2
    assert json.loads(out.stdout)["passed"] is False


def test_bounds_decides_its_hypotheses_at_the_validation_tolerance(tmp_path):
    # row 0 of A sums to 5e-11 and column 1 of K clears its maximum by about
    # 8e-11, both within linalg.SIGN_TOL: validate-kernel reports no positive
    # row sums, and the bounds that assume them or the column gaps refuse
    A = np.array([[1.0, -1.0 + 5e-11, 0.0], [-0.25, 1.0, -0.25], [-0.25, -0.25, 1.0]])
    path = tmp_path / "edge.json"
    matio.save_matrix(str(path), np.linalg.inv(A))
    out = run_cli("validate-kernel", path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["positive_row_sums"] is False
    for which, message in (("simple", "row sum of A[0,:] = 5e-11 is not positive"),
                           ("scaled", "K[1,1] does not exceed its column maximum")):
        out = run_cli("bounds", "--which", which, "--kernel", path)
        assert (out.returncode, out.stdout) == (2, ""), out.stderr
        assert out.stderr == f"error: {message}\n"


def test_corrupted_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    save_spec_file(str(spec), 1.0, a_matrix=[[1.0, 0.5], [0.0, 1.0]])
    out = run_cli("laplace", "--spec", str(spec), "--s", "1,1")
    assert out.returncode == 2
    assert "error" in out.stderr


_SPEC_1X1 = '{"alpha": 1, "kernel": {"n": 1, "rows": [[1]]}}'
_BOUNDS_WHICH = ("simple", "sigma", "scaled", "psi-star", "sudakov")
_KERNEL_2X2 = '{"n": 2, "rows": [[1, 0.5], [0.2, 1]]}'
_BEYOND_FLOAT = "1" + "0" * 400  # a JSON integer that no float holds
# JSON matrices whose n or cells are not numbers: (id, file text, message)
_BAD_JSON_MATRICES = [
    ("n-list", '{"n": [3], "rows": [[1]]}', "declared n must be an integer, got [3]"),
    ("n-null", '{"n": null, "rows": [[1]]}', "declared n must be an integer, got None"),
    ("cell-object", '{"n": 1, "rows": [[{}]]}', "a matrix cell must be a number, got {}"),
    ("cell-beyond-float", '{"n": 1, "rows": [[%s]]}' % _BEYOND_FLOAT,
     "a matrix cell must fit in a float"),
    ("cell-true", '{"n": 1, "rows": [[true]]}', "a matrix cell must be a number, got True"),
    ("cell-string", '{"n": 1, "rows": [["1.5"]]}', "a matrix cell must be a number, got '1.5'"),
]
# model parameters that every levy mode refuses: (id, arguments, message)
_BAD_LEVY_MODELS = [
    ("p-nan", ["--p", "nan", "--gamma", -0.5], "need p, q >= 0 with p + q = 1"),
    ("beta-nan", ["--p", 0.8, "--gamma", -0.5, "--beta", "nan"],
     "beta must be positive and finite"),
    ("beta-0", ["--p", 0.8, "--gamma", -0.5, "--beta", 0], "beta must be positive and finite"),
    ("delta-inf", ["--p", 0.8, "--gamma", -0.5, "--delta", "inf"], "delta must be finite"),
    ("gamma-nan", ["--p", 0.8, "--gamma", "nan"], "gamma must be finite"),
    ("eps-cut-nan", ["--p", 0.8, "--gamma", -0.5, "--eps-cut", "nan"], "cut must be finite"),
]
# the levy modes besides --u, each with its input file text
_LEVY_MODES = [("scan-thm16", ["--scan-thm16", 100], None),
               ("kernel", ["--kernel"], '{"points": [0, 0.1]}')]


@pytest.mark.parametrize("argv, text, message", [
    (["permanent", "--alpha", 1, "--matrix"], "[[1, 0], [0, 1]]", '"rows" list'),
    (["laplace", "--s", 1, "--spec"], '{"alpha": 1, "kernel": [[1]]}', '"rows" list'),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--kernel"], '{"points": 5}', "finite numbers"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--kernel"], '{"points": [0, 1%s]}' % ("0" * 400),
     "finite numbers"),
    (["laplace", "--s", 1, "--spec"], '{"alpha": Infinity, "kernel": {"n": 1, "rows": [[1]]}}',
     "alpha must be positive and finite"),
    (["mc-validate", "--n", 100, "--seed", 1, "--s-points", -1, "--spec"], _SPEC_1X1,
     "s_points must be nonnegative"),
    (["mc-validate", "--n", 1, "--seed", 1, "--s-points", 1, "--spec"], _SPEC_1X1,
     "at least 2 draws"),
    (["gamma-tail", "--u", 1, "--t", "nan"], None, "t must be finite"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "inf"], None, "is not finite"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "nan"], None, "is not finite"),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", "0,16"], None, "at least 2"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", ""], None,
     "--scan-thm16 needs at least one n"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", ","], None,
     "--scan-thm16 needs at least one n"),
    (["sample", "--n", 10, "--seed", 1, "--workers", 0, "--spec"], _SPEC_1X1, "--workers"),
    (["sample", "--n", 10, "--seed", 1, "--workers", -3, "--spec"], _SPEC_1X1, "--workers"),
    (["mc-validate", "--n", 10, "--seed", 1, "--workers", 0, "--spec"], _SPEC_1X1, "--workers"),
    *[(["bounds", "--which", which, "--kernel"], '{"n": 1, "rows": [[1]]}',
       "bounds need a kernel on at least 2 points, got n = 1")
      for which in _BOUNDS_WHICH],
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", 0], None,
     "p must be an integer from 1 to n = 16, got 0"),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", -1], None,
     "p must be an integer from 1 to n = 16, got -1"),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", 100], None,
     "p must be an integer from 1 to n = 16, got 100"),
    *[(["permanent", "--alpha", alpha, "--matrix"], '{"n": 1, "rows": [[1]]}',
       f"alpha must be positive and finite, got {alpha}") for alpha in ("nan", "inf")],
    (["classify", "--p", 0.8, "--gamma", "nan"], None, "gamma must be finite"),
    (["classify", "--p", "nan", "--gamma", -0.5], None, "need p, q >= 0 with p + q = 1"),
    (["levy", "--p", "nan", "--gamma", -0.5, "--u", 0.3], None,
     "need p, q >= 0 with p + q = 1"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--beta", "nan", "--u", 0.3], None,
     "beta must be positive and finite"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--delta", "inf", "--u", 0.3], None,
     "delta must be finite"),
    (["levy", "--p", 0.8, "--gamma", "nan", "--u", 0.3], None, "gamma must be finite"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--eps-cut", "nan", "--u", 0.3], None,
     "cut must be finite"),
    *[(["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", n], None,
       "every n must be finite and above 1") for n in ("nan", "1")],
    *[(["validate-kernel"], text, message) for _, text, message in _BAD_JSON_MATRICES],
    (["laplace", "--s", 1, "--spec"], '{"alpha": %s, "kernel": {"n": 1, "rows": [[1]]}}'
     % _BEYOND_FLOAT, "spec alpha must fit in a float"),
    *[(["levy", *model, *mode], text, message)
      for _, model, message in _BAD_LEVY_MODELS for _, mode, text in _LEVY_MODES],
], ids=["permanent-list", "laplace-bare-kernel", "levy-points-number",
        "levy-points-int-beyond-float", "spec-alpha-inf",
        "mc-validate-s-points", "mc-validate-n-1", "gamma-tail-t-nan", "levy-u-inf",
        "levy-u-nan", "unbounded-scan-n-0", "levy-scan-thm16-empty", "levy-scan-thm16-comma",
        "sample-workers-0", "sample-workers-negative", "mc-validate-workers-0",
        *[f"bounds-{w}-1x1" for w in _BOUNDS_WHICH],
        "unbounded-scan-p-0", "unbounded-scan-p-negative", "unbounded-scan-p-above-n",
        "permanent-alpha-nan", "permanent-alpha-inf", "classify-gamma-nan", "classify-p-nan",
        "levy-p-nan", "levy-beta-nan", "levy-delta-inf", "levy-gamma-nan", "levy-eps-cut-nan",
        "levy-scan-thm16-nan", "levy-scan-thm16-1",
        *[f"validate-kernel-{case}" for case, _, _ in _BAD_JSON_MATRICES],
        "spec-alpha-beyond-float",
        *[f"levy-{mode}-{case}" for case, _, _ in _BAD_LEVY_MODELS for mode, _, _ in _LEVY_MODES]])
def test_bad_input_exits_2_with_its_own_message(tmp_path, argv, text, message):
    # the input file, if any, is the last argument
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = argv + [path]
    out = run_cli(*argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv, code, message", [
    (["gamma-tail", "--u", "3e4", "--t", "3e4"], 0, None),
    (["gamma-tail", "--u", "1e6", "--t", "0.999e6"], 0, None),
    (["gamma-tail", "--u", "2e8", "--t", "2e8"], 2, "shape u = 2e+08"),
    (["gamma-tail", "--u", 2, "--v", "1e200", "--t", "1e200"], 2, "v*t = 1e+200 * 1e+200"),
    (["gamma-tail", "--u", 2, "--v", "1e-300", "--t", "1e-300"], 0, None),
    (["permanent", "--alpha", "1e300", "--matrix"], 2, "alpha = 1e+300"),
    (["levy", "--p", 0.8, "--gamma", "1e300", "--u", 0.3], 2, "gamma=1e+300"),
    (["levy", "--p", 0.5, "--gamma", "1e300", "--scan-thm16", "1e2"], 2, "gamma = 1e+300"),
    (["levy", "--p", 0.8, "--gamma", "1e300", "--scan-thm16", "1e2"], 2, "gamma = 1e+300"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "1e-300"], 2, "lag z = 1e-300"),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "1e-100"], 2,
     "lag z = 1e-100 is too small: its error bound 8.4e+83 reaches u(0) = 3.5177"),
    (["sample", "--n", 0, "--seed", 1, "--spec"], 2, "got n = 0"),
    (["sample", "--n", -3, "--seed", 1, "--spec"], 2, "got n = -3"),
    (["bounds", "--which", "simple", "--kernel"], 2, "row sum of A[0,:] = -1 is not positive"),
    *[(["unbounded-scan", "--kernel-model", "brownian", "--n", 4, "--delta", delta], 2,
       f"delta must be positive and finite, got {delta}") for delta in ("0.0", "-0.1", "inf")],
], ids=["gamma-tail-u-3e4", "gamma-tail-u-1e6", "gamma-tail-u-past-cap", "gamma-tail-vt-inf",
        "gamma-tail-vt-zero", "permanent-overflow", "levy-gamma-1e300-table",
        "levy-gamma-1e300-thm16-sym", "levy-gamma-1e300-thm16-asym", "levy-lag-1e-300",
        "levy-lag-1e-100", "sample-n-0", "sample-n-negative", "bounds-simple-row-sum", "unbounded-scan-delta-0",
        "unbounded-scan-delta-negative", "unbounded-scan-delta-inf"])
def test_extreme_inputs_print_json_or_a_named_refusal(tmp_path, argv, code, message):
    if argv[-1] == "--matrix":
        path = tmp_path / "k4.json"
        assert run_cli("gen-kernel", "--n", 4, "--seed", 1, "--out", path).returncode == 0
        argv = argv + [path]
    elif argv[-1] == "--kernel":
        # A = K^-1 = [[1, -2], [-0.1, 1]]: row 0 sums to -1
        path = tmp_path / "row-sum.json"
        path.write_text('{"n": 2, "rows": [[1.25, 2.5], [0.125, 1.25]]}')
        argv = argv + [path]
    elif argv[-1] == "--spec":
        path = tmp_path / "spec.json"
        path.write_text(_SPEC_1X1)
        argv = argv + [path]
    out = run_cli(*argv)
    assert "RuntimeWarning" not in out.stderr
    assert out.returncode == code, out.stderr
    if code == 0:
        json.loads(out.stdout, parse_constant=_reject_constant)
    else:
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and message in out.stderr


@pytest.mark.parametrize("modes, message", [
    ([], "one of the arguments --u --scan-thm16 --kernel is required"),
    (["--u", 0.3, "--kernel", "/nonexistent/points.json"], "not allowed with argument"),
    (["--u", 0.3, "--scan-thm16", 100], "not allowed with argument"),
], ids=["none", "u-and-kernel", "u-and-scan"])
def test_levy_takes_exactly_one_mode(modes, message):
    out = run_cli("levy", "--p", 0.8, "--gamma", -0.5, *modes)
    assert out.returncode == 2 and out.stdout == ""
    assert message in out.stderr


def test_workers_variable_is_not_read():
    out = run_cli("classify", "--p", 0.8, "--gamma", -0.5,
                  env={**os.environ, "PERMANENTAL_WORKERS": "abc"})
    assert out.returncode == 0, out.stderr


def test_bounds_takes_no_k_hat(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(_KERNEL_2X2)
    out = run_cli("bounds", "--which", "scaled", "--k-hat", 2, "--kernel", path)
    assert out.returncode == 2 and out.stdout == ""
    assert "unrecognized arguments: --k-hat 2" in out.stderr


# every option string of each subcommand, positionals by name; a change of
# the CLI surface edits this map, so the count of knobs shows in the diff
_SUBCOMMAND_OPTIONS = {
    "permanent": ["--alpha", "--matrix", "--out"],
    "laplace": ["--method", "--out", "--rel-tol", "--s", "--spec"],
    "z-dist": ["--out", "--spec", "--target-mass"],
    "sample": ["--couple", "--n", "--out", "--seed", "--spec", "--workers"],
    "mc-validate": ["--n", "--out", "--s-points", "--seed", "--spec", "--workers"],
    "gamma-tail": ["--bounds", "--out", "--t", "--u", "--v"],
    "bounds": ["--kernel", "--out", "--p", "--which"],
    "unbounded-scan": ["--delta", "--kernel-model", "--n", "--out", "--p", "--shift"],
    "gen-kernel": ["--kill-min", "--n", "--out", "--seed"],
    "validate-kernel": ["--out", "kernel"],
    "levy": ["--beta", "--delta", "--eps-cut", "--gamma", "--kernel", "--out", "--p", "--q",
             "--scan-thm16", "--u"],
    "classify": ["--delta", "--gamma", "--out", "--p", "--q"],
}


def test_each_subcommand_takes_exactly_its_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions if not isinstance(a, argparse._HelpAction)
                        for s in a.option_strings or [a.dest])
           for name, p in sub.choices.items()}
    assert got == _SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv, given", [
    (["bounds", "--which", "simple", "--kernel"], ["--tol", "1e-6"]),
    (["bounds", "--which", "sigma", "--kernel"], ["--c", "0.5"]),
    (["validate-kernel"], ["--tol", "1e-6"]),
], ids=["bounds-tol", "bounds-c", "validate-kernel-tol"])
def test_kernel_commands_take_no_tolerance_and_no_c(tmp_path, argv, given):
    path = tmp_path / "kernel.json"
    path.write_text(_KERNEL_2X2)
    out = run_cli(*argv, path, *given)
    assert out.returncode == 2 and out.stdout == ""
    assert f"unrecognized arguments: {' '.join(given)}" in out.stderr


def test_one_kernel_gets_one_verdict(tmp_path):
    # min(s, t) on j 0.1 / 64: its inverse carries 1.6e-12 of rounding noise
    # off the diagonal, where the exact A has zeros
    t = np.arange(1, 65) * 0.1 / 64
    K = np.minimum.outer(t, t)
    kernel = tmp_path / "kernel.json"
    matio.save_matrix(str(kernel), K)
    specs = [tmp_path / "k_spec.json", tmp_path / "a_spec.json"]
    save_spec_file(str(specs[0]), 0.5, kernel=K)
    save_spec_file(str(specs[1]), 0.5, a_matrix=linalg.invert(K))
    out = run_cli("validate-kernel", kernel)
    assert out.returncode == 0 and json.loads(out.stdout)["passed"] is True, out.stderr
    out = run_cli("bounds", "--which", "psi-star", "--kernel", kernel)
    assert out.returncode == 0, out.stderr
    s = ",".join(["1"] * 64)
    for spec in specs:
        out = run_cli("laplace", "--method", "det", "--s", s, "--spec", spec)
        assert out.returncode == 0, out.stderr
        out = run_cli("sample", "--n", 10, "--seed", 1, "--spec", spec)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == ("error: a draw would take 2016 loop-soup steps on average, "
                              "which exceeds cap 1000\n")


# stdout sha256 of z-dist and of laplace by series and by determinant, on the
# README spec, an n = 4 spec with Perron root 0.75 (a 35^4-point coefficient
# grid, with rho above sin(pi/n)) and an acyclic n = 3 spec; recorded before
# the Z enumeration and the series transform shared their series parts, and
# the readme and rho75 z-dist hashes again when the grid moved to LU pivots
# (every mass within 1e-15 of before) and when it moved to the half grid and
# an inverse real FFT (every mass within 2.3e-16 of before)
_MODEL_SPECS = {  # name: (alpha, A); "readme" is gen-kernel --n 5 --seed 3, alpha 1
    "rho75": (1.0, np.eye(4) - 0.25 * (np.ones((4, 4)) - np.eye(4))),
    "acyclic": (1.5, [[1.0, -0.3, -0.2], [0.0, 1.0, -0.4], [0.0, 0.0, 1.0]]),
}
_MODEL_COMMANDS = {
    "z-dist": ["z-dist", "--target-mass", 0.999],
    "series": ["laplace", "--method", "series", "--rel-tol", 1e-10, "--s"],
    "det": ["laplace", "--method", "det", "--s"],
}
_MODEL_SHA256 = {
    ("readme", "z-dist"):
        "eab62adb102f5d049b9ca1d92b1a6a78849f634204087e070041782bacbfaa26",
    ("readme", "series"):
        "dfc1789640f49a501e010b3e1807a7bf81002226ea768dfaeb2df2ed5e90fd2c",
    ("readme", "det"):
        "b021064e30fb50b06cc130c581d26d1cddfef3c50f3a1209146e8cee2c7776a3",
    ("rho75", "z-dist"):
        "3e67677aaadfe560d2d769a475c24f53dd59234928ce8445260672118f703e7b",
    ("rho75", "series"):
        "86991c6266ac166027a49f4385bc20d3b3d16264b39787ecfe96e2631a18e885",
    ("rho75", "det"):
        "8d035a41ddf06bc5979b0464e935926423c9827e778e32865fd4c63c489c68e1",
    ("acyclic", "z-dist"):
        "fd03967c898774a55f486c847cc6bf9c2ee97470eaf34ab7de50d805379f4652",
    ("acyclic", "series"):
        "c99ab0a2cf6da4591bea66d335cf3a669544f2602a20ffe011e5f8cf942c9e65",
    ("acyclic", "det"):
        "cab949724b3164378f6683f6937de7ad4f39d9fbf31fee1144d414ba3ef7cb21",
}


def _model_stdout_sha256(name: str, command: str, tmp_path) -> str:
    spec = tmp_path / "spec.json"
    if name == "readme":
        kernel = tmp_path / "kernel.json"
        assert run_cli("gen-kernel", "--n", 5, "--seed", 3, "--out", kernel).returncode == 0
        save_spec_file(str(spec), 1.0, kernel=matio.load_matrix(str(kernel)))
        n = 5
    else:
        alpha, a = _MODEL_SPECS[name]
        save_spec_file(str(spec), alpha, a_matrix=a)
        n = len(a)
    args = _MODEL_COMMANDS[command]
    if command != "z-dist":
        args = args + [",".join(["0.7"] * n)]
    out = run_cli(*args, "--spec", spec)
    assert out.returncode == 0, out.stderr
    return hashlib.sha256(out.stdout.encode()).hexdigest()


@pytest.mark.parametrize("name, command", sorted(_MODEL_SHA256))
def test_model_outputs_keep_their_bytes(name, command, tmp_path):
    assert _model_stdout_sha256(name, command, tmp_path) == _MODEL_SHA256[(name, command)]


def test_laplace_methods_agree_within_printed_rel_err(spec_file):
    det = json.loads(run_cli("laplace", "--spec", spec_file, "--s", "1,0.5,2").stdout)
    ser = json.loads(
        run_cli("laplace", "--spec", spec_file, "--s", "1,0.5,2",
                "--method", "series", "--rel-tol", "1e-9").stdout
    )
    assert ser["terms_used"] > 0
    tol = max(ser["rel_err"], 1e-12) * abs(det["value"]) + 1e-14
    assert abs(det["value"] - ser["value"]) <= 4 * tol + 1e-9 * abs(det["value"])


def test_sample_deterministic_bytes(spec_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        out = run_cli("sample", "--spec", spec_file, "--n", 50, "--seed", 1,
                      "--couple", "--out", path)
        assert out.returncode == 0, out.stderr
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "X_1,X_2,X_3,L_1,L_2,L_3,Z_1,Z_2,Z_3"


def test_sample_worker_invariance(spec_file, tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    run_cli("sample", "--spec", spec_file, "--n", 400, "--seed", 9,
            "--workers", 1, "--out", a)
    run_cli("sample", "--spec", spec_file, "--n", 400, "--seed", 9,
            "--workers", 4, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def quoted(text: str) -> str:
    """A CSV cell of text: in quotes, with its quotes doubled, when it holds
    a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def loop_csv_line(values) -> str:
    """Reference for the CLI's CSV bytes, one cell at a time: a float by
    repr(float(v)), None as an empty cell, anything else by str, quoted."""
    cells = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            cells.append(repr(float(v)))
        elif v is None:
            cells.append("")
        else:
            cells.append(quoted(str(v)))
    return ",".join(cells)


def test_sample_csv_matches_loop_formatter(spec_file, tmp_path):
    path = tmp_path / "s.csv"
    out = run_cli("sample", "--spec", spec_file, "--n", 3000, "--seed", 4, "--couple",
                  "--out", path)
    assert out.returncode == 0, out.stderr
    alpha, K, _ = matio.load_spec_file(spec_file)
    draws = gather(sample_chunks(PermanentalSpec.from_kernel(K, alpha), 3000, RngStream(4),
                                 with_coupling=True))
    want = [loop_csv_line([*x, *low, *(int(v) for v in z)]) for x, low, z in zip(*draws)]
    assert path.read_text().splitlines()[1:] == want


def oracle_csv_text(header, rows) -> str:
    """The former whole-text CSV formatter, with text cells quoted: every
    line is built in memory and joined once."""
    lines = [",".join(header)]
    lines += [",".join(["" if v is None else quoted(v) if type(v) is str else repr(v)
                        for v in row])
              for row in rows]
    return "\n".join(lines) + "\n"


def oracle_sample_csv(chunks) -> str:
    """Sample CSV bytes of a draw stream as the former formatter wrote them."""
    x, lower, z = gather(chunks)
    n = x.shape[1]
    header = [f"X_{i+1}" for i in range(n)]
    floats = x
    if lower is not None:
        header += [f"L_{i+1}" for i in range(n)]
        floats = np.hstack([x, lower])
    header += [f"Z_{i+1}" for i in range(n)]
    return oracle_csv_text(header, map(list.__add__, floats.tolist(), z.tolist()))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("couple", [False, True], ids=["plain", "couple"])
@pytest.mark.parametrize("size", ["1", "block-1", "block", "block+1", "chunks"])
def test_sample_csv_bytes_match_whole_text_oracle(spec_file, tmp_path, monkeypatch,
                                                  size, couple, workers):
    block = cli._CSV_BLOCK
    n_draws = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
               "chunks": 2 * block + 500}[size]
    if size == "chunks":
        monkeypatch.setattr(sampler, "_CHUNK", 1000)  # five chunks, three blocks
    path = tmp_path / "s.csv"
    argv = ["sample", "--spec", spec_file, "--n", str(n_draws), "--seed", "8",
            "--workers", str(workers), "--out", str(path)]
    assert cli.main(argv + ["--couple"] * couple) == 0
    want = oracle_sample_csv(oracle_chunks(cli._load_spec(spec_file), n_draws, RngStream(8),
                                           with_coupling=couple))
    assert path.read_bytes() == want.encode()


def test_mc_validate_json_bytes_match_concatenating_sampler(spec_file, monkeypatch, capsys):
    monkeypatch.setattr(sampler, "_CHUNK", 4096)
    argv = ["mc-validate", "--spec", spec_file, "--n", "10000", "--seed", "3",
            "--s-points", "3", "--workers", "2"]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(sampler, "sample_chunks", oracle_chunks)
    assert cli.main(argv) == 0
    assert got == capsys.readouterr().out


def test_mc_validate_prints_empirical_laplace_of_the_oracle_batch(spec_file, monkeypatch,
                                                                   capsys):
    monkeypatch.setattr(sampler, "_CHUNK", 1000)
    argv = ["mc-validate", "--spec", spec_file, "--n", "4500", "--seed", "5",
            "--s-points", "3"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    chunks = oracle_chunks(cli._load_spec(spec_file), 4500, RngStream(5), with_coupling=True)
    means = laplace_means(chunks, [point["s"] for point in report["points"]])
    assert report["inequality"]["n_draws"] == report["n_draws"] == 4500
    assert means == [(point["empirical"], point["se"]) for point in report["points"]]


def test_mc_validate_enters_the_sampler_once(spec_file, monkeypatch, tmp_path):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_chunks(*args, **kwargs)

    monkeypatch.setattr(sampler, "sample_chunks", counted)
    argv = ["mc-validate", "--spec", spec_file, "--n", "5000", "--seed", "6",
            "--s-points", "2", "--out", str(tmp_path / "mc.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


# sha256 of the mc-validate JSON without "inequality", recorded when the
# inequality check still drew a stream of its own: the Laplace points and the
# coupling count read the same draws since
_MC_VALIDATE_SHA256 = "4f2827f1b11a68cde6bc60e1cffa057d0453051c45a691aaa4a0ba2852895c91"


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mc_validate_outside_the_inequality_keeps_its_bytes(spec_file, tmp_path, workers):
    path = tmp_path / "mc.json"
    argv = ["mc-validate", "--spec", spec_file, "--n", "40000", "--seed", "9",
            "--s-points", "4", "--workers", str(workers), "--out", str(path)]
    assert cli.main(argv) == 0
    report = json.loads(path.read_text())
    assert report.pop("inequality")["n_draws"] == 40_000
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _MC_VALIDATE_SHA256


def test_csv_writer_peak_is_one_block_not_the_batch(tmp_path):
    chain = markov.random_transient_chain(5, 0.5, 3)
    spec = PermanentalSpec.from_kernel(markov.green_kernel(chain), 1.0)
    args = argparse.Namespace(out=str(tmp_path / "peak.csv"))

    def traced_peak(n_draws):
        chunks = list(sample_chunks(spec, n_draws, RngStream(62), with_coupling=True))
        tracemalloc.start()
        try:
            cli._write_csv(args, ["c"] * 15, cli._sample_blocks(chunks))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = traced_peak(2 * cli._CSV_BLOCK), traced_peak(12 * cli._CSV_BLOCK)
    assert many <= 1.25 * few


def _layout_edge_floats() -> list[float]:
    """Floats at and around every place where orjson's layout and repr's part:
    1e-5 (orjson's switch to an exponent), 1e-4 and 1e16 (repr's), the
    subnormal and largest doubles, signed zeros, 2**53, inf and nan."""
    edges = [1e-5, 1e-4, 1e16, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             2.0 ** 53, 1e-7, 1e22, 123456789012345678.0, 1.0, 0.5]
    near = [math.nextafter(e, to) for e in edges for to in (0.0, math.inf)]
    values = edges + near + [9.999999999999999e-5, 9.999999999999998e15]
    return values + [-v for v in values] + [0.0, -0.0, math.inf, -math.inf, math.nan]


def _csv_bytes(tmp_path, header, blocks) -> bytes:
    path = tmp_path / "w.csv"
    cli._write_csv(argparse.Namespace(out=str(path)), header, blocks)
    return path.read_bytes()


def test_csv_writer_array_blocks_match_the_repr_oracle(tmp_path):
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2 ** 64, size=140_000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)][:131_072]  # random exponents: every layout
    # random digits where orjson's layout is repr's: 1e-4 <= |x| < 1e16
    ryu = 10.0 ** rng.uniform(-4, 16, size=(4096, 16)) * rng.choice([-1.0, 1.0], (4096, 16))
    edges = np.array(_layout_edge_floats())
    blocks = [(finite.reshape(-1, 16), rng.integers(-2 ** 62, 2 ** 62, size=(8192, 3))),
              (ryu, rng.integers(0, 100, size=(4096, 3))),
              (np.resize(edges, (len(edges), 5)), np.arange(len(edges))[:, None]),
              (np.full((3, 2), 5e-5), np.zeros((3, 1), dtype=np.int64))]
    header = ["h"] * 19
    want = oracle_csv_text(header, [row for floats, ints in blocks
                                    for row in map(list.__add__, floats.tolist(),
                                                   ints.tolist())])
    assert _csv_bytes(tmp_path, header, blocks) == want.encode()


def test_csv_writer_row_blocks_match_the_repr_oracle(tmp_path):
    edges = _layout_edge_floats()
    rows = [edges[i:i + 6] for i in range(0, len(edges), 6)]
    rows += [[0.1, 8, None, 2.4665778017851725, 1e-05, "NotMMatrix: A[0,15] = 0.03"],
             [0.1, 16, None, None, 1e+16, 'say "a\\b" ],["'],
             [None, "", 'x""y', None, -0.0, 3]]
    header = ["h"] * 6
    blocks = [rows[:3], [], rows[3:]]
    assert _csv_bytes(tmp_path, header, blocks) == oracle_csv_text(header, rows).encode()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("couple", [False, True], ids=["plain", "couple"])
def test_sample_stdout_bytes_match_out_file(spec_file, tmp_path, couple, workers):
    path = tmp_path / "s.csv"
    argv = CLI + ["sample", "--spec", spec_file, "--n", str(cli._CSV_BLOCK + 1), "--seed", "6",
                  "--workers", str(workers)] + ["--couple"] * couple
    stdout = subprocess.run(argv, capture_output=True, check=True).stdout
    subprocess.run(argv + ["--out", str(path)], capture_output=True, check=True)
    assert stdout == path.read_bytes() and stdout.count(b"\n") == cli._CSV_BLOCK + 2


@pytest.mark.parametrize("command", ["sample", "mc-validate"])
def test_fresh_interpreter_bytes_match_across_worker_counts(spec_file, tmp_path, command):
    # two chunks, each layer module executed on its first use in a fresh process
    outs = []
    for workers in (1, 2):
        path = tmp_path / f"w{workers}"
        out = run_cli(*_stream_argv(command, spec_file, sampler._CHUNK + 500, workers, path))
        assert out.returncode == 0, out.stderr
        outs.append(path.read_bytes())
    assert outs[1] == outs[0]


def _stream_argv(command, spec_file, n_draws, workers, out):
    extra = ["--couple"] if command == "sample" else ["--s-points", "3"]
    return [command, "--spec", spec_file, "--n", str(n_draws), "--seed", "11",
            "--workers", str(workers), "--out", str(out), *extra]


@pytest.mark.parametrize("command", ["sample", "mc-validate"])
def test_streaming_peak_does_not_grow_with_the_draw_count(spec_file, tmp_path, monkeypatch,
                                                          command):
    chunk = 4096
    monkeypatch.setattr(sampler, "_CHUNK", chunk)

    def traced_peak(chunks):
        argv = _stream_argv(command, spec_file, chunks * chunk, 1, tmp_path / "out")
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(4)  # first-call allocations
    few, many = traced_peak(4), traced_peak(16)
    assert abs(many - few) < 0.1 * few


@pytest.mark.parametrize("command", ["sample", "mc-validate"])
def test_stream_bytes_match_across_worker_counts(spec_file, tmp_path, monkeypatch, command):
    monkeypatch.setattr(sampler, "_CHUNK", 1000)  # four chunks

    def refuse(self):
        raise AssertionError(f"a command started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    outs = []
    for workers in (1, 2, 4):
        path = tmp_path / f"w{workers}"
        assert cli.main(_stream_argv(command, spec_file, 3500, workers, path)) == 0
        outs.append(path.read_bytes())
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_scan_csv_matches_loop_formatter():
    out = run_cli("unbounded-scan", "--kernel-model", "loglog-smooth", "--n", "8,16")
    rows = bounds.unboundedness_statistic(_scan_kernel("loglog-smooth", 0.0), 0.1, [8, 16])
    assert rows[0].error is None and rows[1].psi_star is None  # numbers, empty and text cells
    want = [loop_csv_line([r.delta, r.n, r.psi_star, r.log_n_over_psi_star,
                           r.sigma_star2_log_n, r.error]) for r in rows]
    assert out.stdout.splitlines()[1:] == want


# the stand-in kernels as scalar functions K(s, t), as the scan once called them
_SCALAR_MODELS = {
    "brownian": lambda shift: (lambda s, t: min(s, t) + shift),
    "log-smooth": lambda shift: (
        lambda s, t: 1.0 + shift if s == t else 1.0 + shift - 0.5 / math.log(1.0 / abs(s - t))
    ),
    "loglog-smooth": lambda shift: (
        lambda s, t: 1.0 + shift
        if s == t
        else 1.0 + shift - 0.5 / math.log(math.log(1.0 / abs(s - t)))
    ),
}


def loop_scan(kernel_fn, delta, n_grid, p):
    """Reference scan: K filled by n^2 scalar kernel_fn(s, t) calls on the
    points j delta / n, then the library's inversion and statistics."""
    rows = []
    for n in n_grid:
        pts = [j * delta / n for j in range(1, n + 1)]
        K = np.array([[float(kernel_fn(s, t)) for t in pts] for s in pts])
        logn = math.log(n)
        star2_log_n = bounds.sigma_matrix(K).sigma_star2 * logn
        try:
            pair = linalg.validate_m_matrix(kernel=K)
        except PermanentalError as exc:
            rows.append(bounds.ScanRow(delta, n, None, None, star2_log_n,
                                       f"{type(exc).__name__}: {exc}"))
            continue
        star = bounds.psi_star(pair, p)
        rows.append(bounds.ScanRow(delta, n, star, logn / star, star2_log_n, None))
    return rows


@pytest.mark.parametrize("grid", [[16, 64, 256], [2, 4, 40]], ids=["16-256", "2-40"])
@pytest.mark.parametrize("shift", [0.0, 0.5])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("model", sorted(_MAX_LAG))
def test_scan_rows_match_the_scalar_kernel_loop(model, p, shift, grid):
    kernel, kernel_fn = _scan_kernel(model, shift), _SCALAR_MODELS[model](shift)
    t = np.arange(1, grid[-1] + 1) * 0.1 / grid[-1]
    assert kernel(t).tolist() == [[kernel_fn(s, u) for u in t.tolist()] for s in t.tolist()]
    rows = bounds.unboundedness_statistic(kernel, 0.1, grid, p=p)
    assert rows == loop_scan(kernel_fn, 0.1, grid, p)


def test_z_dist_output(spec_file):
    out = run_cli("z-dist", "--spec", spec_file, "--target-mass", "0.9999")
    payload = json.loads(out.stdout)
    assert payload["covered_mass"] + payload["tail_bound"] >= 1 - 1e-9
    zero = [m for m in payload["masses"] if m["k"] == [0, 0, 0]]
    assert zero and zero[0]["mass"] > 0


def test_acyclic_spec_is_answered(tmp_path):
    # A = I - 0.5 * superdiagonal: the chain never returns, so Z = 0
    spec = tmp_path / "acyclic.json"
    save_spec_file(str(spec), 1.0, a_matrix=np.eye(3) - 0.5 * np.eye(3, k=1))
    out = run_cli("z-dist", "--spec", spec)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["max_order"] == 0 and payload["tail_bound"] == 0.0
    ser = run_cli("laplace", "--spec", spec, "--s", "1,2,3", "--method", "series")
    assert ser.returncode == 0, ser.stderr
    assert json.loads(ser.stdout)["value"] == pytest.approx(1.0 / 24.0, rel=1e-14)
    draws = tmp_path / "draws.csv"
    out = run_cli("sample", "--spec", spec, "--n", 20, "--seed", 3, "--out", draws)
    assert out.returncode == 0, out.stderr
    rows = draws.read_text().splitlines()[1:]
    assert len(rows) == 20 and all(r.endswith(",0,0,0") for r in rows)


def test_sample_answers_a_spec_past_the_z_grid_cap(tmp_path):
    kernel, spec = tmp_path / "k6.json", tmp_path / "spec6.json"
    out = run_cli("gen-kernel", "--n", 6, "--seed", 3, "--kill-min", 0.3, "--out", kernel)
    assert out.returncode == 0, out.stderr
    save_spec_file(str(spec), 1.0, kernel=matio.load_matrix(str(kernel)))
    out = run_cli("z-dist", "--spec", spec)
    assert out.returncode == 2 and "exceeds cap" in out.stderr
    draws = tmp_path / "draws.csv"
    out = run_cli("sample", "--spec", spec, "--n", 1000, "--seed", 4, "--out", draws)
    assert out.returncode == 0, out.stderr
    assert len(draws.read_text().splitlines()) == 1001


def test_sample_refuses_a_spec_past_the_mean_visit_cap(tmp_path):
    # K_ii = 1 / (1 - 0.9995^2), about 1000, so E sum Z = 2 (K_ii - 1) is about 2000
    spec = tmp_path / "near.json"
    save_spec_file(str(spec), 1.0, a_matrix=[[1.0, -0.9995], [-0.9995, 1.0]])
    out = run_cli("sample", "--spec", spec, "--n", 10, "--seed", 1)
    assert out.returncode == 2
    assert "loop-soup steps" in out.stderr and "exceeds cap 1000" in out.stderr
    assert out.stdout == ""


def test_gamma_tail_with_bounds():
    out = run_cli("gamma-tail", "--u", 2, "--v", 1, "--t", 5, "--bounds")
    payload = json.loads(out.stdout)
    assert payload["bounds"]["lower"] <= payload["tail"] <= payload["bounds"]["upper"]
    # a computed error, not the nominal 1e-14
    assert payload["bounds"]["rel_err"] == gamma_tails.tail_bounds_rel_err(2.0, 5.0)
    assert payload["bounds"]["rel_err"] != 1e-14


def test_gamma_tail_bounds_precondition_exit(tmp_path):
    out = run_cli("gamma-tail", "--u", 5, "--v", 1, "--t", 1, "--bounds")
    assert out.returncode == 2


def test_permanent_command(tmp_path):
    m = tmp_path / "m.json"
    matio.save_matrix(str(m), np.eye(3))
    payload = json.loads(run_cli("permanent", "--matrix", m, "--alpha", 2).stdout)
    assert payload["value"] == pytest.approx(8.0)


def test_permanent_refuses_a_signed_zero_value(tmp_path):
    m = tmp_path / "m.json"
    matio.save_matrix(str(m), np.array([[1.0, 1.0], [1.0, -1.0]]))
    out = run_cli("permanent", "--matrix", m, "--alpha", 1)
    assert (out.returncode, out.stdout) == (2, "")
    assert "absolute error of at most 1.11e-15" in out.stderr


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_emit_refuses_a_non_json_number(tmp_path, value):
    out = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit(argparse.Namespace(out=str(out)), {"value": value})
    assert not out.exists()


@pytest.mark.parametrize("shift", [0.0, -0.4])
def test_permanent_rel_err_is_computed_and_covers_oracle(tmp_path, shift):
    matrix = np.random.default_rng(31).random((6, 6)) + shift
    m = tmp_path / "m.json"
    matio.save_matrix(str(m), matrix)
    payload = json.loads(run_cli("permanent", "--matrix", m, "--alpha", 1.5).stdout)
    want = naive_alpha_permanent(matrix, 1.5)
    assert payload["rel_err"] != 1e-14
    assert abs(payload["value"] - want) <= payload["rel_err"] * abs(payload["value"])


def test_bounds_simple(kernel_file):
    payload = json.loads(run_cli("bounds", "--kernel", kernel_file,
                                 "--which", "simple").stdout)
    assert all(a <= b * (1 + 1e-10)
               for a, b in zip(payload["diag_a"], payload["bounds"]))


def test_bounds_psi_star(kernel_file):
    payload = json.loads(run_cli("bounds", "--kernel", kernel_file,
                                 "--which", "psi-star", "--p", 1).stdout)
    assert payload["psi_star"] == pytest.approx(max(payload["diag_a"]), rel=1e-10)


def test_bounds_psi_star_is_an_entry_of_the_printed_diag_a(tmp_path):
    kernel, out = tmp_path / "k.json", tmp_path / "out.json"
    for seed in range(50):
        n = 3 + seed % 14
        matio.save_matrix(str(kernel), markov.green_kernel(
            markov.random_transient_chain(n, 0.5, seed)))
        for p in (1, 2):
            assert cli.main(["bounds", "--kernel", str(kernel), "--which", "psi-star",
                             "--p", str(p), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert payload["psi_star"] == sorted(payload["diag_a"])[n // p - 1]


# each path that takes a kernel K, as a call on (K, its file, an output path)
# that is true on success, with the number of kernels it validates
_KERNEL_PATHS = {
    "bounds": (lambda k, path, out: cli.main(["bounds", "--kernel", path, "--which",
                                              "psi-star", "--out", out]) == 0, 1),
    "validate-kernel": (lambda k, path, out: cli.main(["validate-kernel", path,
                                                       "--out", out]) == 0, 1),
    "from_kernel": (lambda k, path, out: PermanentalSpec.from_kernel(k, 1.0).n == 3, 1),
    "appendix-lemma": (lambda k, path, out: markov.validate_appendix_lemma(k).passed, 1),
    "unbounded-scan": (lambda k, path, out: cli.main(["unbounded-scan", "--kernel-model",
                                                      "log-smooth", "--n", "16,64,256",
                                                      "--out", out]) == 0, 3),
}


@pytest.mark.parametrize("path", sorted(_KERNEL_PATHS))
def test_kernel_paths_invert_once_per_kernel(path, kernel_file, tmp_path, monkeypatch):
    calls = []
    for owner, name in ((linalg, "invert"), (np.linalg, "inv")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda a, real=real, name=name: calls.append(name) or real(a))
    run, kernels = _KERNEL_PATHS[path]
    assert run(matio.load_matrix(kernel_file), kernel_file, str(tmp_path / "out"))
    assert calls == ["invert", "inv"] * kernels


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    argv = CLI + ["unbounded-scan", "--kernel-model", "log-smooth", "--n", "16,64,256"]
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    outs = [subprocess.run(argv, capture_output=True, env=env, timeout=300)
            for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"},
                        {**unset, "OPENBLAS_NUM_THREADS": "2"})]
    assert all(o.returncode == 0 for o in outs), [o.stderr for o in outs]
    assert outs[0].stdout and all(o.stdout == outs[0].stdout for o in outs)


def _list_csv_commands():
    """Every CLI command whose CSV rows are lists of cells, with the rows the
    library gives for it."""
    for model in sorted(_MAX_LAG):
        rows = bounds.unboundedness_statistic(_scan_kernel(model, 0.0), 0.1, [16, 64])
        yield (["unbounded-scan", "--kernel-model", model, "--n", "16,64"],
               [[r.delta, r.n, r.psi_star, r.log_n_over_psi_star, r.sigma_star2_log_n, r.error]
                for r in rows])
    rows = levy.check_thm16_integrals(levy.log_power_model(1.0, 0.8, 0.2, -0.5, 0.0), [1e2, 1e4])
    yield (["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", "1e2,1e4"],
           [[r.n, r.statistic, r.log_n, r.ratio] for r in rows])


def test_list_csv_reads_back_into_rows_of_the_header_width(capsys):
    errors = 0
    for argv, want in _list_csv_commands():
        assert cli.main([str(a) for a in argv]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(rows) == len(want)
        for row, cells in zip(rows, want):
            assert len(row) == len(header)
            assert row == ["" if v is None else v if type(v) is str else repr(v)
                           for v in cells]
            errors += type(cells[-1]) is str and "," in cells[-1]
    assert errors  # an error text with a comma was read back whole


@pytest.mark.parametrize("which, formed", [("simple", 0), ("sigma", 1), ("scaled", 1),
                                           ("psi-star", 0), ("sudakov", 1)])
def test_bounds_form_the_increment_matrix_at_most_once(which, formed, tmp_path, monkeypatch):
    kernel = tmp_path / "k.json"
    matio.save_matrix(str(kernel), [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    calls = []
    increments = bounds._increments

    def counted(K, normalized=False):
        calls.append(normalized)
        return increments(K, normalized)

    monkeypatch.setattr(bounds, "_increments", counted)
    assert cli.main(["bounds", "--kernel", str(kernel), "--which", which,
                     "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == formed


def test_unbounded_scan_csv():
    out = run_cli("unbounded-scan", "--kernel-model", "brownian",
                  "--n", "4,8,16", "--delta", 0.5)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "delta,n,psi_star,log_n_over_psi_star,sigma_star2_log_n,error"
    assert len(lines) == 4


@pytest.mark.parametrize("model, n, delta", [("log-smooth", 3, 1.5), ("loglog-smooth", 4, 2.0)])
def test_unbounded_scan_refuses_lags_outside_the_kernel_domain(model, n, delta):
    out = run_cli("unbounded-scan", "--kernel-model", model, "--n", n, "--delta", delta)
    assert out.returncode == 2
    assert "largest lag" in out.stderr and out.stdout == ""


def test_classify_command():
    payload = json.loads(run_cli("classify", "--gamma", -0.5, "--p", 0.8).stdout)
    assert payload["label"] == "unbounded-by-Thm1.6"


def test_levy_scan_thm16_csv():
    out = run_cli("levy", "--p", 0.8, "--gamma", -0.5,
                  "--scan-thm16", "100,10000")
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,statistic,log_n,ratio"
    assert len(lines) == 3


def test_levy_scan_thm16_honours_eps_cut():
    # for gamma = -0.5 the statistic is G = 2 (sqrt(log n) - sqrt(log cut))
    out = run_cli("levy", "--p", 0.8, "--gamma", -0.5, "--eps-cut", 30, "--scan-thm16", 100)
    statistic = float(out.stdout.splitlines()[1].split(",")[1])
    err = levy.check_thm16_integrals(
        levy.log_power_model(1.0, 0.8, 0.2, -0.5, 0.0, cut=30.0), [100])[0].err
    assert abs(statistic - 2 * (math.sqrt(math.log(100)) - math.sqrt(math.log(30)))) <= err


def test_mc_validate_small(spec_file):
    out = run_cli("mc-validate", "--spec", spec_file, "--n", 20000, "--seed", 3,
                  "--s-points", 4)
    payload = json.loads(out.stdout)
    assert payload["coupling_violations"] == 0
    assert payload["points_within_4se"] >= 3
    assert payload["inequality"]["diff_mean"] >= -4 * payload["inequality"]["diff_se"]


def test_json_outputs_byte_identical(spec_file, kernel_file):
    for args in (
        ["laplace", "--spec", spec_file, "--s", "0.5,1,2", "--method", "series"],
        ["z-dist", "--spec", spec_file, "--target-mass", "0.999"],
        ["validate-kernel", kernel_file],
        ["gamma-tail", "--u", 1.5, "--v", 2, "--t", 3],
        ["classify", "--gamma", 0.0, "--delta", 3.0, "--p", 0.8],
        ["levy", "--p", 0.5, "--gamma", 2, "--u", 0.05],
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_levy_u_refuses_a_lag_past_the_support_cut():
    out = run_cli("levy", "--p", 0.8, "--gamma", -0.5, "--u", 50)
    assert out.returncode == 2
    assert "too large" in out.stderr and out.stdout == ""


def test_levy_u_command_fast_lag():
    out = run_cli("levy", "--p", 0.5, "--gamma", 2.0, "--u", 0.05)
    payload = json.loads(out.stdout)
    assert payload["u_plus"] == payload["u_minus"]  # symmetric model
    assert payload["u_zero"] > payload["u_plus"]
    assert payload["sigma2"] == pytest.approx(2 * (payload["u_zero"] - payload["r_part"]),
                                              rel=1e-14)
    assert payload["quad_err"] < 1e-3


def test_levy_sigma2_option_is_gone():
    # sigma2 is a field of levy --u; there is no second path to it
    out = run_cli("levy", "--p", 0.5, "--gamma", 2.0, "--sigma2", 0.05)
    assert out.returncode == 2


def test_levy_kernel_points_command(tmp_path):
    points = tmp_path / "points.json"
    points.write_text('{"points": [0.0, 0.05]}')
    out = run_cli("levy", "--p", 0.5, "--gamma", 2.0, "--kernel", points)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    rows = payload["kernel"]["rows"]
    assert rows[0][0] == pytest.approx(rows[1][1])
    assert rows[0][1] == pytest.approx(rows[1][0])
    assert payload["quad_err"] < 1e-3


# Runs the CLI in a fresh interpreter and reports, on the last stderr line,
# which modules of one top-level package (the first argument) were loaded and
# which submodules of permanental were executed, after the import and after
# the command.  The package registers its layer modules lazily: LazyLoader
# turns a module back into a plain module when it executes.
_PROBE = """
import sys, types
top = sys.argv.pop(1)
def loaded():
    return ",".join(sorted(m for m in sys.modules if m.partition(".")[0] == top))
def executed():
    return ",".join(sorted(m.partition(".")[2] for m, mod in list(sys.modules.items())
                           if m.startswith("permanental.") and type(mod) is types.ModuleType))
from permanental.cli import main
after_import = loaded(), executed()
code = main(sys.argv[1:])
sys.stderr.write("\\n" + ";".join((*after_import, loaded(), executed())) + "\\n")
sys.exit(code)
"""


def _probe(top, *args):
    out = subprocess.run([sys.executable, "-c", _PROBE, top, *map(str, args)],
                         capture_output=True, text=True)
    return out.returncode, out.stderr.splitlines()[-1].split(";")


def modules_loaded(top, *args):
    """Exit code and the modules of package `top` loaded after import and
    after the command."""
    code, (after_import, _, after_run, _) = _probe(top, *args)
    return code, after_import, after_run


def modules_executed(*args):
    """Exit code and the sets of permanental's submodules executed after
    import and after the command."""
    code, (_, after_import, _, after_run) = _probe("permanental", *args)
    return code, set(after_import.split(",")), set(after_run.split(","))


def _probe_argv(case, spec_file, kernel_file, tmp_path):
    return _probe_argvs(spec_file, kernel_file, tmp_path)[case]


def _probe_argvs(spec_file, kernel_file, tmp_path):
    """The command line of each probe case, by name."""
    points = tmp_path / "points.json"
    points.write_text('{"points": [0.0, 0.3]}')
    not_m = tmp_path / "not_m.json"
    matio.save_matrix(str(not_m), [[1.0, 2.0], [2.0, 1.0]])
    return {
        "permanent": ["permanent", "--matrix", kernel_file, "--alpha", 1.5],
        "z-dist": ["z-dist", "--spec", spec_file],
        "unbounded-scan": ["unbounded-scan", "--kernel-model", "brownian", "--n", "4,8"],
        "validate-kernel-refused": ["validate-kernel", not_m],
        "classify": ["classify", "--gamma", -0.5, "--p", 0.8],
        "gamma-tail": ["gamma-tail", "--u", 2, "--t", 5, "--bounds"],
        "laplace": ["laplace", "--spec", spec_file, "--s", "1,1,1", "--method", "det"],
        "bounds": ["bounds", "--kernel", kernel_file, "--which", "psi-star"],
        "validate-kernel": ["validate-kernel", kernel_file],
        "sample": ["sample", "--spec", spec_file, "--n", 100, "--seed", 1, "--couple",
                   "--out", tmp_path / "s.csv"],
        "mc-validate": ["mc-validate", "--spec", spec_file, "--n", 100, "--seed", 1,
                        "--s-points", 2],
        "gen-kernel": ["gen-kernel", "--n", 4, "--seed", 2, "--out", tmp_path / "k.json"],
        "levy-kernel": ["levy", "--p", 0.8, "--gamma", -0.5, "--kernel", points],
        "levy-u": ["levy", "--p", 0.5, "--gamma", 2.0, "--u", 0.05],
        "levy-scan-thm16": ["levy", "--p", 0.5, "--gamma", 1.2, "--delta", -0.5,
                            "--scan-thm16", "100,1e4"],
    }


def test_one_subcommand_parser_reads_every_probe_as_the_whole_parser(spec_file, kernel_file,
                                                                     tmp_path):
    for case, argv in _probe_argvs(spec_file, kernel_file, tmp_path).items():
        argv = [str(a) for a in argv]
        one = cli.build_parser(argv[0])
        sub = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [argv[0]], case
        assert one.parse_args(argv) == cli.build_parser().parse_args(argv), case


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["gamma-tail", "--u", "1", "--t", "2", "--bogus"],
    ["classify", "--gamma", "1", "--p", "0.5", "extra"], ["gamma-tail", "--u", "1"],
    ["levy", "--help"],
], ids=["help", "no-arguments", "unknown-command", "bad-option", "extra-argument",
        "missing-option", "command-help"])
def test_process_prints_what_the_whole_parser_prints(argv, capsys, monkeypatch):
    # a process parses with its one subcommand's parser: its usage and help
    # bytes must be those of the parser of every subcommand
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to this width
    with pytest.raises(SystemExit) as whole:
        cli.build_parser().parse_args(argv)
    want = (whole.value.code, *capsys.readouterr())
    proc = subprocess.run(CLI + argv, capture_output=True, text=True,
                          env=dict(_BUFFERED_ENV, COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("case", ["classify", "gamma-tail", "laplace", "bounds",
                                  "validate-kernel", "sample", "mc-validate", "levy-kernel",
                                  "levy-u", "levy-scan-thm16"])
def test_short_commands_never_import_scipy(case, spec_file, kernel_file, tmp_path):
    argv = _probe_argv(case, spec_file, kernel_file, tmp_path)
    assert modules_loaded("scipy", *argv) == (0, "", "")


@pytest.mark.parametrize("case", ["laplace", "bounds", "validate-kernel", "mc-validate",
                                  "levy-kernel", "levy-u"])
def test_commands_writing_no_csv_never_import_orjson(case, spec_file, kernel_file, tmp_path):
    argv = _probe_argv(case, spec_file, kernel_file, tmp_path)
    assert modules_loaded("orjson", *argv) == (0, "", "")


def test_list_row_csv_never_imports_orjson(spec_file, kernel_file, tmp_path):
    argv = _probe_argv("levy-scan-thm16", spec_file, kernel_file, tmp_path)
    assert modules_loaded("orjson", *argv) == (0, "", "")


def test_sample_imports_orjson_only_to_write_its_csv(spec_file, kernel_file, tmp_path):
    argv = _probe_argv("sample", spec_file, kernel_file, tmp_path)
    code, after_import, after_run = modules_loaded("orjson", *argv)
    assert (code, after_import) == (0, "") and "orjson" in after_run.split(",")


_LAYERS = {"matio", "markov", "linalg", "model", "sampler", "gamma_tails", "bounds", "levy",
           "oscillatory", "example11"}


@pytest.mark.parametrize("case, needed, never", [
    ("sample", {"matio", "model", "sampler"}, {"levy", "bounds", "markov", "oscillatory"}),
    ("levy-kernel", {"levy", "oscillatory"},
     {"model", "sampler", "bounds", "markov", "matio", "linalg"}),
    ("gen-kernel", {"markov", "matio"}, {"levy", "model", "sampler"}),
    ("classify", {"example11"}, _LAYERS - {"example11"}),
], ids=["sample", "levy-kernel", "gen-kernel", "classify"])
def test_commands_execute_only_the_layer_modules_they_use(case, needed, never, spec_file,
                                                          kernel_file, tmp_path):
    argv = _probe_argv(case, spec_file, kernel_file, tmp_path)
    code, after_import, after_run = modules_executed(*argv)
    assert code == 0 and not after_import & _LAYERS
    assert needed <= after_run and not never & after_run


@pytest.mark.parametrize("case", ["gamma-tail", "classify"])
def test_pure_math_commands_never_import_numpy(case, spec_file, kernel_file, tmp_path):
    argv = _probe_argv(case, spec_file, kernel_file, tmp_path)
    assert modules_loaded("numpy", *argv) == (0, "", "")


def test_package_re_exports_no_names_and_executes_no_module():
    probe = ("import sys, types, permanental\n"
             "print(hasattr(permanental, 'PermanentalSpec'))\n"
             "print(','.join(sorted(m for m, mod in list(sys.modules.items())\n"
             "      if m.startswith('permanental.') and type(mod) is types.ModuleType)))\n")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", ""]


def test_eps_cut_default_is_the_library_cut():
    args = cli.build_parser().parse_args(["levy", "--p", "0.8", "--gamma", "0", "--u", "0.3"])
    assert args.eps_cut == levy.DEFAULT_CUT


def test_levy_kernel_never_imports_numpy_ma(spec_file, kernel_file, tmp_path):
    argv = _probe_argv("levy-kernel", spec_file, kernel_file, tmp_path)
    code, _, after_run = modules_loaded("numpy", *argv)
    assert code == 0 and "numpy.linalg" in after_run.split(",")
    assert "numpy.ma" not in after_run.split(",")


# span names of traced runs, recorded while `import permanental.cli` still
# executed every layer module (the sample list with the kernel inverted once):
# the launcher must see the lazy modules as it saw those
_TRACED_SPANS = {
    "sample": ["cli.main", "matio.load_spec_file", "matio.matrix_from_json_obj",
               "linalg.as_square_matrix", "linalg.validate_m_matrix", "linalg.as_square_matrix",
               "linalg.invert", "linalg.as_square_matrix", "sampler.sample_chunks"],
    "levy-kernel": ["cli.main", "levy.log_power_model", "levy.kernel_matrix",
                    "levy.potential_bundle", "levy.SpectralFns.__init__", "levy.psi_with_error",
                    "levy.psi_with_error", "levy.potential_bundle", "oscillatory.lobe_boundaries",
                    "levy.psi_with_error", "oscillatory.euler_accelerate",
                    "oscillatory.lobe_boundaries", "levy.psi_with_error",
                    "oscillatory.euler_accelerate"],
}


@pytest.mark.parametrize("case", sorted(_TRACED_SPANS))
def test_traced_launcher_records_the_eager_import_spans(case, spec_file, kernel_file, tmp_path):
    trace = tmp_path / "trace.json"
    launcher = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "launcher.py")
    argv = [sys.executable, launcher, str(trace), "--",
            *map(str, _probe_argv(case, spec_file, kernel_file, tmp_path))]
    out = subprocess.run(argv, capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert [s[0] for s in json.loads(trace.read_text())["spans"]] == _TRACED_SPANS[case]


def test_scan_thm16_slowly_decaying_symmetric_tail_matches_mpmath():
    # 1/g = w^-1.2 (log w)^0.5 decays so slowly that adaptive quadrature
    # over (log n, infinity) gives up on it
    out = run_cli("levy", "--p", 0.5, "--gamma", 1.2, "--delta", -0.5,
                  "--scan-thm16", "100,1e4")
    assert out.returncode == 0, out.stderr
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    model = levy.log_power_model(1.0, 0.5, 0.5, 1.2, -0.5)
    errs = [r.err for r in levy.check_thm16_integrals(model, [100, 1e4])]
    with mp.workdps(30):
        for (n, stat, _, _), err in zip(rows, errs):
            # integral of 1/g(e^w) over w > log n, in t = log w
            t0 = mp.log(mp.log(mp.mpf(n)))
            inv = sum(mp.quad(lambda t: mp.exp(-0.2 * t) * mp.sqrt(t), seg)
                      for seg in ([t0, t0 + 10], [t0 + 10, t0 + 100], [t0 + 100, mp.inf]))
            assert abs(float(stat) - float(1 / inv)) <= err
            assert err <= 1e-13 * float(stat)


# The process entry flushes its streams and ends with os._exit: the bytes and
# the exit code of a fresh process must be those of an in-process main().
# PYTHONUNBUFFERED would flush every write on its own and hide a missing
# flush, so the processes below run without it.
_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _out_bytes(argv):
    """The bytes of the file that --out names, None without --out."""
    return Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None


@pytest.mark.parametrize("case", ["permanent", "laplace", "z-dist", "sample", "mc-validate",
                                  "gamma-tail", "bounds", "unbounded-scan", "gen-kernel",
                                  "validate-kernel-refused", "levy-u", "classify"])
def test_process_writes_the_bytes_and_code_of_main(case, spec_file, kernel_file, tmp_path,
                                                   capsysbinary):
    argv = [str(a) for a in _probe_argv(case, spec_file, kernel_file, tmp_path)]
    code = cli.main(argv)
    want = (code, capsysbinary.readouterr().out, _out_bytes(argv))
    with open(tmp_path / "stdout", "wb") as fh:
        proc = subprocess.run(CLI + argv, stdout=fh, env=_BUFFERED_ENV, timeout=300)
    got = (proc.returncode, (tmp_path / "stdout").read_bytes(), _out_bytes(argv))
    assert got == want
    assert code == (2 if case == "validate-kernel-refused" else 0)
    assert want[1] or want[2]  # the command wrote its output somewhere


def test_gen_kernel_report_is_complete_in_a_file(tmp_path):
    with open(tmp_path / "report.json", "wb") as fh:
        proc = subprocess.run(CLI + ["gen-kernel", "--n", "4", "--seed", "2", "--out",
                                     str(tmp_path / "k.json")],
                              stdout=fh, env=_BUFFERED_ENV, timeout=300)
    assert proc.returncode == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert sorted(report) == ["kill_min", "n", "out", "radius", "seed"]


def test_help_exits_0_and_a_usage_error_exits_2():
    help_ = subprocess.run(CLI + ["--help"], capture_output=True, env=_BUFFERED_ENV)
    assert help_.returncode == 0 and help_.stdout.startswith(b"usage: permanental")
    usage = subprocess.run(CLI + ["gamma-tail", "--u", "1"], capture_output=True,
                           env=_BUFFERED_ENV)
    assert usage.returncode == 2 and usage.stdout == b""
    assert b"the following arguments are required: --t" in usage.stderr


def test_closed_pipe_exits_2_with_one_error_line(spec_file):
    # as `sample ... | head -c 100`: the CSV is far larger than a pipe buffer
    with subprocess.Popen(CLI + ["sample", "--spec", spec_file, "--n", "20000", "--seed", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_BUFFERED_ENV) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 2
    assert stderr == b"error: [Errno 32] Broken pipe\n"


_LAUNCHER = [sys.executable, str(Path(__file__).resolve().parent.parent / "perfbench"
                                  / "launcher.py"), "--no-wrap", "--"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("command, entry", [
    ("sample", CLI), ("gen-kernel", CLI), ("sample", _LAUNCHER), ("gen-kernel", _LAUNCHER),
], ids=["sample", "gen-kernel", "sample-launcher", "gen-kernel-launcher"])
def test_full_device_exits_2_with_one_error_line(command, entry, spec_file, tmp_path):
    # each command fails in its own flush: through cli.run, or through the
    # launcher, whose interpreter then exits normally and flushes stdout again
    argv = {"sample": ["sample", "--spec", spec_file, "--n", "200", "--seed", "1"],
            "gen-kernel": ["gen-kernel", "--n", "3", "--seed", "5",
                           "--out", str(tmp_path / "k.json")]}[command]
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(entry + argv, stdout=full, stderr=subprocess.PIPE,
                              env=_BUFFERED_ENV, timeout=300)
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 28] No space left on device\n")
