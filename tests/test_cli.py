import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from permanental import bounds, cli, gamma_tails, levy, markov, matio, sampler
from permanental.cli import _KERNEL_MODELS
from permanental.model import PermanentalSpec
from permanental.sampler import RngStream, sample_chunks

from conftest import gather, laplace_means, naive_alpha_permanent, oracle_chunks

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
    matio.save_spec_file(str(path), 1.0, kernel=matio.load_matrix(kernel_file))
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


def test_corrupted_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    matio.save_spec_file(str(spec), 1.0, a_matrix=[[1.0, 0.5], [0.0, 1.0]])
    out = run_cli("laplace", "--spec", str(spec), "--s", "1,1")
    assert out.returncode == 2
    assert "error" in out.stderr


_SPEC_1X1 = '{"alpha": 1, "kernel": {"n": 1, "rows": [[1]]}}'
_BOUNDS_WHICH = ("simple", "sigma", "scaled", "psi-star", "sudakov")


@pytest.mark.parametrize("argv, text, message, env", [
    (["permanent", "--alpha", 1, "--matrix"], "[[1, 0], [0, 1]]", '"rows" list', None),
    (["laplace", "--s", 1, "--spec"], '{"alpha": 1, "kernel": [[1]]}', '"rows" list', None),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--kernel"], '{"points": 5}', "finite numbers",
     None),
    (["laplace", "--s", 1, "--spec"], '{"alpha": Infinity, "kernel": {"n": 1, "rows": [[1]]}}',
     "alpha must be positive and finite", None),
    (["mc-validate", "--n", 100, "--seed", 1, "--s-points", -1, "--spec"], _SPEC_1X1,
     "s_points must be nonnegative", None),
    (["mc-validate", "--n", 1, "--seed", 1, "--s-points", 1, "--spec"], _SPEC_1X1,
     "at least 2 draws", None),
    (["gamma-tail", "--u", 1, "--t", "nan"], None, "t must be finite", None),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "inf"], None, "is not finite", None),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--u", "nan"], None, "is not finite", None),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", "0,16"], None, "at least 2", None),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", ""], None,
     "--scan-thm16 needs at least one n", None),
    (["levy", "--p", 0.8, "--gamma", -0.5, "--scan-thm16", ","], None,
     "--scan-thm16 needs at least one n", None),
    (["sample", "--n", 10, "--seed", 1, "--workers", 0, "--spec"], _SPEC_1X1, "--workers", None),
    (["sample", "--n", 10, "--seed", 1, "--workers", -3, "--spec"], _SPEC_1X1, "--workers",
     None),
    (["mc-validate", "--n", 10, "--seed", 1, "--workers", 0, "--spec"], _SPEC_1X1, "--workers",
     None),
    (["mc-validate", "--n", 10, "--seed", 1, "--spec"], _SPEC_1X1, "PERMANENTAL_WORKERS",
     {"PERMANENTAL_WORKERS": "-1"}),
    *[(["bounds", "--which", which, "--kernel"], '{"n": 1, "rows": [[1]]}',
       "bounds need a kernel on at least 2 points, got n = 1", None)
      for which in _BOUNDS_WHICH],
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", 0], None,
     "p must be an integer from 1 to n = 16, got 0", None),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", -1], None,
     "p must be an integer from 1 to n = 16, got -1", None),
    (["unbounded-scan", "--kernel-model", "brownian", "--n", 16, "--p", 100], None,
     "p must be an integer from 1 to n = 16, got 100", None),
], ids=["permanent-list", "laplace-bare-kernel", "levy-points-number", "spec-alpha-inf",
        "mc-validate-s-points", "mc-validate-n-1", "gamma-tail-t-nan", "levy-u-inf",
        "levy-u-nan", "unbounded-scan-n-0", "levy-scan-thm16-empty", "levy-scan-thm16-comma",
        "sample-workers-0", "sample-workers-negative", "mc-validate-workers-0",
        "mc-validate-workers-variable-negative", *[f"bounds-{w}-1x1" for w in _BOUNDS_WHICH],
        "unbounded-scan-p-0", "unbounded-scan-p-negative", "unbounded-scan-p-above-n"])
def test_bad_input_exits_2_with_its_own_message(tmp_path, argv, text, message, env):
    # the input file, if any, is the last argument
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = argv + [path]
    out = run_cli(*argv, env=None if env is None else {**os.environ, **env})
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and message in out.stderr


def test_bad_workers_variable_exits_2_naming_it():
    # the variable sets the --workers default, so even commands without
    # workers read it
    out = run_cli("classify", "--p", 0.8, "--gamma", -0.5,
                  env={**os.environ, "PERMANENTAL_WORKERS": "abc"})
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and "PERMANENTAL_WORKERS" in out.stderr


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
        matio.save_spec_file(str(spec), 1.0, kernel=matio.load_matrix(str(kernel)))
        n = 5
    else:
        alpha, a = _MODEL_SPECS[name]
        matio.save_spec_file(str(spec), alpha, a_matrix=a)
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


def loop_csv_line(values) -> str:
    """Reference for the CLI's CSV bytes, one cell at a time: a float by
    repr(float(v)), None as an empty cell, anything else by str."""
    cells = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            cells.append(repr(float(v)))
        elif v is None:
            cells.append("")
        else:
            cells.append(str(v))
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
    """The former whole-text CSV formatter: every line is built in memory and
    joined once."""
    lines = [",".join(header)]
    lines += [",".join(["" if v is None else v if type(v) is str else repr(v) for v in row])
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
    monkeypatch.setattr(cli, "sample_chunks", oracle_chunks)
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

    monkeypatch.setattr(cli, "sample_chunks", counted)
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
    outs = []
    for workers in (1, 2, 4):
        path = tmp_path / f"w{workers}"
        assert cli.main(_stream_argv(command, spec_file, 3500, workers, path)) == 0
        outs.append(path.read_bytes())
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_scan_csv_matches_loop_formatter():
    out = run_cli("unbounded-scan", "--kernel-model", "loglog-smooth", "--n", "8,16")
    rows = bounds.unboundedness_statistic(_KERNEL_MODELS["loglog-smooth"](0.0), 0.1, [8, 16])
    assert rows[0].error is None and rows[1].a_star is None  # numbers, empty and text cells
    want = [loop_csv_line([r.delta, r.n, r.a_star, r.log_n_over_a_star,
                           r.sigma_star2_log_n, r.error]) for r in rows]
    assert out.stdout.splitlines()[1:] == want


def test_z_dist_output(spec_file):
    out = run_cli("z-dist", "--spec", spec_file, "--target-mass", "0.9999")
    payload = json.loads(out.stdout)
    assert payload["covered_mass"] + payload["tail_bound"] >= 1 - 1e-9
    zero = [m for m in payload["masses"] if m["k"] == [0, 0, 0]]
    assert zero and zero[0]["mass"] > 0


def test_acyclic_spec_is_answered(tmp_path):
    # A = I - 0.5 * superdiagonal: the chain never returns, so Z = 0
    spec = tmp_path / "acyclic.json"
    matio.save_spec_file(str(spec), 1.0, a_matrix=np.eye(3) - 0.5 * np.eye(3, k=1))
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
    matio.save_spec_file(str(spec), 1.0, kernel=matio.load_matrix(str(kernel)))
    out = run_cli("z-dist", "--spec", spec)
    assert out.returncode == 2 and "exceeds cap" in out.stderr
    draws = tmp_path / "draws.csv"
    out = run_cli("sample", "--spec", spec, "--n", 1000, "--seed", 4, "--out", draws)
    assert out.returncode == 0, out.stderr
    assert len(draws.read_text().splitlines()) == 1001


def test_sample_refuses_a_spec_past_the_mean_visit_cap(tmp_path):
    # K_ii = 1 / (1 - 0.9995^2), about 1000, so E sum Z = 2 (K_ii - 1) is about 2000
    spec = tmp_path / "near.json"
    matio.save_spec_file(str(spec), 1.0, a_matrix=[[1.0, -0.9995], [-0.9995, 1.0]])
    out = run_cli("sample", "--spec", spec, "--n", 10, "--seed", 1)
    assert out.returncode == 2
    assert "loop-soup steps" in out.stderr and out.stdout == ""


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


def test_bounds_psi_star_inverts_twice(kernel_file, tmp_path, monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    assert cli.main(["bounds", "--kernel", kernel_file, "--which", "psi-star",
                     "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 2


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
    err = levy.check_thm16_integrals(-0.5, 0.0, 0.8, 0.2, [100], cut=30.0)[0].err
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
# which modules of one top-level package (the first argument) were loaded
# after the import and after the command.
_PROBE = """
import sys
top = sys.argv.pop(1)
def loaded():
    return ",".join(sorted(m for m in sys.modules if m.partition(".")[0] == top))
from permanental.cli import main
after_import = loaded()
code = main(sys.argv[1:])
sys.stderr.write("\\n" + after_import + ";" + loaded() + "\\n")
sys.exit(code)
"""


def modules_loaded(top, *args):
    """Exit code and the modules of package `top` loaded after import and
    after the command."""
    out = subprocess.run([sys.executable, "-c", _PROBE, top, *map(str, args)],
                         capture_output=True, text=True)
    after_import, _, after_run = out.stderr.splitlines()[-1].partition(";")
    return out.returncode, after_import, after_run


def _probe_argv(case, spec_file, kernel_file, tmp_path):
    points = tmp_path / "points.json"
    points.write_text('{"points": [0.0, 0.3]}')
    return {
        "classify": ["classify", "--gamma", -0.5, "--p", 0.8],
        "gamma-tail": ["gamma-tail", "--u", 2, "--t", 5, "--bounds"],
        "laplace": ["laplace", "--spec", spec_file, "--s", "1,1,1", "--method", "det"],
        "bounds": ["bounds", "--kernel", kernel_file, "--which", "psi-star"],
        "validate-kernel": ["validate-kernel", kernel_file],
        "sample": ["sample", "--spec", spec_file, "--n", 100, "--seed", 1, "--couple",
                   "--out", tmp_path / "s.csv"],
        "mc-validate": ["mc-validate", "--spec", spec_file, "--n", 100, "--seed", 1,
                        "--s-points", 2],
        "levy-kernel": ["levy", "--p", 0.8, "--gamma", -0.5, "--kernel", points],
        "levy-u": ["levy", "--p", 0.5, "--gamma", 2.0, "--u", 0.05],
        "levy-scan-thm16": ["levy", "--p", 0.5, "--gamma", 1.2, "--delta", -0.5,
                            "--scan-thm16", "100,1e4"],
    }[case]


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


def test_sample_imports_orjson_only_to_write_its_csv(spec_file, kernel_file, tmp_path):
    argv = _probe_argv("sample", spec_file, kernel_file, tmp_path)
    code, after_import, after_run = modules_loaded("orjson", *argv)
    assert (code, after_import) == (0, "") and "orjson" in after_run.split(",")


def test_scan_thm16_slowly_decaying_symmetric_tail_matches_mpmath():
    # 1/g = w^-1.2 (log w)^0.5 decays so slowly that adaptive quadrature
    # over (log n, infinity) gives up on it
    out = run_cli("levy", "--p", 0.5, "--gamma", 1.2, "--delta", -0.5,
                  "--scan-thm16", "100,1e4")
    assert out.returncode == 0, out.stderr
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    errs = [r.err for r in levy.check_thm16_integrals(1.2, -0.5, 0.5, 0.5, [100, 1e4])]
    with mp.workdps(30):
        for (n, stat, _, _), err in zip(rows, errs):
            # integral of 1/g(e^w) over w > log n, in t = log w
            t0 = mp.log(mp.log(mp.mpf(n)))
            inv = sum(mp.quad(lambda t: mp.exp(-0.2 * t) * mp.sqrt(t), seg)
                      for seg in ([t0, t0 + 10], [t0 + 10, t0 + 100], [t0 + 100, mp.inf]))
            assert abs(float(stat) - float(1 / inv)) <= err
            assert err <= 1e-13 * float(stat)
