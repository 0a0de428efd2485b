"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from permanental import levy, matio
from permanental.bounds import (
    diag_bound_scaled,
    diag_bound_sigma,
    diag_bound_simple,
    sigma_matrix,
)
from permanental.errors import AsymmetryTooLarge, HypothesisFailed
from permanental.example11 import classify_example11
from permanental.gamma_tails import gamma_tail_exact, tail_bounds
from permanental.linalg import invert, validate_m_matrix
from permanental.markov import green_kernel, random_transient_chain, validate_appendix_lemma
from permanental.model import PermanentalSpec, direct_laplace, series_laplace_report, z_masses
from permanental.sampler import RngStream, check_permanental_inequality, sample_chunks

from conftest import (brownian_min_matrix, check_cor14, flat_psi, laplace_means, make_corpus,
                      save_spec_file)

CLI = [sys.executable, "-m", "permanental.cli"]


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(20, (2, 3, 4, 5), kill_min=0.75, seed0=9000)


def test_criterion_01_series_determinant_equivalence(corpus):
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for spec in corpus:
        for _ in range(5):
            s = rng.random(spec.n) * 2.0
            det_val = direct_laplace(spec, s)
            ser = series_laplace_report(spec, s, rel_tol=1e-7)
            worst = max(worst, abs(ser.value - det_val) / det_val)
    elapsed = time.time() - start
    _report(
        1,
        worst <= 1e-6 and elapsed <= 60.0,
        f"series vs determinant: worst rel diff {worst:.2e} (<= 1e-6), "
        f"{elapsed:.1f}s (<= 60s) over 20 kernels x 5 s-points",
    )


def test_criterion_02_z_normalization(corpus):
    lo, hi = 2.0, 0.0
    for spec in corpus:
        zd = z_masses(spec, 1 - 1e-9)
        total = zd.covered_mass + zd.tail_bound
        lo, hi = min(lo, total), max(hi, total)
    ok = lo >= 1 - 1e-8 and hi <= 1 + 1e-8
    _report(2, ok, f"covered + certified tail in [{lo:.12f}, {hi:.12f}] (1 +- 1e-8)")


def test_criterion_03_sampler_laplace_transform():
    specs = make_corpus(4, (2, 3, 4), kill_min=0.75, seed0=9600, alphas=(0.5, 1.0))
    rng = np.random.default_rng(31337)
    ok = True
    details = []
    for spec in specs:
        start = time.time()
        s_points = [rng.random(spec.n) * 2.0 for _ in range(10)]
        means = laplace_means(sample_chunks(spec, 10**6, RngStream(606, spec.n)), s_points)
        hits = sum(abs(emp - direct_laplace(spec, s)) <= 4 * se
                   for s, (emp, se) in zip(s_points, means))
        elapsed = time.time() - start
        ok = ok and hits >= 9 and elapsed <= 120.0
        details.append(f"n={spec.n} alpha={spec.alpha}: {hits}/10 in 4SE, {elapsed:.0f}s")
    _report(3, ok, "; ".join(details))


def test_criterion_04_pathwise_coupling():
    spec = make_corpus(1, (4,), kill_min=0.75, seed0=9800, alphas=(1.0,))[0]
    violations = sum(int(np.sum(x - lower < 0.0)) for x, lower, _ in
                     sample_chunks(spec, 10**6, RngStream(707), with_coupling=True))
    _report(4, violations == 0, f"{violations} violations over 1e6 coupled draws (exact)")


def test_criterion_05_permanental_inequality(corpus):
    worst_margin = math.inf
    for spec in corpus:
        rng = RngStream(808, spec.n)
        rep = check_permanental_inequality(spec, sample_chunks(spec, 50_000, rng), rng)
        worst_margin = min(worst_margin, rep.diff_mean / rep.diff_se)
    diag_ok = True
    for scales, alpha in (((2.0, 3.0), 1.0), ((0.5, 1.0, 4.0), 0.5)):
        spec = PermanentalSpec.from_m_matrix(np.diag(scales), alpha)
        rng = RngStream(809, len(scales))
        rep = check_permanental_inequality(spec, sample_chunks(spec, 200_000, rng), rng)
        diag_ok = diag_ok and abs(rep.diff_mean) <= 4 * rep.diff_se
    ok = worst_margin >= -3.0 and diag_ok
    _report(
        5,
        ok,
        f"max-functional margin >= {worst_margin:.2f} SE on corpus (>= -3); "
        f"diagonal specs equal within 4 SE: {diag_ok}",
    )


def test_criterion_06_gamma_tail_sandwich():
    count, ok = 0, True
    for u in (0.3, 0.5, 1.0, 2.0, 5.0):
        for lam in np.arange(2.0, 20.25, 0.25):
            if not lam > max(2 * (u - 1), 0):
                continue
            if u < 1 and not lam > 2 * (1 - u):
                continue
            lower, upper = tail_bounds(u, lam)
            exact = gamma_tail_exact(u, 1.0, lam)
            ok = ok and lower <= exact <= upper
            count += 1
    _report(6, ok and count >= 200, f"sandwich on {count} (u, lam) grid points (>= 200)")


def test_criterion_07_brownian_example_exact():
    ok = True
    details = []
    for n in range(3, 9):
        A = invert(brownian_min_matrix(n))
        expected = 2.0 * np.eye(n)
        expected[n - 1, n - 1] = 1.0
        for i in range(n - 1):
            expected[i, i + 1] = expected[i + 1, i] = -1.0
        ok = ok and np.abs(A - expected).max() <= 1e-10
        scaled = np.diag(1.0 / np.arange(1.0, n + 1)) @ brownian_min_matrix(n)
        diag = np.diag(invert(scaled))
        want = np.array([2.0 * i for i in range(1, n)] + [float(n)])
        ok = ok and np.abs(diag - want).max() <= 1e-10
        sm = sigma_matrix(scaled)
        ok = ok and abs(sm.sudakov_bound - 2.0 * n) <= 1e-10 * n
        ok = ok and diag.max() <= 2.0 * n and abs(diag.max() - 2 * (n - 1)) <= 1e-10
        details.append(f"n={n}")
    _report(7, ok, "tridiagonal inverse, scaled diagonal, and 2n bound exact at 1e-10 "
                   f"for {', '.join(details)}")


def test_criterion_08_appendix_lemma_corpus():
    ok = True
    for i in range(100):
        n = 2 + i % 5
        chain = random_transient_chain(n, 0.4, seed=20_000 + i)
        K = green_kernel(chain)
        rep = validate_appendix_lemma(K)
        ok = ok and rep.passed and rep.positive_row_sums and rep.column_dominated
    _report(8, ok, "100 random transient chains (n <= 6): inverse is a nonsingular "
                   "M-matrix with positive row sums; K_ij <= K_jj columnwise")


def test_criterion_09_diagonal_bounds(corpus):
    simple_held = sigma_held = scaled_held = 0
    ok = True
    for spec in corpus:
        pair = spec.pair
        try:
            b = diag_bound_simple(pair)
            ok = ok and (pair.diag_a <= b * (1 + 1e-10)).all()
            simple_held += 1
        except HypothesisFailed:
            pass
        d = np.diag(pair.K)
        if np.ptp(d) <= 1e-9 * abs(d[0]):
            try:
                _, bound = diag_bound_sigma(pair)
                ok = ok and (pair.diag_a <= bound * (1 + 1e-10)).all()
                sigma_held += 1
            except AsymmetryTooLarge:
                pass
        try:
            bounds = diag_bound_scaled(pair)
            ok = ok and (pair.diag_a <= bounds * (1 + 1e-10)).all()
            scaled_held += 1
        except (AsymmetryTooLarge, HypothesisFailed):
            pass
    # Markov corpus kernels have unequal diagonals, so exercise the
    # constant-diagonal bound on symmetric kernels directly
    for K in (
        np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]),
        np.array([[1.0, 0.4, 0.2, 0.1], [0.4, 1.0, 0.4, 0.2],
                  [0.2, 0.4, 1.0, 0.4], [0.1, 0.2, 0.4, 1.0]]),
    ):
        pair = validate_m_matrix(invert(K))
        _, bound = diag_bound_sigma(pair)
        ok = ok and (pair.diag_a <= bound * (1 + 1e-10)).all()
        sigma_held += 1
    failure_path = False
    try:
        diag_bound_simple(validate_m_matrix(invert(brownian_min_matrix(5))))
    except HypothesisFailed:
        failure_path = True
    ok = ok and failure_path and simple_held >= 15 and scaled_held >= 10
    ok = ok and sigma_held >= 2
    _report(9, ok, f"bounds held wherever hypotheses held (simple {simple_held}, "
                   f"scaled {scaled_held}, sigma {sigma_held} of 20); Brownian min "
                   f"kernel exercised HypothesisFailed: {failure_path}")


def test_criterion_10_characteristic_exponent():
    start = time.time()
    flat = levy.log_power_model(1.0, 0.8, 0.2, 0.0, 0.0)  # g == 1 beyond the cut
    worst_flat = max(
        abs(levy.psi_with_error(flat, lam)[0] / flat_psi(lam, 0.8, 0.2, flat.g.cut) - 1.0)
        for lam in (0.5, 3.0, 47.0)
    )
    logm = levy.log_power_model(1.0, 0.8, 0.2, 1.0, 0.0)
    value = levy.psi_with_error(logm, 1e4)[0]
    re_ratio = value.real / ((math.pi / 2) * 1e4 * logm.g.of_log(math.log(1e4)))
    sf = levy.spectral(logm)
    im_ratio = value.imag / (0.6 * 1e4 * sf.G_log(math.log(1e4)))
    elapsed = time.time() - start
    ok = (worst_flat <= 1e-6 and abs(re_ratio - 1) <= 0.10
          and abs(im_ratio - 1) <= 0.10 and elapsed <= 60.0)
    _report(10, ok, f"flat-profile worst rel err {worst_flat:.2e} (<= 1e-6); g=log at "
                    f"1e4: Re ratio {re_ratio:.3f}, Im ratio {im_ratio:.3f} "
                    f"(within 10%); {elapsed:.1f}s (<= 60s)")


def test_criterion_11_levy_asymptotics():
    model = levy.log_power_model(1.0, 0.8, 0.2, -0.5, 0.0)
    bundle = levy.potential_bundle(model, 1e-4)
    ratio = abs(bundle.h_part) / bundle.sigma2
    dpq = 0.6
    u_hi = max(bundle.u_plus, bundle.u_minus)
    u_lo = min(bundle.u_plus, bundle.u_minus)
    rel_shallow = (bundle.u_zero - u_hi) / ((bundle.sigma2 / 2) * (1 - dpq))
    rel_steep = (bundle.u_zero - u_lo) / ((bundle.sigma2 / 2) * (1 + dpq))
    cor = check_cor14(model, 1e-4)
    direction_ok = (not cor.holds) and cor.implied_c > 1.0
    ok = (abs(ratio / (dpq / 2) - 1.0) <= 0.20
          and abs(rel_shallow - 1.0) <= 0.20
          and abs(rel_steep - 1.0) <= 0.20
          and direction_ok)
    _report(11, ok, f"|H|/sigma2 = {ratio:.4f} vs 0.3 (within 20%); potential "
                    f"relations {rel_shallow:.3f}/{rel_steep:.3f} (within 20%); "
                    f"implied Cor-1.4 constant {cor.implied_c:.2f} > 1 so the "
                    f"criterion correctly fails at |p-q| = 0.6")


def test_criterion_12_classifier_table():
    table = [
        # p != q rows from the example and the discussion paragraph
        (-0.5, 0.0, 0.8, 0.2, "unbounded-by-Thm1.6"),
        (-0.2, 5.0, 0.7, 0.3, "unbounded-by-Thm1.6"),
        (0.0, -1.0, 0.8, 0.2, "unbounded-by-Thm1.6"),
        (0.0, 0.0, 0.8, 0.2, "unbounded-per-paper-discussion"),
        (0.0, 2.0, 0.8, 0.2, "unbounded-per-paper-discussion"),
        (0.0, 3.0, 0.8, 0.2, "bounded-per-paper-discussion"),
        (0.5, 0.0, 0.8, 0.2, "indeterminate-by-this-paper"),
        # p = q rows
        (1.5, 0.0, 0.5, 0.5, "unbounded-by-Thm1.6"),
        (1.2, -3.0, 0.5, 0.5, "unbounded-by-Thm1.6"),
        (2.0, -0.5, 0.5, 0.5, "unbounded-by-Thm1.6"),
        (2.0, 1.0, 0.5, 0.5, "unbounded-per-paper-discussion"),
        (2.0, 2.0, 0.5, 0.5, "unbounded-per-paper-discussion"),
        (2.0, 2.5, 0.5, 0.5, "bounded-per-paper-discussion"),
        (2.5, 0.0, 0.5, 0.5, "indeterminate-by-this-paper"),
    ]
    bad = [
        (g, d, p, q, want, classify_example11(g, d, p, q))
        for g, d, p, q, want in table
        if classify_example11(g, d, p, q) != want
    ]
    _report(12, not bad, f"classifier reproduces all {len(table)} tabulated verdicts"
                         + (f"; mismatches: {bad}" if bad else ""))


def test_criterion_13_cli_determinism(tmp_path):
    kernel = tmp_path / "kernel.json"
    spec = tmp_path / "spec.json"
    out = subprocess.run(CLI + ["gen-kernel", "--n", "3", "--seed", "5",
                                "--kill-min", "0.6", "--out", str(kernel)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    save_spec_file(str(spec), 1.0, kernel=matio.load_matrix(str(kernel)))
    commands = [
        ["permanent", "--matrix", str(kernel), "--alpha", "1.5"],
        ["laplace", "--spec", str(spec), "--s", "1,0.5,2", "--method", "series"],
        ["z-dist", "--spec", str(spec), "--target-mass", "0.99999"],
        ["gamma-tail", "--u", "2", "--v", "1", "--t", "5", "--bounds"],
        ["bounds", "--kernel", str(kernel), "--which", "simple"],
        ["unbounded-scan", "--kernel-model", "brownian", "--n", "4,8,16"],
        ["validate-kernel", str(kernel)],
        ["classify", "--gamma", "-0.5", "--p", "0.8"],
        ["levy", "--p", "0.8", "--gamma", "-0.5", "--scan-thm16", "100,1000"],
    ]
    ok = True
    for cmd in commands:
        runs = [subprocess.run(CLI + cmd, capture_output=True, text=True)
                for _ in range(2)]
        ok = ok and runs[0].stdout == runs[1].stdout and runs[0].returncode == 0
    worker_outputs = []
    for workers in ("1", "4"):
        csv_path = tmp_path / f"w{workers}.csv"
        mc = subprocess.run(
            CLI + ["mc-validate", "--spec", str(spec), "--n", "30000", "--seed", "2",
                   "--s-points", "3", "--workers", workers],
            capture_output=True, text=True,
        )
        subprocess.run(
            CLI + ["sample", "--spec", str(spec), "--n", "400000", "--seed", "6",
                   "--workers", workers, "--out", str(csv_path)],
            capture_output=True, text=True,
        )
        worker_outputs.append((mc.stdout, csv_path.read_bytes()))
    ok = ok and worker_outputs[0] == worker_outputs[1]
    _report(13, ok, "all CLI commands byte-identical across repeat runs and "
                    "worker counts {1, 4}")
