"""Seeded inputs and job lists for the three benchmark workloads.

Every input is derived from the workload seed.  The program under test only
sees the files written here and the CLI arguments of each job; the expected
values the gate compares against are computed by this module with numpy,
independently of the package.

A job is one ``permanental`` CLI invocation.  A workload's round is its fixed
list of jobs; the runner repeats whole rounds to fill the measured time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Levy-kernel models: (label, CLI model arguments).  The first is the paper's
# unbounded example, the second is symmetric (no H/sine part) and the third
# adds the log-log factor.
LEVY_MODELS = (
    ("p0.8-g-0.5", ["--p", "0.8", "--gamma", "-0.5"]),
    ("p0.5-g1.5", ["--p", "0.5", "--q", "0.5", "--gamma", "1.5"]),
    ("p0.8-g0-d3", ["--p", "0.8", "--gamma", "0", "--delta", "3"]),
)
# The round's (model index, step h) jobs, each on the points j*h.  Every
# step gives 4 distinct lags (0 included) that rounding splits into 6.  The
# cost of a job moves by up to a third with its step, so every seed runs the
# same pairs and the seed sets their order.  The symmetric model, the
# cheapest, runs at two steps, so that the median job averages two jobs
# instead of resting on one.
LEVY_JOBS = ((0, 0.3), (1, 0.4), (1, 0.6), (2, 0.6))
LEVY_POINTS = 4
# Every quad_err a Levy kernel job reports must stay at or below this.
LEVY_QUAD_ERR_TOL = 1e-4

# Classify inputs with the verdict of the paper's Example 1.1 rule.
CLASSIFY_CASES = (
    ((-0.5, 0.0, 0.8), "unbounded-by-Thm1.6"),
    ((0.0, 1.0, 0.8), "unbounded-per-paper-discussion"),
    ((0.0, 3.0, 0.8), "bounded-per-paper-discussion"),
    ((0.5, 0.0, 0.8), "indeterminate-by-this-paper"),
    ((1.5, 0.0, 0.5), "unbounded-by-Thm1.6"),
    ((2.0, 3.0, 0.5), "bounded-per-paper-discussion"),
)

WORKLOADS = ("sample-bulk", "short-queries", "levy-kernel")


@dataclass
class Job:
    """One CLI invocation and what the gate needs to check its output."""

    name: str                # stable label, unique within a round
    argv: list[str]          # arguments after the program name
    out: str                 # file holding the job's output
    check: dict              # expected-output description for the gate
    stdout_is_out: bool = True  # True when the output arrives on stdout
    draws: int = 0           # draws written, for draws_per_s
    probe: bool = False      # a dimension-wall probe the program may refuse

    @property
    def command(self) -> str:
        return self.argv[0]


def m_matrix(n: int, rho: float, g: np.random.Generator) -> np.ndarray:
    """A = I - P for a random zero-diagonal nonnegative P with Perron root rho.

    A is a nonsingular M-matrix with unit diagonal, so the series matrix
    D^-1 B of the package is P itself and its Perron root is exactly rho;
    that pins the certified Z truncation order, hence the job cost, across
    seeds.
    """
    q = g.random((n, n)) + 0.05
    np.fill_diagonal(q, 0.0)
    radius = float(max(abs(np.linalg.eigvals(q))))
    return np.eye(n) - q * (rho / radius)


def _matrix_obj(m: np.ndarray) -> dict:
    return {"n": int(m.shape[0]), "rows": [[float(x) for x in row] for row in m]}


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


class Inputs:
    """Writes a workload's input files into ``workdir`` and builds its jobs."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- input files ------------------------------------------------------
    def spec(self, name: str, n: int, rho: float, alpha: float) -> dict:
        """Write an A-form spec file; return what the gate needs about it."""
        A = m_matrix(n, rho, self.rng)
        _write_json(self.path(name), {"alpha": alpha, "A": _matrix_obj(A)})
        K = np.linalg.inv(A)
        return {"n": n, "alpha": alpha, "A": A.tolist(), "mean": (alpha * np.diag(K)).tolist()}

    def matrix(self, name: str, n: int, rho: float) -> list:
        """Write a kernel matrix file (the inverse of a random M-matrix) and
        return the matrix."""
        K = np.maximum(np.linalg.inv(m_matrix(n, rho, self.rng)), 0.0)
        _write_json(self.path(name), _matrix_obj(K))
        return K.tolist()

    def gen_kernel_argv(self) -> list[str]:
        """The set-up's ``gen-kernel`` call; also the cold warm-up invocation."""
        return ["gen-kernel", "--n", "6", "--seed", str(self.seed), "--kill-min", "0.5",
                "--out", self.path("gen6.json")]

    def build(self) -> list[Job]:
        """Write the input files and return the round's jobs."""
        return {
            "sample-bulk": self._sample_bulk,
            "short-queries": self._short_queries,
            "levy-kernel": self._levy_kernel,
        }[self.workload]()

    def _seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31)))

    # -- sample-bulk --------------------------------------------------------
    def _sample_job(self, name, spec_file, spec, n_draws, couple, probe=False) -> Job:
        argv = ["sample", "--spec", self.path(spec_file), "--n", str(n_draws),
                "--seed", self._seed(), "--workers", "1"]
        if couple:
            argv.append("--couple")
        out = self.path(name + ".csv")
        argv += ["--out", out]
        check = {"type": "sample", "draws": n_draws, "couple": couple, **spec}
        return Job(name, argv, out, check, stdout_is_out=False, draws=n_draws, probe=probe)

    def _sample_bulk(self) -> list[Job]:
        # Low Perron root: Z enumeration is a negligible share of each job.
        # The draw counts give the four sample jobs about the same cost
        # (~1.5-2 s on a 2-vCPU VM; mc-validate takes ~1 s), so that the
        # median job lies inside one cluster rather than at a gap between
        # job sizes.
        s3 = self.spec("bulk3.json", 3, 0.02, 1.0)
        s4 = self.spec("bulk4.json", 4, 0.02, 1.0)
        s5 = self.spec("bulk5.json", 5, 0.02, 1.0)
        mc_out = self.path("mc5.json")
        return [
            self._sample_job("sample-couple-n3", "bulk3.json", s3, 60_000, True),
            self._sample_job("sample-couple-n5", "bulk5.json", s5, 38_000, True),
            self._sample_job("sample-n5", "bulk5.json", s5, 64_000, False),
            self._sample_job("sample-n4", "bulk4.json", s4, 64_000, False),
            Job("mc-validate-n5",
                ["mc-validate", "--spec", self.path("bulk5.json"), "--n", "200000",
                 "--seed", self._seed(), "--s-points", "10", "--workers", "1",
                 "--out", mc_out],
                mc_out, {"type": "mc-validate", "draws": 200_000, "s_points": 10},
                stdout_is_out=False),
        ]

    # -- short-queries ------------------------------------------------------
    def _stdout_job(self, name: str, argv: list[str], check: dict, **kw) -> Job:
        return Job(name, argv, self.path(name + ".out"), check, **kw)

    def _short_queries(self) -> list[Job]:
        g = self.rng
        jobs: list[Job] = []
        for i in range(3):
            u = float(g.uniform(0.5, 3.0))
            v = float(g.uniform(0.5, 2.0))
            t = float(g.uniform(6.0, 15.0)) / v
            argv = ["gamma-tail", "--u", repr(u), "--v", repr(v), "--t", repr(t)]
            if i % 2:
                argv.append("--bounds")
            jobs.append(self._stdout_job(f"gamma-tail-{i}", argv,
                                         {"type": "gamma-tail", "u": u, "v": v, "t": t}))
        for i in g.choice(len(CLASSIFY_CASES), size=2, replace=False):
            (gamma, delta, p), label = CLASSIFY_CASES[int(i)]
            jobs.append(self._stdout_job(
                f"classify-{int(i)}",
                ["classify", "--gamma", repr(gamma), "--delta", repr(delta), "--p", repr(p)],
                {"type": "classify", "label": label}))
        # gen6.json comes from the set-up's gen-kernel call
        self.matrix("k5.json", 5, 0.4)
        self.matrix("k7.json", 7, 0.4)
        for kname in ("gen6", "k5", "k7"):
            kpath = self.path(kname + ".json")
            jobs.append(self._stdout_job(f"validate-kernel-{kname}",
                                         ["validate-kernel", kpath],
                                         {"type": "validate-kernel"}))
            for which in ("simple", "psi-star"):
                jobs.append(self._stdout_job(
                    f"bounds-{which}-{kname}",
                    ["bounds", "--kernel", kpath, "--which", which],
                    {"type": "bounds", "which": which, "kernel_file": kpath}))
        for model in ("brownian", "log-smooth", "loglog-smooth"):
            grid = [16, 64, 256]
            jobs.append(self._stdout_job(
                f"unbounded-scan-{model}",
                ["unbounded-scan", "--kernel-model", model, "--n", ",".join(map(str, grid))],
                {"type": "unbounded-scan", "grid": grid}))
        for label, model_args in (LEVY_MODELS[0], LEVY_MODELS[2]):
            grid = ["1e2", "1e4", "1e6"]
            jobs.append(self._stdout_job(
                f"scan-thm16-{label}", ["levy", *model_args, "--scan-thm16", ",".join(grid)],
                {"type": "scan-thm16", "grid": [float(x) for x in grid]}))
        for n in (3, 5, 7):
            alpha = float(g.choice([0.5, 1.0, 2.0]))
            spec = self.spec(f"lap{n}.json", n, 0.3, alpha)
            for method in ("det", "series"):
                for k in range(2):
                    s = [float(x) for x in g.uniform(0.0, 2.0, size=n)]
                    jobs.append(self._stdout_job(
                        f"laplace-{method}-n{n}-{k}",
                        ["laplace", "--spec", self.path(f"lap{n}.json"),
                         "--s", ",".join(repr(x) for x in s), "--method", method],
                        {"type": "laplace", "s": s, **spec}))
        # Perron roots 0.1 (n=5) and 0.05 (n=6) give certified orders 10 and 7:
        # coefficient grids of 11^5 = 161,051 and 8^6 = 262,144 points
        for n, rho in ((5, 0.1), (6, 0.05)):
            spec = self.spec(f"z{n}.json", n, rho, 1.0)
            target = 1.0 - 1e-9
            jobs.append(self._stdout_job(
                f"z-dist-n{n}",
                ["z-dist", "--spec", self.path(f"z{n}.json"), "--target-mass", repr(target)],
                {"type": "z-dist", "target": target}))
            jobs.append(self._sample_job(f"sample-n{n}", f"z{n}.json", spec, 20_000, False))
        for n in (8, 9, 10):
            alpha = float(g.choice([0.5, 1.5, 2.0]))
            m = self.matrix(f"perm{n}.json", n, 0.5)
            jobs.append(self._stdout_job(
                f"permanent-n{n}",
                ["permanent", "--matrix", self.path(f"perm{n}.json"), "--alpha", repr(alpha)],
                {"type": "permanent", "matrix": m, "alpha": alpha}))
        # dimension-wall probes: refused today (GRID_CAP, PERMANENT_CAP)
        spec8 = self.spec("z8.json", 8, 0.1, 1.0)
        jobs.append(self._sample_job("probe-sample-n8", "z8.json", spec8, 20_000, False,
                                     probe=True))
        m13 = self.matrix("perm13.json", 13, 0.5)
        jobs.append(self._stdout_job(
            "probe-permanent-n13",
            ["permanent", "--matrix", self.path("perm13.json"), "--alpha", "1.0"],
            {"type": "permanent", "matrix": m13, "alpha": 1.0}, probe=True))
        order = g.permutation(len(jobs))
        return [jobs[int(i)] for i in order]

    # -- levy-kernel --------------------------------------------------------
    def _levy_kernel(self) -> list[Job]:
        jobs = []
        for i in self.rng.permutation(len(LEVY_JOBS)):
            model, h = LEVY_JOBS[int(i)]
            label, model_args = LEVY_MODELS[model]
            points = [j * h for j in range(LEVY_POINTS)]  # as a user builds the grid
            pfile = self.path(f"points-{label}-h{h}.json")
            _write_json(pfile, {"points": points})
            jobs.append(self._stdout_job(
                f"levy-{label}-h{h}", ["levy", *model_args, "--kernel", pfile],
                {"type": "levy-kernel", "model": label, "h": h, "points": points}))
        return jobs
