"""Output correctness gate.

Every job's output is checked after the job has ended, outside the timed
region, against a reference the benchmark computes itself: numpy
determinants, a subset-recursion permanent, scipy's incomplete gamma
function, sample moments, and stored Levy kernels.  ``check_job`` returns
``None`` for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from workloads import LEVY_QUAD_ERR_TOL, Job

_EPS = np.finfo(float).eps
# allowance for the reference's own rounding, added to the reported error
_REF_ROUNDING = 64 * _EPS
_LAG_REL = 1e-12
_REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference", "levy_kernels.json")


def is_refusal(job: Job, returncode: int, stderr: str) -> bool:
    """A dimension-wall probe refused with exit 2 and the cap message."""
    return job.probe and returncode == 2 and "exceeds cap" in stderr


def check_job(job: Job) -> str | None:
    try:
        return _CHECKS[job.check["type"]](job)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _read_json(job: Job) -> dict:
    with open(job.out) as fh:
        return json.load(fh)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


# -- references ---------------------------------------------------------------


def laplace_reference(a, alpha: float, s) -> float:
    """|A|^alpha / |A+S|^alpha from numpy slogdet."""
    A = np.asarray(a, dtype=float)
    _, logdet_a = np.linalg.slogdet(A)
    _, logdet_s = np.linalg.slogdet(A + np.diag(np.asarray(s, dtype=float)))
    return math.exp(alpha * (logdet_a - logdet_s))


def permanent_oracle(m, alpha: float) -> float:
    """alpha-permanent by subset recursion.

    Cycle sums C(T) over every subset T come from a Held-Karp walk anchored
    at the smallest element of T; then f(S) = sum over T containing min S of
    alpha C(T) f(S \\ T).  O(2^n n^2 + 3^n) instead of n! terms.
    """
    M = np.asarray(m, dtype=float)
    n = M.shape[0]
    full = 1 << n
    cyc = np.zeros(full)
    for a in range(n):
        cyc[1 << a] = M[a, a]
        rest = list(range(a + 1, n))
        k = len(rest)
        if k == 0:
            continue
        # paths a -> ... -> rest[v] through the subset `mask` of rest
        paths = np.zeros((1 << k, k))
        for v in range(k):
            paths[1 << v, v] = M[a, rest[v]]
        back = M[rest, a]
        step = M[np.ix_(rest, rest)]
        for mask in range(1, 1 << k):
            row = paths[mask]
            if not row.any():
                continue
            bits = sum(1 << rest[v] for v in range(k) if mask >> v & 1)
            cyc[(1 << a) | bits] += float(row @ back)
            reach = row @ step
            for w in range(k):
                if not mask >> w & 1:
                    paths[mask | 1 << w, w] += reach[w]
    f = np.zeros(full)
    f[0] = 1.0
    for S in range(1, full):
        low = S & -S
        others = S ^ low
        total = 0.0
        sub = others
        while True:
            T = sub | low
            total += cyc[T] * f[S ^ T]
            if sub == 0:
                break
            sub = (sub - 1) & others
        f[S] = alpha * total
    return float(f[full - 1])


@functools.cache
def levy_references() -> dict:
    """Stored kernels by "<model> h=<step>", written by make_reference.py."""
    with open(_REFERENCE_FILE) as fh:
        return json.load(fh)


# -- per-command checks -------------------------------------------------------


def _check_sample(job: Job) -> str | None:
    c = job.check
    n = c["n"]
    header = [f"X_{i+1}" for i in range(n)]
    if c["couple"]:
        header += [f"L_{i+1}" for i in range(n)]
    header += [f"Z_{i+1}" for i in range(n)]
    with open(job.out) as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            return "wrong CSV header"
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (c["draws"], len(header)):
        return f"CSV shape {data.shape}, expected {(c['draws'], len(header))}"
    if not np.isfinite(data).all():
        return "non-finite value"
    x = data[:, :n]
    z = data[:, -n:]
    if c["couple"] and (x < data[:, n:2 * n]).any():
        return "a row has X < L"
    if (z < 0).any() or (z != np.round(z)).any():
        return "Z is not a non-negative integer"
    mean = x.mean(axis=0)
    se = x.std(axis=0, ddof=1) / math.sqrt(x.shape[0])
    expected = np.asarray(c["mean"])
    if (np.abs(mean - expected) > 5.0 * se).any():
        return f"column means {mean.tolist()} not within 5 SE of alpha*diag(K)"
    return None


def _check_mc_validate(job: Job) -> str | None:
    r = _read_json(job)
    if r["n_draws"] != job.check["draws"] or len(r["points"]) != job.check["s_points"]:
        return "wrong draw or s-point count"
    if r["coupling_violations"] != 0:
        return f"{r['coupling_violations']} coupling violations"
    return None


def _check_gamma_tail(job: Job) -> str | None:
    import scipy.special

    c = job.check
    r = _read_json(job)
    ref = float(scipy.special.gammaincc(c["u"], c["v"] * c["t"]))
    if not _close(r["tail"], ref, r["rel_err"] + 1e-13):
        return f"tail {r['tail']!r} vs gammaincc {ref!r}"
    return None


def _check_classify(job: Job) -> str | None:
    label = _read_json(job)["label"]
    return None if label == job.check["label"] else f"label {label!r}"


def _check_validate_kernel(job: Job) -> str | None:
    return None if _read_json(job)["passed"] is True else "kernel reported invalid"


def _check_bounds(job: Job) -> str | None:
    r = _read_json(job)
    if job.check["which"] == "simple":
        values = np.asarray(r["bounds"], dtype=float)
        if values.ndim < 1 or len(values) != len(r["diag_a"]):
            return "wrong number of bounds"
    else:
        values = np.asarray([r["psi_star"]], dtype=float)
    if not (np.isfinite(values).all() and (values > 0).all()):
        return "non-finite or non-positive bound"
    with open(job.check["kernel_file"]) as fh:
        kernel = np.asarray(json.load(fh)["rows"], dtype=float)
    if not np.allclose(r["diag_a"], np.diag(np.linalg.inv(kernel)), rtol=1e-9):
        return "diag_a does not match the kernel's inverse"
    return None


def _read_csv_rows(job: Job) -> tuple[str, list[list[str]]]:
    with open(job.out) as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_unbounded_scan(job: Job) -> str | None:
    header, rows = _read_csv_rows(job)
    if header != "delta,n,psi_star,log_n_over_psi_star,sigma_star2_log_n,error":
        return "wrong CSV header"
    if [int(r[1]) for r in rows] != job.check["grid"]:
        return "wrong scan grid"
    for r in rows:
        if r[5] == "" and not (float(r[2]) > 0 and math.isfinite(float(r[3]))):
            return "non-finite scan value"
    return None


def _check_scan_thm16(job: Job) -> str | None:
    header, rows = _read_csv_rows(job)
    if header != "n,statistic,log_n,ratio":
        return "wrong CSV header"
    grid = job.check["grid"]
    if [float(r[0]) for r in rows] != grid:
        return "wrong scan grid"
    for r, n in zip(rows, grid):
        stat, log_n, ratio = (float(x) for x in r[1:])
        if not math.isfinite(stat) or not _close(log_n, math.log(n), 1e-15):
            return "bad statistic or log n"
        if not _close(ratio, stat / log_n, 1e-15):
            return "ratio is not statistic / log n"
    return None


def _check_laplace(job: Job) -> str | None:
    c = job.check
    r = _read_json(job)
    ref = laplace_reference(c["A"], c["alpha"], c["s"])
    if not _close(r["value"], ref, r["rel_err"] + _REF_ROUNDING):
        return f"value {r['value']!r} vs slogdet {ref!r} beyond rel_err {r['rel_err']:g}"
    return None


def _check_z_dist(job: Job) -> str | None:
    r = _read_json(job)
    covered, tail = r["covered_mass"], r["tail_bound"]
    if covered < job.check["target"]:
        return f"covered mass {covered!r} below target"
    if covered + tail < 1.0 - 1e-12:
        return f"covered + tail_bound = {covered + tail!r} < 1 - 1e-12"
    masses = np.array([m["mass"] for m in r["masses"]])
    if (masses < 0).any() or not _close(float(masses.sum()), covered, 1e-12):
        return "masses are negative or do not sum to the covered mass"
    return None


def _check_permanent(job: Job) -> str | None:
    c = job.check
    r = _read_json(job)
    ref = permanent_oracle(c["matrix"], c["alpha"])
    if not _close(r["value"], ref, r["rel_err"] + 1e-12):
        return f"permanent {r['value']!r} vs oracle {ref!r}"
    return None


def _check_levy_kernel(job: Job) -> str | None:
    c = job.check
    r = _read_json(job)
    pts = c["points"]
    K = np.asarray(r["kernel"]["rows"], dtype=float)
    err = float(r["quad_err"])
    if r["points"] != pts or K.shape != (len(pts), len(pts)):
        return "wrong points or kernel shape"
    if not (np.isfinite(K).all() and err <= LEVY_QUAD_ERR_TOL):
        return f"non-finite kernel or quad_err {err:g} above {LEVY_QUAD_ERR_TOL:g}"
    lags = [(t - s, K[i, j]) for i, s in enumerate(pts) for j, t in enumerate(pts)]
    for lag, v in lags:
        for lag2, v2 in lags:
            same = lag * lag2 > 0 and abs(lag - lag2) <= _LAG_REL * max(abs(lag), abs(lag2))
            if (same or lag == lag2 == 0.0) and abs(v - v2) > 2.0 * err:
                return f"entries at equal lag {lag!r} differ by {abs(v - v2):g}"
    ref = levy_references()[f"{c['model']} h={c['h']}"]
    bound = err + ref["quad_err"]
    worst = float(np.abs(K - np.asarray(ref["kernel"])).max())
    if worst > bound:
        return f"kernel differs from stored reference by {worst:g} > {bound:g}"
    return None


_CHECKS = {
    "sample": _check_sample,
    "mc-validate": _check_mc_validate,
    "gamma-tail": _check_gamma_tail,
    "classify": _check_classify,
    "validate-kernel": _check_validate_kernel,
    "bounds": _check_bounds,
    "unbounded-scan": _check_unbounded_scan,
    "scan-thm16": _check_scan_thm16,
    "laplace": _check_laplace,
    "z-dist": _check_z_dist,
    "permanent": _check_permanent,
    "levy-kernel": _check_levy_kernel,
}
