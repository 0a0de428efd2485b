"""Command-line interface: one executable, subcommand per operation.

Structured reports are JSON (sorted keys), tabular scans are CSV; identical
run configurations produce byte-identical output.  Exit status: 0 success,
2 validation or precondition failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

# One BLAS thread, set before numpy loads its BLAS: a threaded BLAS splits
# the large inversions by core count and rounds them differently, and the
# output bytes must not depend on the host.  No effect when numpy was loaded
# before this module.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS pin

# modules, not names: each executes on first use (see the package docstring)
from . import bounds, gamma_tails, levy, linalg, markov, matio, model, sampler
from .errors import OutOfRange, PermanentalError

_EXACT_REL_ERR = 1e-14  # nominal float-rounding scale for exact computations


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(args, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default,
                      allow_nan=False) + "\n"
    _write(args, [text.encode()])


def _write(args, parts) -> None:
    """Write an iterable of bytes, one part at a time, to --out or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "wb") as fh:
            for part in parts:
                fh.write(part)
    else:
        sys.stdout.flush()
        for part in parts:
            sys.stdout.buffer.write(part)
        sys.stdout.buffer.flush()


def _repr_only(x):
    """Where orjson's layout of a float is not repr's: nonzero values below
    1e-4 or from 1e16 in magnitude (orjson writes 0.00005 and 1e16 for
    repr's 5e-05 and 1e+16), inf and nan (orjson writes null)."""
    a = np.abs(x)
    return (x != 0) & ~((a >= 1e-4) & (a < 1e16))


def _write_csv(args, header, blocks) -> None:
    """Write CSV: the header, then the rows of each block, one block at a time.

    A block is a list of rows of Python cells, or a pair (floats, ints) of
    C-contiguous 2-D arrays whose rows are written side by side.  A number is
    written as repr writes it, so a float reads back exactly, and None as an
    empty cell.  A list block goes through the standard ``csv`` writer, which
    quotes a cell holding a comma, a quote or a line break.  An array block
    is one orjson call per array, read straight from the array (its Ryu
    kernel gives repr's shortest round-trip digits); a row holding a float of
    ``_repr_only`` has its floats rewritten with repr.
    """

    def rows_of(array):  # each row's cells, as orjson writes them
        import orjson

        return orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")

    def encode(block):
        if isinstance(block, tuple):
            floats, ints = block
            if not len(floats):
                return
            float_rows = rows_of(floats)
            for i in np.flatnonzero(_repr_only(floats).any(axis=1)):
                float_rows[i] = ",".join(map(repr, floats[i].tolist())).encode()
            yield b"\n".join(map(b",".join, zip(float_rows, rows_of(ints))))
            yield b"\n"
            return
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(block)
        yield text.getvalue().encode()

    def parts():
        yield (",".join(header) + "\n").encode()
        for block in blocks:
            yield from encode(block)

    _write(args, parts())


def _load_spec(path: str) -> model.PermanentalSpec:
    alpha, K, A = matio.load_spec_file(path)
    if A is not None:
        return model.PermanentalSpec.from_m_matrix(A, alpha)
    return model.PermanentalSpec.from_kernel(K, alpha)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_permanent(args) -> int:
    m = matio.load_matrix(args.matrix)
    value = linalg.alpha_permanent(m, args.alpha)
    _emit(args, {"value": value, "alpha": args.alpha, "n": int(m.shape[0]),
                 "rel_err": linalg.alpha_permanent_rel_err(m, args.alpha, value)})
    return 0


def cmd_laplace(args) -> int:
    spec = _load_spec(args.spec)
    s = _parse_floats(args.s)
    if args.method == "det":
        value = model.direct_laplace(spec, s)
        _emit(args, {"value": value, "rel_err": _EXACT_REL_ERR, "terms_used": 0,
                     "method": "det"})
    else:
        sv = model.series_laplace_report(spec, s, args.rel_tol)
        _emit(args, {"value": sv.value, "rel_err": sv.rel_err,
                     "terms_used": sv.orders_used, "method": "series"})
    return 0


def cmd_z_dist(args) -> int:
    spec = _load_spec(args.spec)
    zd = model.z_masses(spec, args.target_mass)
    masses = [{"k": list(k), "mass": m} for k, m in zd.masses.items()]
    _emit(args, {
        "masses": masses,
        "covered_mass": zd.covered_mass,
        "tail_bound": zd.tail_bound,
        "max_order": zd.max_order,
    })
    return 0


def cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    chunks = sampler.sample_chunks(spec, args.n, sampler.RngStream(args.seed, args.stream_id),
                                   with_coupling=args.couple)
    n = spec.n
    header = [f"X_{i+1}" for i in range(n)]
    if args.couple:
        header += [f"L_{i+1}" for i in range(n)]
    header += [f"Z_{i+1}" for i in range(n)]
    _write_csv(args, header, _sample_blocks(chunks))
    return 0


_CSV_BLOCK = 2048  # rows of a sample chunk formatted per write


def _sample_blocks(chunks):
    """The CSV blocks of each chunk as it arrives, _CSV_BLOCK rows at a
    time: the floats (X, then L if coupled) and the ints Z."""
    for x, lower, z in chunks:
        for start in range(0, len(x), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            floats = x[rows] if lower is None else np.hstack([x[rows], lower[rows]])
            yield floats, z[rows]


def mc_validate(spec: model.PermanentalSpec, n_draws: int, seed: int, s_points: int) -> dict:
    """Full pipeline check: empirical vs determinant Laplace transform on
    deterministic s-points, pathwise coupling violations, and the
    increasing-functional margins, all read from one coupled stream of
    draws, one chunk at a time."""
    if s_points < 0:
        raise ValueError(f"s_points must be nonnegative, got {s_points}")
    if n_draws < 2:
        raise OutOfRange(f"a standard error needs at least 2 draws, got n = {n_draws}")
    g = np.random.default_rng([seed, 555])
    s_list = [g.random(spec.n) * 2.0 for _ in range(s_points)]
    moments = [sampler.Moments() for _ in s_list]
    violations = 0

    def tallied(chunks):  # each chunk on its way to the inequality check
        nonlocal violations
        for chunk in chunks:
            x, lower, _ = chunk
            violations += int(np.sum(x - lower < 0))
            for s, acc in zip(s_list, moments):
                acc.add(sampler._laplace_terms(x, s))
            yield chunk

    rng = sampler.RngStream(seed)
    chunks = sampler.sample_chunks(spec, n_draws, rng, with_coupling=True)
    ineq = sampler.check_permanental_inequality(spec, tallied(chunks), rng)
    points = []
    for s, acc in zip(s_list, moments):
        emp, se = acc.mean, acc.se
        direct = model.direct_laplace(spec, s)
        points.append({"s": [float(x) for x in s], "empirical": emp, "se": se,
                       "direct": direct, "z_score": (emp - direct) / se if se > 0 else 0.0})
    return {
        "n_draws": n_draws,
        "coupling_violations": violations,
        "points": points,
        "points_within_4se": sum(abs(p["z_score"]) <= 4.0 for p in points),
        "inequality": dataclasses.asdict(ineq),
    }


def cmd_mc_validate(args) -> int:
    spec = _load_spec(args.spec)
    report = mc_validate(spec, args.n, args.seed, args.s_points)
    _emit(args, report)
    return 0


def cmd_gamma_tail(args) -> int:
    tail = gamma_tails.gamma_tail_exact(args.u, args.v, args.t)
    payload = {"u": args.u, "v": args.v, "t": args.t, "tail": tail,
               "rel_err": gamma_tails.gamma_tail_rel_err(args.u, args.v, args.t)}
    if args.bounds:
        lower, upper = gamma_tails.tail_bounds(args.u, args.v * args.t)
        payload["bounds"] = {"lower": lower, "upper": upper,
                             "lam": args.v * args.t,
                             "rel_err": gamma_tails.tail_bounds_rel_err(args.u, args.v * args.t)}
    _emit(args, payload)
    return 0


def cmd_bounds(args) -> int:
    K = matio.load_matrix(args.kernel)
    if K.shape[0] < 2:
        raise OutOfRange(f"bounds need a kernel on at least 2 points, got n = {K.shape[0]}")
    pair = linalg.validate_m_matrix(kernel=K)
    payload: dict = {"which": args.which, "diag_a": list(pair.diag_a),
                     "rel_err": _EXACT_REL_ERR}
    if args.which == "simple":
        payload["bounds"] = list(bounds.diag_bound_simple(pair))
    elif args.which == "sigma":
        payload["c"], payload["bound"] = bounds.diag_bound_sigma(pair)
    elif args.which == "scaled":
        payload["bounds"] = list(bounds.diag_bound_scaled(pair))
    elif args.which == "psi-star":
        payload["p"] = args.p
        payload["psi_star"] = bounds.psi_star(pair, args.p)
    else:  # sudakov
        rep = bounds.sudakov_compare(pair)
        payload.update(dataclasses.asdict(rep))
    _emit(args, payload)
    return 0


def _log_inverse_lags(t):
    """log(1 / |t_i - t_j|): inf at lag 0, where the log stand-ins then give 1 + shift."""
    with np.errstate(divide="ignore"):
        return np.log(1.0 / np.abs(np.subtract.outer(t, t)))


# each model maps the scan's points t to the kernel matrix on them
_KERNEL_MODELS = {
    "brownian": lambda shift: (lambda t: np.minimum.outer(t, t) + shift),
    "log-smooth": lambda shift: (lambda t: 1.0 + shift - 0.5 / _log_inverse_lags(t)),
    "loglog-smooth": lambda shift: (lambda t: 1.0 + shift - 0.5 / np.log(_log_inverse_lags(t))),
}

# the lags below which each stand-in kernel is defined: log(1/d) > 0, log log(1/d) > 0
_MAX_LAG = {"brownian": math.inf, "log-smooth": 1.0, "loglog-smooth": 1.0 / math.e}


def cmd_unbounded_scan(args) -> int:
    grid = _parse_ints(args.n)
    if min(grid, default=0) < 2:
        raise OutOfRange(f"every grid size n must be at least 2, got {args.n!r}")
    if not 0.0 < args.delta < math.inf:
        raise OutOfRange(f"delta must be positive and finite, got {args.delta}")
    n_max = max(grid)
    lag = n_max * args.delta / n_max - args.delta / n_max  # as the scan's points give it
    if not lag < _MAX_LAG[args.kernel_model]:
        raise OutOfRange(f"largest lag delta*(n-1)/n = {lag:.6g} is outside the domain "
                         f"of {args.kernel_model}, lags below {_MAX_LAG[args.kernel_model]:.6g}")
    kernel = _KERNEL_MODELS[args.kernel_model](args.shift)
    rows = bounds.unboundedness_statistic(kernel, args.delta, grid, p=args.p)
    header = ["delta", "n", "psi_star", "log_n_over_psi_star", "sigma_star2_log_n", "error"]
    _write_csv(args, header, [[[r.delta, r.n, r.psi_star, r.log_n_over_psi_star,
                                r.sigma_star2_log_n, r.error] for r in rows]])
    return 0


def cmd_gen_kernel(args) -> int:
    chain = markov.random_transient_chain(args.n, args.kill_min, args.seed)
    K = markov.green_kernel(chain)
    matio.save_matrix(args.out, K)
    sys.stdout.write(json.dumps({
        "n": args.n, "seed": args.seed, "kill_min": args.kill_min,
        "radius": chain.radius, "out": args.out,
    }, sort_keys=True) + "\n")
    return 0


def cmd_validate_kernel(args) -> int:
    K = matio.load_matrix(args.kernel)
    report = markov.validate_appendix_lemma(K)
    payload = {
        "passed": report.passed,
        "reason": report.reason,
        "row_sums": None if report.row_sums is None else list(report.row_sums),
        "positive_row_sums": report.positive_row_sums,
        "column_dominated": report.column_dominated,
        "rel_err": _EXACT_REL_ERR,
    }
    _emit(args, payload)
    return 0 if report.passed else 2


def cmd_levy(args) -> int:
    q = args.q if args.q is not None else 1.0 - args.p
    if args.scan_thm16 is not None:
        grid = _parse_floats(args.scan_thm16)
        if not grid:
            raise OutOfRange(f"--scan-thm16 needs at least one n, got {args.scan_thm16!r}")
        rows = levy.check_thm16_integrals(args.gamma, args.delta, args.p, q, grid,
                                          cut=args.eps_cut)
        _write_csv(args, ["n", "statistic", "log_n", "ratio"],
                   [[[r.n, r.statistic, r.log_n, r.ratio] for r in rows]])
        return 0
    levy_model = levy.log_power_model(args.beta, args.p, q, args.gamma, args.delta,
                                      cut=args.eps_cut)
    if args.u is not None:
        b = levy.potential_bundle(levy_model, args.u)
        _emit(args, {"z": b.z, "u_plus": b.u_plus, "u_minus": b.u_minus,
                     "r_part": b.r_part, "h_part": b.h_part, "u_zero": b.u_zero,
                     "sigma2": b.sigma2, "quad_err": b.abserr})
        return 0
    with open(args.kernel) as fh:
        obj = json.load(fh)
    points = obj.get("points") if isinstance(obj, dict) else None
    try:
        finite = isinstance(points, list) and all(
            type(t) in (int, float) and math.isfinite(t) for t in points)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{args.kernel}: 'points' must be a list of finite numbers")
    points = [float(t) for t in points]
    K, err = levy.kernel_matrix(levy_model, points)
    _emit(args, {"points": points, "kernel": matio.matrix_to_json_obj(K), "quad_err": err})
    return 0


def cmd_classify(args) -> int:
    q = args.q if args.q is not None else 1.0 - args.p
    label = levy.classify_example11(args.gamma, args.delta, args.p, q)
    _emit(args, {"label": label, "gamma": args.gamma, "delta": args.delta,
                 "p": args.p, "q": q})
    return 0


# ---------------------------------------------------------------------------

_WORKERS_HELP = ("at least 1; changes neither the output nor the work: "
                 "the chunks are drawn in order on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permanental",
        description="alpha-permanental vectors with M-matrix kernels: "
                    "simulation, Laplace transforms, bounds and Levy kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permanent", help="exact alpha-permanent of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_permanent)

    p = sub.add_parser("laplace", help="Laplace transform by determinant or series")
    p.add_argument("--spec", required=True)
    p.add_argument("--s", required=True, help="comma-separated s vector")
    p.add_argument("--method", choices=("det", "series"), default="det")
    p.add_argument("--rel-tol", type=float, default=1e-8, dest="rel_tol")
    p.add_argument("--out")
    p.set_defaults(func=cmd_laplace)

    p = sub.add_parser("z-dist", help="masses of the latent index vector Z")
    p.add_argument("--spec", required=True)
    p.add_argument("--target-mass", type=float, default=1 - 1e-9, dest="target_mass")
    p.add_argument("--out")
    p.set_defaults(func=cmd_z_dist)

    p = sub.add_parser("sample", help="draw permanental vectors to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--couple", action="store_true")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mc-validate", help="end-to-end Monte Carlo validation")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--s-points", type=int, default=10, dest="s_points")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mc_validate)

    p = sub.add_parser("gamma-tail", help="exact gamma tail with optional bounds")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma_tail)

    p = sub.add_parser("bounds", help="diagonal bounds for a kernel file")
    p.add_argument("--kernel", required=True)
    p.add_argument("--which", required=True,
                   choices=("simple", "sigma", "scaled", "psi-star", "sudakov"))
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("unbounded-scan",
                       help="log n / a* scan on equally spaced configurations")
    p.add_argument("--kernel-model", required=True, dest="kernel_model",
                   choices=sorted(_KERNEL_MODELS))
    p.add_argument("--n", required=True, help="comma-separated grid sizes")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--shift", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_unbounded_scan)

    p = sub.add_parser("gen-kernel", help="random transient-chain Green kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kill-min", type=float, default=0.5, dest="kill_min")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_kernel)

    p = sub.add_parser("validate-kernel", help="M-matrix validation report")
    p.add_argument("kernel")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_kernel)

    p = sub.add_parser("levy", help="Levy potential densities and criteria")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    # levy.DEFAULT_CUT, written out so that parsing does not execute levy
    p.add_argument("--eps-cut", type=float, default=math.e**2, dest="eps_cut")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--u", type=float)
    mode.add_argument("--scan-thm16", dest="scan_thm16")
    mode.add_argument("--kernel", help="JSON file with a points array")
    p.add_argument("--out")
    p.set_defaults(func=cmd_levy)

    p = sub.add_parser("classify", help="boundedness verdict for the log-power family")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    try:
        # the parser is cyclic: bound here, it lives to the end of the command
        # instead of waiting, as garbage, for whichever collection frees it
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise OutOfRange(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (PermanentalError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


def run() -> None:
    """Process entry of ``python -m permanental.cli`` and the ``permanental``
    script: ``main()``, then flush both streams and end the process with
    ``os._exit``, skipping the interpreter's teardown (finalizing numpy and
    the module graph, about 20 ms on a 2-vCPU host), on which no output
    depends.

    A write that fails in the final flush (closed pipe, full device) exits 2
    with ``main``'s ``error:`` line, unless ``main`` failed and reported it
    already.  ``SystemExit`` from argparse and ``KeyboardInterrupt`` leave
    through the interpreter's normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            sys.stderr.write(f"error: {exc}\n")
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
