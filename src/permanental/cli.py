"""Command-line interface: one executable, subcommand per operation.

Structured reports are JSON (sorted keys), tabular scans are CSV; identical
run configurations produce byte-identical output regardless of the worker
count.  Exit status: 0 success, 2 validation or precondition failure,
1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import gamma_tails, levy, markov, matio
from .errors import OutOfRange, PermanentalError
from .linalg import alpha_permanent, alpha_permanent_rel_err, invert, validate_m_matrix
from .model import PermanentalSpec, direct_laplace, series_laplace_report, z_masses
from .sampler import Moments, RngStream, _laplace_terms, check_permanental_inequality, sample_chunks

_EXACT_REL_ERR = 1e-14  # nominal float-rounding scale for exact computations


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(args, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
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


def _cell(v, texts):
    """A Python cell as orjson should see it: v itself if orjson writes it as
    repr would, else the placeholder "" with the cell's text put on texts."""
    if type(v) is int or type(v) is float and not _repr_only(v):
        return v
    texts.append("" if v is None else v if type(v) is str else repr(v))
    return ""


def _write_csv(args, header, blocks) -> None:
    """Write CSV: the header, then the rows of each block, one block at a time.

    A block is a list of rows of Python cells, or a pair (floats, ints) of
    2-D arrays whose rows are written side by side.  A number is written as
    repr writes it, so a float reads back exactly; a string is written as it
    is and None as an empty cell.  One orjson call writes a block: its Ryu
    kernel gives repr's shortest round-trip digits.  Every other cell (a
    string, None, a float of ``_repr_only``) goes to orjson as the empty
    string, and its text is written in place of that placeholder's quotes.
    """
    import orjson

    def encode(block):
        texts = []  # the placeholders' texts, in row-major order
        if isinstance(block, tuple):
            floats, ints = block
            cells = floats.tolist()
            for i, j in zip(*np.nonzero(_repr_only(floats))):
                texts.append(repr(cells[i][j]))
                cells[i][j] = ""
            rows = list(map(list.__add__, cells, ints.tolist()))
        else:
            rows = [[_cell(v, texts) for v in row] for row in block]
        if not rows:
            return
        # the placeholders are the only strings, so no "],[" is inside one
        pieces = orjson.dumps(rows)[2:-2].replace(b"],[", b"\n").split(b'""', len(texts))
        yield pieces[0]
        for text, piece in zip(texts, pieces[1:]):
            yield text.encode()
            yield piece
        yield b"\n"

    def parts():
        yield (",".join(header) + "\n").encode()
        for block in blocks:
            yield from encode(block)

    _write(args, parts())


def _load_spec(path: str) -> PermanentalSpec:
    alpha, K, A = matio.load_spec_file(path)
    if A is not None:
        return PermanentalSpec.from_m_matrix(A, alpha)
    return PermanentalSpec.from_kernel(K, alpha)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_permanent(args) -> int:
    m = matio.load_matrix(args.matrix)
    value = alpha_permanent(m, args.alpha)
    _emit(args, {"value": value, "alpha": args.alpha, "n": int(m.shape[0]),
                 "rel_err": alpha_permanent_rel_err(m, args.alpha, value)})
    return 0


def cmd_laplace(args) -> int:
    spec = _load_spec(args.spec)
    s = _parse_floats(args.s)
    if args.method == "det":
        value = direct_laplace(spec, s)
        _emit(args, {"value": value, "rel_err": _EXACT_REL_ERR, "terms_used": 0,
                     "method": "det"})
    else:
        sv = series_laplace_report(spec, s, args.rel_tol)
        _emit(args, {"value": sv.value, "rel_err": sv.rel_err,
                     "terms_used": sv.orders_used, "method": "series"})
    return 0


def cmd_z_dist(args) -> int:
    spec = _load_spec(args.spec)
    zd = z_masses(spec, args.target_mass)
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
    chunks = sample_chunks(
        spec, args.n, RngStream(args.seed, args.stream_id),
        with_coupling=args.couple, workers=args.workers,
    )
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


def mc_validate(spec: PermanentalSpec, n_draws: int, seed: int, s_points: int,
                workers: int | None = None) -> dict:
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
    moments = [Moments() for _ in s_list]
    violations = 0

    def tallied(chunks):  # each chunk on its way to the inequality check
        nonlocal violations
        for chunk in chunks:
            x, lower, _ = chunk
            violations += int(np.sum(x - lower < 0))
            for s, acc in zip(s_list, moments):
                acc.add(_laplace_terms(x, s))
            yield chunk

    rng = RngStream(seed)
    ineq = check_permanental_inequality(
        spec, tallied(sample_chunks(spec, n_draws, rng, with_coupling=True, workers=workers)),
        rng)
    points = []
    for s, acc in zip(s_list, moments):
        emp, se = acc.mean, acc.se
        direct = direct_laplace(spec, s)
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
    report = mc_validate(spec, args.n, args.seed, args.s_points, workers=args.workers)
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
    pair = validate_m_matrix(invert(K), off_diag_tol=args.tol, inverse_tol=args.tol)
    payload: dict = {"which": args.which, "diag_a": list(pair.diag_a),
                     "rel_err": _EXACT_REL_ERR}
    if args.which == "simple":
        payload["bounds"] = list(bounds_mod.diag_bound_simple(pair))
    elif args.which == "sigma":
        c = args.c if args.c is not None else bounds_mod.asymmetry_constant(pair.K)
        payload["c"] = c
        payload["bound"] = bounds_mod.diag_bound_sigma(pair, c)
    elif args.which == "scaled":
        k_hat = args.k_hat if args.k_hat is not None else float(np.diag(pair.K).max())
        payload["k_hat"] = k_hat
        payload["bounds"] = list(bounds_mod.diag_bound_scaled(pair, k_hat))
    elif args.which == "psi-star":
        payload["p"] = args.p
        payload["psi_star"] = bounds_mod.psi_star(pair, args.p)
    else:  # sudakov
        rep = bounds_mod.sudakov_compare(pair)
        payload.update(dataclasses.asdict(rep))
    _emit(args, payload)
    return 0


_KERNEL_MODELS = {
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

# the lags below which each stand-in kernel is defined: log(1/d) > 0, log log(1/d) > 0
_MAX_LAG = {"brownian": math.inf, "log-smooth": 1.0, "loglog-smooth": 1.0 / math.e}


def cmd_unbounded_scan(args) -> int:
    grid = _parse_ints(args.n)
    if min(grid, default=0) < 2:
        raise OutOfRange(f"every grid size n must be at least 2, got {args.n!r}")
    n_max = max(grid)
    lag = n_max * args.delta / n_max - args.delta / n_max  # as the scan's points give it
    if not lag < _MAX_LAG[args.kernel_model]:
        raise OutOfRange(f"largest lag delta*(n-1)/n = {lag:.6g} is outside the domain "
                         f"of {args.kernel_model}, lags below {_MAX_LAG[args.kernel_model]:.6g}")
    kernel_fn = _KERNEL_MODELS[args.kernel_model](args.shift)
    rows = bounds_mod.unboundedness_statistic(kernel_fn, args.delta, grid, p=args.p)
    header = ["delta", "n", "psi_star", "log_n_over_psi_star", "sigma_star2_log_n", "error"]
    _write_csv(args, header, [[[r.delta, r.n, r.a_star, r.log_n_over_a_star,
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
    report = markov.validate_appendix_lemma(K, tol=args.tol)
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
    model = levy.log_power_model(args.beta, args.p, q, args.gamma, args.delta,
                                 cut=args.eps_cut)
    if args.u is not None:
        b = levy.potential_bundle(model, args.u)
        _emit(args, {"z": b.z, "u_plus": b.u_plus, "u_minus": b.u_minus,
                     "r_part": b.r_part, "h_part": b.h_part, "u_zero": b.u_zero,
                     "sigma2": b.sigma2, "quad_err": b.abserr})
        return 0
    if args.kernel:
        with open(args.kernel) as fh:
            obj = json.load(fh)
        points = obj.get("points") if isinstance(obj, dict) else None
        if not (isinstance(points, list) and all(
                type(t) in (int, float) and math.isfinite(t) for t in points)):
            raise ValueError(f"{args.kernel}: 'points' must be a list of finite numbers")
        points = [float(t) for t in points]
        K, err = levy.kernel_matrix(model, points)
        _emit(args, {"points": points, "kernel": matio.matrix_to_json_obj(K), "quad_err": err})
        return 0
    raise PermanentalError("levy needs one of --u, --scan-thm16, --kernel")


def cmd_classify(args) -> int:
    q = args.q if args.q is not None else 1.0 - args.p
    label = levy.classify_example11(args.gamma, args.delta, args.p, q)
    _emit(args, {"label": label, "gamma": args.gamma, "delta": args.delta,
                 "p": args.p, "q": q})
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permanental",
        description="alpha-permanental vectors with M-matrix kernels: "
                    "simulation, Laplace transforms, bounds and Levy kernels",
    )
    workers_env = os.environ.get("PERMANENTAL_WORKERS", "1")
    try:
        default_workers = int(workers_env)
    except ValueError:
        default_workers = 0
    if default_workers < 1:
        raise OutOfRange(
            f"PERMANENTAL_WORKERS must be a positive integer, got {workers_env!r}")
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
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mc-validate", help="end-to-end Monte Carlo validation")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--s-points", type=int, default=10, dest="s_points")
    p.add_argument("--workers", type=int, default=default_workers)
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
    p.add_argument("--c", type=float)
    p.add_argument("--k-hat", type=float, dest="k_hat")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-10)
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
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_kernel)

    p = sub.add_parser("levy", help="Levy potential densities and criteria")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--eps-cut", type=float, default=levy.DEFAULT_CUT, dest="eps_cut")
    p.add_argument("--u", type=float)
    p.add_argument("--scan-thm16", dest="scan_thm16")
    p.add_argument("--kernel", help="JSON file with a points array")
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
        if getattr(args, "workers", 1) < 1:  # PERMANENTAL_WORKERS is checked by the parser
            raise OutOfRange(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (PermanentalError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
