"""Per-layer metrics from the spans the traced launcher records.

A layer is a package module.  ``LAYER_TABLE`` says which end-to-end metric
each layer metric should move, on which workload, and where it should stay
flat; ``per_layer_metrics`` computes the values from the traces of one round.
"""

from __future__ import annotations

import statistics

# name: (unit, better, should move, on workload, flat on)
LAYER_TABLE = {
    "cli.import_s": ("s", "lower", "job_p50_s, jobs_per_s", "short-queries", "levy-kernel"),
    "cli.format_s": ("s", "lower", "draws_per_s, job_p50_s", "sample-bulk", "levy-kernel"),
    "cli.bytes_out": ("count", "lower", "none (output-format guard)", "sample-bulk", ""),
    "matio.load_s": ("s", "lower", "job_p50_s (below noise)", "all", ""),
    "markov.gen_s": ("s", "lower", "setup_s", "all", ""),
    "linalg.alpha_permanent_s": ("s", "lower", "jobs_per_s, job_p75_s", "short-queries",
                                 "sample-bulk, levy-kernel"),
    "linalg.validate_m_matrix_s": ("s", "lower", "job_p50_s", "short-queries", ""),
    "linalg.spectral_radius_s": ("s", "lower", "jobs_per_s", "short-queries", "levy-kernel"),
    "linalg.spectral_radius_calls": ("count", "lower", "jobs_per_s", "short-queries",
                                     "levy-kernel"),
    "model.z_masses_s": ("s", "lower", "jobs_per_s, job_p75_s", "short-queries", "sample-bulk"),
    "model.z_grid_points": ("count", "lower", "jobs_per_s, job_p75_s", "short-queries",
                            "sample-bulk"),
    "model.series_laplace_s": ("s", "lower", "job_p50_s (below noise)", "short-queries", ""),
    "model.series_orders": ("count", "lower", "job_p50_s (below noise)", "short-queries", ""),
    "model.direct_laplace_s": ("s", "lower", "job_p50_s", "short-queries, sample-bulk", ""),
    "sampler.core_s": ("s", "lower", "draws_per_s", "sample-bulk", "levy-kernel"),
    "sampler.ns_per_draw": ("ns", "lower", "draws_per_s", "sample-bulk", ""),
    "sampler.draws": ("count", "higher", "draws_per_s", "sample-bulk", ""),
    "sampler.z_escalations": ("count", "lower", "draws_per_s", "sample-bulk", ""),
    "gamma_tails.tail_s": ("s", "lower", "job_p50_s", "sample-bulk (mc-validate)", ""),
    "bounds.scan_s": ("s", "lower", "job_p50_s", "short-queries", ""),
    "levy.psi_calls": ("count", "lower", "lags_per_s", "levy-kernel", "short-queries"),
    "levy.psi_s": ("s", "lower", "lags_per_s", "levy-kernel", "short-queries"),
    "levy.bundle_calls": ("count", "lower", "lags_per_s", "levy-kernel", ""),
    "levy.bundle_self_s": ("s", "lower", "lags_per_s", "levy-kernel", ""),
    "levy.bundle_useful_ratio": ("ratio", "higher", "lags_per_s", "levy-kernel", ""),
    "levy.quad_calls": ("count", "lower", "lags_per_s", "levy-kernel", ""),
    "levy.spectral_init_s": ("s", "lower", "lags_per_s", "levy-kernel", ""),
    "levy.quad_err_max": ("abs", "lower", "none (accuracy guard)", "levy-kernel", ""),
    "trace.overhead_ratio": ("ratio", "lower", "none (tracing cost)", "all", ""),
    "trace.count_mismatches": ("count", "lower", "none (repeatability flag)", "all", ""),
}

# count metrics that must repeat exactly between two traced passes
COUNT_METRICS = ("levy.psi_calls", "levy.bundle_calls", "levy.quad_calls",
                 "model.z_grid_points", "model.series_orders", "sampler.draws",
                 "sampler.z_escalations", "cli.bytes_out", "linalg.spectral_radius_calls")

_LAG_REL = 1e-12


def _children(spans: list) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            kids[s[3]].append(i)
    return kids


def self_times(spans: list) -> list[float]:
    """Span duration minus the time its direct child spans cover.

    Children of one span are nested in it and never overlap each other in a
    single-threaded job, so the covered time is the sum of their durations.
    """
    kids = _children(spans)
    return [(s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in kids[i])
            for i, s in enumerate(spans)]


# time metrics summed over the outermost calls of a group of functions; a
# call nested in another call of its group (psi_with_error recursing for a
# negative lambda, gamma_tail_exact inside tail_bounds) is part of the outer one
_GROUPS = {
    "matio.load_s": {"matio.load_matrix", "matio.load_spec_file"},
    "markov.gen_s": {"markov.random_transient_chain", "markov.green_kernel"},
    "linalg.alpha_permanent_s": {"linalg.alpha_permanent"},
    "linalg.validate_m_matrix_s": {"linalg.validate_m_matrix"},
    "linalg.spectral_radius_s": {"linalg.spectral_radius_nonneg"},
    "model.z_masses_s": {"model.z_masses"},
    "model.series_laplace_s": {"model.series_laplace_report"},
    "model.direct_laplace_s": {"model.direct_laplace"},
    "gamma_tails.tail_s": {"gamma_tails.gamma_tail_exact", "gamma_tails.tail_bounds"},
    "bounds.scan_s": {"bounds.unboundedness_statistic"},
    "levy.psi_s": {"levy.psi_with_error"},
    "levy.spectral_init_s": {"levy.SpectralFns.__init__"},
}
_GROUP_OF = {name: key for key, names in _GROUPS.items() for name in names}


def outer_calls(spans: list) -> tuple[dict[str, float], dict[str, int]]:
    """Total duration and number of the outermost spans of each group."""
    time = dict.fromkeys(_GROUPS, 0.0)
    calls = dict.fromkeys(_GROUPS, 0)
    for s in spans:
        key = _GROUP_OF.get(s[0])
        if key is None:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] not in _GROUPS[key]:
            parent = spans[parent][3]
        if parent < 0:
            time[key] += s[2] - s[1]
            calls[key] += 1
    return time, calls


def distinct_lags(zs: list[float]) -> int:
    """Number of lags distinct beyond 1e-12 relative."""
    reps: list[float] = []
    for z in sorted(zs):
        if not reps or abs(z - reps[-1]) > _LAG_REL * max(abs(z), abs(reps[-1])):
            reps.append(z)
    return len(reps)


def per_layer_metrics(traces: list[dict], setup_trace: dict,
                      quad_errs: list[float]) -> dict[str, float]:
    """Layer metrics of one traced round.

    ``traces`` holds one launcher dump per job (with its ``command`` and
    ``bytes_out``),
    ``setup_trace`` the dump of the set-up's gen-kernel call.
    """
    m = dict.fromkeys(LAYER_TABLE, 0.0)
    m.update(dict.fromkeys(COUNT_METRICS, 0))
    m["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    m["cli.bytes_out"] = sum(t["bytes_out"] for t in traces)
    m["markov.gen_s"] = outer_calls(setup_trace["spans"])[0]["markov.gen_s"]
    lags = bundles = 0
    for t in traces:
        spans = t["spans"]
        selfs = self_times(spans)
        if t["command"] in ("sample", "mc-validate"):
            m["cli.format_s"] += sum(st for s, st in zip(spans, selfs) if s[0] == "cli.main")
        m["sampler.core_s"] += sum(st for s, st in zip(spans, selfs)
                                   if s[0] == "sampler.sample_permanental")
        m["levy.bundle_self_s"] += sum(st for s, st in zip(spans, selfs)
                                       if s[0] == "levy.potential_bundle")
        times, calls = outer_calls(spans)
        for key, value in times.items():
            m[key] += value
        m["linalg.spectral_radius_calls"] += calls["linalg.spectral_radius_s"]
        m["levy.psi_calls"] += calls["levy.psi_s"]
        m["sampler.z_escalations"] += sum(s[0] == "model.ZDistribution.extended"
                                          for s in spans)
        m["levy.quad_calls"] += t["counts"].get("quad", 0)
        args = t["args"]
        m["model.z_grid_points"] += sum(args["grid_points"])
        m["model.series_orders"] += sum(args["series_orders"])
        m["sampler.draws"] += sum(args["draws"])
        bundles += len(args["bundle_z"])
        lags += distinct_lags(args["bundle_z"])
    m["levy.bundle_calls"] = bundles
    m["levy.bundle_useful_ratio"] = lags / bundles if bundles else 0.0
    if m["sampler.draws"]:
        m["sampler.ns_per_draw"] = m["sampler.core_s"] / m["sampler.draws"] * 1e9
    m["levy.quad_err_max"] = max(quad_errs, default=0.0)
    return m
