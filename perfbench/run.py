"""End-to-end and per-layer benchmark of the ``permanental`` CLI.

    python3 perfbench/run.py --workload sample-bulk --seed 1 --seconds 33 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client and one job in
flight: every job is a fresh ``python3 -m permanental.cli`` process with one
worker, as users run it.  Whole rounds of the workload's jobs are repeated,
as many as come nearest to ``--seconds`` at the first round's pace (at least
one); the throughput metrics take each job's median over the rounds.  Each
job's output is checked by ``gate.py`` after the job ends, outside the timed
region.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs one round through ``launcher.py`` with wrapping on, part
of it again wrapped (whose counts must repeat) and unwrapped (for the tracing
overhead), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the metrics by name with their units.  A record with provenance and
every sample is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gate import check_job, is_refusal  # noqa: E402
from layers import COUNT_METRICS, LAYER_TABLE, distinct_lags, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Inputs, Job  # noqa: E402

LAUNCHER = os.path.join(HERE, "launcher.py")
WORKDIR = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 120.0


@dataclass
class Run:
    """One finished process."""

    wall: float
    code: int
    maxrss_kb: int
    stderr: str


class Runner:
    """Starts one process at a time and waits for it, recording wall time and
    the child's peak resident set."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PERMANENTAL_WORKERS="1")

    def run(self, job: Job, launcher: list[str] | None = None) -> Run:
        if launcher is None:
            cmd = [sys.executable, "-m", "permanental.cli", *job.argv]
        else:
            cmd = [sys.executable, LAUNCHER, *launcher, "--", *job.argv]
        stdout_path = job.out if job.stdout_is_out else job.out + ".stdout"
        err_path = job.out + ".stderr"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=WORKDIR)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(err_path) as fh:
            stderr = fh.read()
        return Run(wall, code, usage.ru_maxrss, stderr)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _reset_workdir() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)


class Gate:
    """Classifies each finished job as ok, refused (a probe at the dimension
    wall) or failed, and requires repeated runs of a job to give identical
    output bytes."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def judge(self, job: Job, run: Run) -> tuple[str, str]:
        if is_refusal(job, run.code, run.stderr):
            return "refused", run.stderr.strip()
        if run.code != 0:
            return "failed", f"exit {run.code}: {run.stderr.strip()[-300:]}"
        digest = _digest(job.out)
        known = self.digests.get(job.name)
        if known is not None:
            # the same bytes as an output that already passed the checks
            if known == digest:
                return "ok", ""
            return "failed", "output differs from an earlier run of the same job"
        reason = check_job(job)
        if reason is not None:
            return "failed", reason
        self.digests[job.name] = digest
        return "ok", ""


def _setup(runner: Runner, workload: str, seed: int,
           launcher: list[str] | None = None) -> tuple[float, list[Job], Run]:
    """Write the inputs and run the set-up's gen-kernel call (the cold
    warm-up invocation).  Returns the set-up time, the jobs and that call."""
    _reset_workdir()
    start = time.perf_counter()
    inputs = Inputs(workload, seed, WORKDIR)
    gen = Job("gen-kernel", inputs.gen_kernel_argv(), inputs.path("gen-kernel.out"), {})
    run = runner.run(gen, launcher)
    if run.code != 0:
        raise RuntimeError(f"set-up gen-kernel failed: {run.stderr.strip()}")
    jobs = inputs.build()
    return time.perf_counter() - start, jobs, run


def _items(job: Job) -> int:
    """Draws a sample job writes, or the distinct lags of a Levy kernel job;
    0 for the other commands."""
    if job.command == "sample":
        return job.draws
    if job.check.get("type") == "levy-kernel":
        pts = job.check["points"]
        return distinct_lags([abs(t - s) for s in pts for t in pts])
    return 0


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q[0], "q3": q[2]}


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, jobs, _ = _setup(runner, workload, seed)
        setups.append(setup_s)
    gate = Gate()
    rows = []
    busy = 0.0
    rounds = 1
    done = 0
    while done < rounds:
        for job in jobs:
            run = runner.run(job)
            busy += run.wall
            status, reason = gate.judge(job, run)
            items = _items(job)
            rows.append({"job": job.name, "command": job.command, "wall_s": run.wall,
                         "maxrss_kb": run.maxrss_kb, "status": status, "reason": reason,
                         "items": items, "items_done": items if status == "ok" else 0})
            if job.command == "sample" and os.path.exists(job.out):
                os.remove(job.out)  # bulk CSV, already checked and digested
        done += 1
        if done == 1:
            # the round count nearest to --seconds, fixed by the first round
            # so that it does not hang on the machine's speed near a boundary
            rounds = max(1, round(seconds / busy))
    walls = [r["wall_s"] for r in rows]
    # Throughput per round, from each job's median over the rounds, so that
    # one job slowed by a burst of load on the host does not move it.
    by_job: dict[str, list[dict]] = {}
    for r in rows:
        by_job.setdefault(r["job"], []).append(r)
    round_s = item_s = ok = items = 0.0
    for runs in by_job.values():
        wall = statistics.median(r["wall_s"] for r in runs)
        round_s += wall
        ok += sum(r["status"] == "ok" for r in runs) / len(runs)
        if runs[0]["items"]:
            item_s += wall
            items += sum(r["items_done"] for r in runs) / len(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(walls),
        "job_p75_s": statistics.quantiles(walls, n=4, method="inclusive")[2],
        "jobs_per_s": ok / round_s,
        "items_per_s": items / item_s,
        "peak_rss_mb": max(r["maxrss_kb"] for r in rows) / 1024.0,
    }
    return {"metrics": metrics, "rows": rows, "busy_s": busy, "rounds": rounds,
            "samples": {"setup_s": _summary(setups), "job_wall_s": _summary(walls)}}


def traced_run(runner: Runner, workload: str, seed: int) -> dict:
    """Pass A traces every job of one round.  Every fourth job, from the
    first, is traced a second time (pass B, whose counts must repeat pass A's
    exactly); every fourth job, from the third, also runs unwrapped for the
    overhead ratio.  That keeps the traced run near 1.5 rounds."""
    setup_file = os.path.join(WORKDIR, "trace-setup.json")
    _, jobs, _ = _setup(runner, workload, seed, [setup_file])
    with open(setup_file) as fh:
        setup_trace = json.load(fh)
    trace_file = os.path.join(WORKDIR, "trace.json")
    gate = Gate()
    traces: dict[str, list] = {"A": [], "A-repeated": [], "B": []}
    walls = {"plain": 0.0, "A-unwrapped-too": 0.0}
    quad_errs = []
    rows = []
    for i, job in enumerate(jobs):
        status, reason = "ok", ""
        # the unwrapped run goes first on every other such job, so that
        # neither side of the overhead ratio gains from going second
        passes = {0: ("A", "B"), 4: ("A", "B"), 2: ("plain", "A"),
                  6: ("A", "plain")}.get(i % 8, ("A",))
        for name in passes:
            if os.path.exists(trace_file):
                os.remove(trace_file)
            run = runner.run(job, ["--no-wrap"] if name == "plain" else [trace_file])
            if status == "ok":
                status, reason = gate.judge(job, run)
                reason = reason and f"pass {name}: {reason}"
            if name == "plain":
                walls["plain"] += run.wall
                continue
            if not os.path.exists(trace_file):
                status, reason = "failed", f"pass {name}: the launcher wrote no trace"
                continue
            with open(trace_file) as fh:
                trace = json.load(fh)
            trace["command"] = job.command
            trace["bytes_out"] = os.path.getsize(job.out) if run.code == 0 else 0
            traces[name].append(trace)
            if name == "A" and "plain" in passes:
                walls["A-unwrapped-too"] += run.wall
            elif name == "A" and "B" in passes:
                traces["A-repeated"].append(trace)
        if status == "ok" and job.check.get("type") == "levy-kernel":
            with open(job.out) as fh:
                quad_errs.append(float(json.load(fh)["quad_err"]))
        rows.append({"job": job.name, "command": job.command, "status": status,
                     "reason": reason})
    metrics = per_layer_metrics(traces["A"], setup_trace, quad_errs)
    first = per_layer_metrics(traces["A-repeated"], setup_trace, quad_errs)
    again = per_layer_metrics(traces["B"], setup_trace, quad_errs)
    mismatches = [k for k in COUNT_METRICS if first[k] != again[k]]
    for k in mismatches:
        print(f"count {k} did not repeat: {first[k]} then {again[k]}", file=sys.stderr)
    metrics["trace.overhead_ratio"] = walls["A-unwrapped-too"] / walls["plain"]
    metrics["trace.count_mismatches"] = len(mismatches)
    table = {k: dict(zip(("unit", "better", "should_move", "on", "flat_on"), v))
             for k, v in LAYER_TABLE.items()}
    return {"metrics": metrics, "rows": rows, "walls_s": walls, "layer_table": table,
            "repeat_counts": {k: [first[k], again[k]] for k in COUNT_METRICS}}


def provenance(workload: str, seed: int | list[int], seconds: float, trace: int) -> dict:
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                 text=True, timeout=30)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    status = git("status", "--porcelain") if in_repo else None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permanental", "cli.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}; "
              "run from the root of a permanental checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner()
    try:
        if args.trace:
            result = traced_run(runner, args.workload, args.seed)
        else:
            result = timed_run(runner, args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    rows = result["rows"]
    failed = sum(r["status"] == "failed" for r in rows)
    refused = sum(r["status"] == "refused" for r in rows)
    for r in rows:
        if r["status"] == "failed":
            print(f"FAILED {r['job']}: {r['reason']}", file=sys.stderr)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
              "attempted": len(rows), "failed": failed, "refused": refused,
              "failed_ratio": (failed + refused) / len(rows), **result}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _print_table(args.workload, record, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


def _print_table(workload: str, record: dict, metrics: dict) -> None:
    rows = record["rows"]
    print(f"workload {workload}: {len(rows)} jobs, {record['refused']} refused at the "
          f"dimension wall, {record['failed']} failed")
    for name, m in metrics.items():
        label, unit = name, m["unit"]
        if name == "items_per_s":  # draws on the sampling workloads, lags on Levy
            label, unit = (("lags_per_s", "lags/s") if workload == "levy-kernel"
                           else ("draws_per_s", "draws/s"))
        print(f"  {label:<30} {m['value']:.6g} {unit}")
    print(f"  {'failed_ratio':<30} {record['failed_ratio']:.6g} ratio")


if __name__ == "__main__":
    sys.exit(main())
