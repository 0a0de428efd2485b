"""Repeat the benchmark over seeds and summarize every metric.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --workloads levy-kernel --seeds 1-5 --trace 1

Runs ``run.py`` once per workload and seed (``--seconds`` defaults to
BENCHMARK.json's ``run_seconds``), prints each metric by name with its unit,
median, quartiles and quartile spread as a share of the median, next to the
metric's bound, and writes a record with provenance and every run's value to
``perfbench/results/collect-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import RESULTS, provenance  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    seeds = _seeds(args.seeds)
    worst = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return out.returncode
            result = json.loads(out.stdout.splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            if not result["correct"]:
                worst = 1
                print(f"{workload} seed {seed}: incorrect output\n{out.stderr}",
                      file=sys.stderr)
        summary = {}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)}")
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else values * 3)
            spread = (q3 - q1) / med if med else float("nan")
            summary[m["name"]] = {"unit": m["unit"], "values": values, "median": med,
                                  "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m.get("bound")}
            bound = f"bound {m['bound']:g}" if "bound" in m else ""
            print(f"  {m['name']:<30} {med:<12.6g} {m['unit']:<8} q1 {q1:<10.6g} "
                  f"q3 {q3:<10.6g} spread {spread:.4f} {bound}")
        record = {"provenance": provenance(workload, seeds, seconds, args.trace),
                  "seeds": seeds, "runs": len(runs), "results": runs, "summary": summary}
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"collect-{workload}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
