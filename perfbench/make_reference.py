"""Regenerate the stored Levy-kernel reference values.

    python3 perfbench/make_reference.py

Runs ``levy --kernel`` for every (model, step) job of the levy-kernel workload
and writes ``perfbench/reference/levy_kernels.json``.  The gate compares each
kernel entry with the stored one within ``quad_err + quad_err_ref``.  Run it
only on a commit whose Levy layer is trusted; it takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import LEVY_JOBS, LEVY_MODELS, LEVY_POINTS  # noqa: E402


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    refs = {}
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for model, h in LEVY_JOBS:
            label, model_args = LEVY_MODELS[model]
            pfile = os.path.join(tmp, "points.json")
            with open(pfile, "w") as fh:
                json.dump({"points": [j * h for j in range(LEVY_POINTS)]}, fh)
            out = subprocess.run(
                [sys.executable, "-m", "permanental.cli", "levy", *model_args,
                 "--kernel", pfile],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            obj = json.loads(out)
            refs[f"{label} h={h}"] = {"kernel": obj["kernel"]["rows"],
                                      "quad_err": obj["quad_err"]}
            print(label, h, obj["quad_err"], file=sys.stderr)
    path = os.path.join(HERE, "reference", "levy_kernels.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
