"""Run one ``permanental`` CLI job in a fresh process, optionally traced.

    python3 perfbench/launcher.py TRACE_FILE -- <cli arguments>
    python3 perfbench/launcher.py --no-wrap -- <cli arguments>

With a trace file, every public function of the package's layer modules is
wrapped before ``permanental.cli.main(argv)`` runs, together with a few
methods and private functions that the per-layer metrics need.  Names that
``from ... import`` copied into other modules are rebound as well, so a call
through ``cli.z_masses`` or ``levy.quad_careful`` is seen like a call through
the defining module.  Each call records a span (name, start, end, parent
span index); spans stay in memory and are written as JSON when the job ends.
``--no-wrap`` runs the same launcher without wrapping, for the overhead ratio.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYER_MODULES = ("matio", "markov", "linalg", "model", "sampler", "gamma_tails",
                 "bounds", "levy", "oscillatory")
# (module, attribute path) wrapped in addition to the public functions
EXTRA_TARGETS = (
    ("cli", "main"),
    ("model", "_z_masses_to_order"),
    ("model", "ZDistribution.extended"),
    ("levy", "SpectralFns.__init__"),
)


class Tracer:
    """In-memory span recorder; single-threaded, as jobs run with one worker."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.args: dict[str, list] = {"bundle_z": [], "grid_points": [],
                                      "series_orders": [], "draws": []}

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def count(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # argument recorders for the count metrics -------------------------------
    def _after(self, name: str):
        a = self.args
        if name == "levy.potential_bundle":
            return lambda args, kw, out: a["bundle_z"].append(abs(float(args[1])))
        if name == "model._z_masses_to_order":
            return lambda args, kw, out: a["grid_points"].append(
                (int(args[1]) + 1) ** args[0].n)
        if name == "model.series_laplace_report":
            return lambda args, kw, out: a["series_orders"].append(out.orders_used)
        if name == "sampler.sample_permanental":
            return lambda args, kw, out: a["draws"].append(int(args[1]))
        return None

    def install(self) -> None:
        import scipy.integrate

        import permanental.cli  # noqa: F401 - loads every layer module

        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "permanental" or name.startswith("permanental.")}
        replaced = {}
        for short in LAYER_MODULES:
            mod = pkg[f"permanental.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    name = f"{short}.{attr}"
                    replaced[obj] = self.wrap(name, obj, self._after(name))
        for short, path in EXTRA_TARGETS:
            mod = pkg[f"permanental.{short}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, attr)
            wrapped = replaced.get(fn) or self.wrap(f"{short}.{path}", fn,
                                                    self._after(f"{short}.{path}"))
            if owner_name:
                setattr(owner, attr, wrapped)
            else:
                replaced[fn] = wrapped
        # rebind every module-level name bound to a wrapped function
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        scipy.integrate.quad = self.count("quad", scipy.integrate.quad)

    def dump(self, path: str, import_s: float, exit_code: int) -> None:
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "exit_code": exit_code, "spans": self.spans,
                       "counts": self.counts, "args": self.args}, fh)


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    trace_file = None if opts == ["--no-wrap"] else opts[0]
    t0 = time.perf_counter()
    import permanental.cli as cli
    import_s = time.perf_counter() - t0
    if trace_file is None:
        return cli.main(cli_args)
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(trace_file, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
