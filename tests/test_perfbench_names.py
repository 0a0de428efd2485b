"""The traced benchmark finds the package's functions by name: every name it
wraps or groups into a per-layer metric must resolve, so that a rename in the
package fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(short: str, path: str):
    obj = importlib.import_module(f"permanental.{short}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


launcher = _load("launcher")


@pytest.mark.parametrize("short, path", launcher.EXTRA_TARGETS)
def test_launcher_extra_target_resolves(short, path):
    assert callable(_resolve(short, path))


def test_layer_metric_functions_resolve():
    for short in launcher.LAYER_MODULES:
        importlib.import_module(f"permanental.{short}")
    for names in _load("layers")._GROUPS.values():
        for name in names:
            short, _, path = name.partition(".")
            assert callable(_resolve(short, path)), name
