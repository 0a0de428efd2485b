"""Alpha-permanental random vectors with M-matrix kernels.

A library and CLI for computing, sampling and verifying alpha-permanental
random vectors whose kernel inverse is a nonsingular M-matrix, and for
numerically probing unboundedness criteria of the associated processes,
including kernels built from Levy-process potential densities.

The layer modules are registered in ``sys.modules`` at import but execute on
first attribute access (``importlib.util.LazyLoader``), so a command runs only
the modules it touches.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(short: str):
    name = f"{__name__}.{short}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)  # defers execution to the first attribute access
    return module


(bounds, example11, gamma_tails, levy, linalg, markov, matio, model, oscillatory,
 sampler) = map(_lazy, ("bounds", "example11", "gamma_tails", "levy", "linalg", "markov",
                        "matio", "model", "oscillatory", "sampler"))

