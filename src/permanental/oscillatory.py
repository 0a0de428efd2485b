"""Half-period lobe summation with Euler-type acceleration.

The Fourier-type integrals of ``levy`` have integrands decaying as slowly as
1/(lam log^c lam), so naive truncation at any affordable cutoff is the
dominant error source.  Past the exact range, the axis is partitioned at the
trig zeros (``lobe_boundaries``), each lobe of the surrogate integrand is
integrated on ``levy``'s Gauss-Legendre panels, and the alternating lobe sums
are accelerated by repeated averaging; the acceleration error is estimated
from the last two averaging depths.  Everything here is numpy only.
"""

from __future__ import annotations

import math

import numpy as np


def euler_accelerate(terms) -> tuple[float, float]:
    """Sum an (eventually) alternating series by repeated averaging.

    Returns (estimate, error_estimate); the estimate is the averaging depth
    whose final entry moved least relative to the previous depth.
    """
    t = np.asarray(terms, dtype=float)
    if t.size == 0:
        return 0.0, 0.0
    row = np.cumsum(t)
    best = float(row[-1])
    best_err = abs(float(t[-1]))
    prev_last = float(row[-1])
    for _ in range(min(t.size - 1, 80)):
        row = 0.5 * (row[:-1] + row[1:])
        last = float(row[-1])
        diff = abs(last - prev_last)
        if diff <= best_err:
            best_err = diff
            best = last
        prev_last = last
    return best, best_err


def lobe_boundaries(z: float, kind: str, count: int, start_index: int = 0) -> np.ndarray:
    """Boundaries of sign-constant half-period lobes of trig(lam*z).

    cos lobes run between odd multiples of pi/(2z); sin lobes between
    multiples of pi/z.  The first boundary is where the lobe sum starts.
    """
    if kind == "cos":
        return (2 * np.arange(start_index, start_index + count + 1) + 1) * math.pi / (2 * z)
    if kind == "sin":
        return (np.arange(start_index, start_index + count + 1) + 1) * math.pi / z
    raise ValueError(f"kind must be cos or sin, got {kind!r}")
