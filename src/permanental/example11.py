"""The boundedness rule of Example 1.1 for the log-power jump family, and the
parameter checks that the family's models share.

The jump measure has density x^{-2} (log 1/|x|)^gamma (log log 1/|x|)^delta
with sign weights p, q.  This module is pure ``math``: the ``classify``
command runs on it alone, without numpy or the numerical layer in ``levy``.
"""

from __future__ import annotations

import math

from .errors import OutOfRange

UNBOUNDED_THM = "unbounded-by-Thm1.6"
UNBOUNDED_DISCUSSION = "unbounded-per-paper-discussion"
BOUNDED_DISCUSSION = "bounded-per-paper-discussion"
INDETERMINATE = "indeterminate-by-this-paper"


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise OutOfRange(f"{name} must be finite, got {value}")


def _check_weights(p: float, q: float) -> None:
    """The jump-sign weights: p, q >= 0 with p + q = 1 (NaN fails)."""
    if not (p >= 0.0 and q >= 0.0 and abs(p + q - 1.0) <= 1e-12):
        raise OutOfRange(f"need p, q >= 0 with p + q = 1, got p = {p}, q = {q}")


def classify_example11(gamma: float, delta: float, p: float, q: float) -> str:
    """Boundedness verdict for the log-power jump family."""
    _check_weights(p, q)
    _check_finite(gamma=gamma, delta=delta)
    if p != q:
        if gamma <= -1.0:
            raise OutOfRange("p != q needs gamma > -1")
        pivot = 0.0
    else:
        if gamma <= 1.0:
            raise OutOfRange("p = q needs gamma > 1")
        pivot = 2.0
    if gamma < pivot:
        return UNBOUNDED_THM
    if gamma == pivot:
        if delta < 0:
            return UNBOUNDED_THM
        if delta <= 2:
            return UNBOUNDED_DISCUSSION
        return BOUNDED_DISCUSSION
    return INDETERMINATE
