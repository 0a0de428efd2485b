"""Valid permanental kernels as Green functions of finite transient chains.

Discrete-time substochastic chains stand in for the continuous-time
processes: the Green function K = (I - P)^{-1} is entrywise nonnegative
with inverse I - P, a nonsingular M-matrix with nonnegative row sums.
This module is the test-corpus factory for the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotTransient, PermanentalError
from .linalg import SIGN_TOL, as_square_matrix, invert, spectral_radius_nonneg, validate_m_matrix

_ROW_SUM_TOL = 1e-12
_RADIUS_CEILING = 1.0 - 1e-9


@dataclass(frozen=True)
class TransientChain:
    """Substochastic transition matrix with spectral radius below 1."""

    P: np.ndarray
    radius: float = field(init=False)

    def __post_init__(self):
        P = as_square_matrix(self.P)
        if P.size == 0:
            raise NotTransient("empty chain")
        if P.min() < 0:
            raise NotTransient("negative transition probability")
        sums = P.sum(axis=1)
        if sums.max() > 1.0 + _ROW_SUM_TOL:
            i = int(np.argmax(sums))
            raise NotTransient(f"row {i} sums to {sums[i]:.12g} > 1")
        radius = spectral_radius_nonneg(P)
        if radius >= _RADIUS_CEILING:
            raise NotTransient(f"spectral radius {radius:.12g} not below 1")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "radius", float(radius))

    @property
    def n(self) -> int:
        return self.P.shape[0]


def green_kernel(chain: TransientChain) -> np.ndarray:
    """Green function K = (I - P)^{-1}; entrywise >= 0 with diagonal >= 1."""
    K = invert(np.eye(chain.n) - chain.P)
    # rounding can leave tiny negatives in an exactly nonnegative inverse
    return np.where(K < 0, 0.0, K)


@dataclass(frozen=True)
class AppendixReport:
    """Executable form of the Green-kernel lemma: K^{-1} is a nonsingular
    M-matrix; row-sum positivity is reported exactly rather than asserted."""

    passed: bool
    reason: str
    row_sums: np.ndarray | None
    positive_row_sums: bool
    column_dominated: bool


def validate_appendix_lemma(k) -> AppendixReport:
    """Check that the inverse of ``k`` is a nonsingular M-matrix, report its
    row sums and whether K_ij <= K_jj holds columnwise.  The sign decisions,
    the row sums' and the column domination's included, all read
    linalg.SIGN_TOL."""
    K = as_square_matrix(k)
    column_dominated = bool((K <= np.diag(K)[None, :] + SIGN_TOL).all())
    try:
        pair = validate_m_matrix(kernel=K)
    except PermanentalError as exc:  # the report carries the reason
        return AppendixReport(
            passed=False,
            reason=str(exc),
            row_sums=None,
            positive_row_sums=False,
            column_dominated=column_dominated,
        )
    row_sums = pair.row_sums
    return AppendixReport(
        passed=True,
        reason="",
        row_sums=row_sums,
        positive_row_sums=bool((row_sums > SIGN_TOL).all()),
        column_dominated=column_dominated,
    )


def random_transient_chain(n: int, kill_min: float, seed: int) -> TransientChain:
    """Random substochastic matrix: rows normalized, then scaled by
    (1 - kill_i) with kill_i uniform on [kill_min, 1)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    if not 0.0 < kill_min < 1.0:
        raise ValueError("kill_min must lie in (0, 1)")
    g = np.random.default_rng([int(seed), 9090])
    raw = g.random((n, n))
    raw /= raw.sum(axis=1, keepdims=True)
    kill = kill_min + (1.0 - kill_min) * g.random(n)
    return TransientChain(raw * (1.0 - kill)[:, None])
