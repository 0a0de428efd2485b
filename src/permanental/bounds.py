"""Diagonal bounds for M-matrix inverses and the sigma-metric machinery.

The increment quantity sigma2[i, j] = K_ii + K_jj - K_ij - K_ji plays the
role of the squared Gaussian increment; its minimum over pairs feeds both
the diagonal bounds and the Sudakov-style comparisons.  Each statistic
forms sigma2 and the asymmetry |K - K^T| together, at most once per call
(``_increments``).  The diagonal bounds, the Sudakov comparison and the
rearranged diagonal statistic ``psi_star`` (entry [n/p] of the sorted
diagonal of A) read one validated ``MMatrixPair`` (A, K = A^-1) and invert
nothing.  The scan evaluates ``psi_star`` on caller-chosen configurations;
the infimum over all configurations is not computable and is not
attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryTooLarge,
    DegenerateSigma,
    HypothesisFailed,
    NotConstantDiagonal,
    NotSymmetric,
    OutOfRange,
    PermanentalError,
)
from .linalg import SIGN_TOL, MMatrixPair, as_square_matrix, validate_m_matrix


def _increments(K: np.ndarray, normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """sigma2[i, j] = K_ii + K_jj - K_ij - K_ji, +inf on the diagonal, and
    |K - K^T|.  With ``normalized`` both are formed from K divided columnwise
    by its diagonal (the ratio form used when the diagonal is not constant),
    where sigma2 = 2 - K_ij / K_jj - K_ji / K_ii."""
    if K.shape[0] < 2:
        raise ValueError("needs at least two points")
    d = np.diag(K)
    if normalized:
        if (d <= 0).any():
            raise ValueError("normalized form needs a positive diagonal")
        K = K / d[None, :]
        sigma2 = 2.0 - K - K.T
    else:
        sigma2 = d[:, None] + d[None, :] - K - K.T
    np.fill_diagonal(sigma2, np.inf)
    return sigma2, np.abs(K - K.T)


def _min_asymmetry(sigma2: np.ndarray, asym: np.ndarray) -> float:
    """Minimal C with asym <= C sigma2 off the diagonal (0 on it, where
    sigma2 is +inf)."""
    if (asym[sigma2 <= 0] > 1e-14).any():
        raise DegenerateSigma("sigma^2 vanishes for a pair with nonzero asymmetry")
    good = sigma2 > 0
    return float((asym[good] / sigma2[good]).max())


def _admissible_c(sigma2: np.ndarray, asym: np.ndarray) -> float:
    """The minimal asymmetry constant C, refused unless it is below 1."""
    c = _min_asymmetry(sigma2, asym)
    if c >= 1.0:
        raise AsymmetryTooLarge(f"asymmetry condition needs C >= {c:.6g}, but C < 1 is required")
    return c


@dataclass(frozen=True)
class SigmaMatrix:
    """sigma2[i, j] = K_ii + K_jj - K_ij - K_ji (+inf on the diagonal) and
    its minimum."""

    sigma2: np.ndarray
    sigma_star2: float

    @property
    def sudakov_bound(self) -> float:
        """2 / sigma_star2, the Sudakov-style diagonal bound."""
        return 2.0 / self.sigma_star2


def sigma_matrix(k) -> SigmaMatrix:
    """Increment matrix of a kernel and its minimum over i != j; a negative
    minimum is returned, not rejected."""
    sigma2, _ = _increments(as_square_matrix(k))
    return SigmaMatrix(sigma2=sigma2, sigma_star2=float(sigma2.min()))


def _column_gaps(K: np.ndarray) -> np.ndarray:
    """K_ii - max_{j != i} K_ji for every column i, all of which must be
    positive (the columnwise domination hypothesis): above linalg.SIGN_TOL,
    at or below which a sign is rounding noise."""
    n = K.shape[0]
    if n < 2:
        raise OutOfRange(f"column domination needs at least 2 points, got n = {n}")
    gaps = np.diag(K) - np.where(np.eye(n, dtype=bool), -np.inf, K).max(axis=0)
    if (gaps <= SIGN_TOL).any():
        row = int(np.argmin(gaps))
        raise HypothesisFailed(f"K[{row},{row}] does not exceed its column maximum")
    return gaps


def diag_bound_simple(pair: MMatrixPair) -> np.ndarray:
    """Per-row bounds A_ii <= 1 / (K_ii - max_{j != i} K_ji).

    Requires positive row sums of A and the columnwise domination
    K_ii > max_{j != i} K_ji, each above linalg.SIGN_TOL, as
    ``markov.validate_appendix_lemma`` decides its row sums.
    """
    if (pair.row_sums <= SIGN_TOL).any():
        row = int(np.argmin(pair.row_sums))
        raise HypothesisFailed(f"row sum of A[{row},:] = {pair.row_sums[row]:.6g} is not positive")
    bounds = 1.0 / _column_gaps(pair.K)
    assert (pair.diag_a <= bounds * (1 + 1e-12)).all(), "diagonal bound violated"
    return bounds


def diag_bound_sigma(pair: MMatrixPair) -> tuple[float, float]:
    """(C, bound) with A_ii <= bound = 2 / ((1-C) sigma_star2), for
    constant-diagonal kernels, where C is the minimal constant with
    |K_ij - K_ji| <= C sigma2_ij (the tightest bound), which must come out
    below 1.
    """
    K = pair.K
    d = np.diag(K)
    if not np.allclose(d, d[0], rtol=1e-10, atol=1e-12 * max(1.0, abs(d[0]))):
        raise NotConstantDiagonal(f"kernel diagonal varies: {d}")
    sigma2, asym = _increments(K)
    c = _admissible_c(sigma2, asym)
    bound = 2.0 / ((1.0 - c) * float(sigma2.min()))
    assert (pair.diag_a <= bound * (1 + 1e-12)).all(), "diagonal bound violated"
    return c, bound


def diag_bound_scaled(pair: MMatrixPair) -> np.ndarray:
    """Per-row bounds A_ii <= 2 / ((1-C) min sigma2_hat K_ii), where sigma2_hat
    are the increments of K divided columnwise by its diagonal (the paper's
    scale K_hat cancels) and C is the minimal constant with
    |K_hat_ij - K_hat_ji| <= C sigma2_hat_ij, which must come out below 1.
    """
    K = pair.K
    _column_gaps(K)
    sigma2, asym = _increments(K, normalized=True)
    if (sigma2 <= 0).any():
        raise DegenerateSigma("scaled sigma^2 vanishes off the diagonal")
    c = _admissible_c(sigma2, asym)
    bounds = 2.0 / ((1.0 - c) * float(sigma2.min()) * np.diag(K))
    assert (pair.diag_a <= bounds * (1 + 1e-12)).all(), "scaled diagonal bound violated"
    return bounds


def _check_p(p: int, n: int) -> None:
    """[n/p] >= 1 needs an integer p from 1 to n."""
    if not (int(p) == p and 1 <= p <= n):
        raise OutOfRange(f"p must be an integer from 1 to n = {n}, got {p}")


def psi_star(pair: MMatrixPair, p: int = 1) -> float:
    """Rearranged-diagonal statistic: entry [n/p] of the diagonal of A,
    sorted nondecreasing."""
    _check_p(p, pair.n)
    return float(np.sort(pair.diag_a)[pair.n // int(p) - 1])


@dataclass(frozen=True)
class ScanRow:
    delta: float
    n: int
    psi_star: float | None
    log_n_over_psi_star: float | None
    sigma_star2_log_n: float | None
    error: str | None


def unboundedness_statistic(kernel, delta: float, n_grid, p: int = 1) -> list[ScanRow]:
    """Diagnostic scan of log n / psi_star (``psi_star(pair, p)``, entry [n/p]
    of the sorted diagonal of A) on the points j delta / n, j = 1..n.

    ``kernel(t)`` takes the array t of points and returns the matrix
    K[i, j] = K(t_i, t_j).  A diverging column is numerical evidence for the
    unboundedness criterion, never a proof; rows where the inverse is not an
    M-matrix report the failure instead of a value.
    """
    _check_p(p, min(n_grid))
    rows = []
    for n in n_grid:
        K = kernel(np.arange(1, n + 1) * delta / n)
        logn = math.log(n)
        star2_log_n = sigma_matrix(K).sigma_star2 * logn
        try:
            pair = validate_m_matrix(kernel=K)
        except PermanentalError as exc:  # reported per row
            rows.append(ScanRow(delta, n, None, None, star2_log_n,
                                f"{type(exc).__name__}: {exc}"))
            continue
        star = psi_star(pair, p)
        rows.append(ScanRow(delta, n, star, logn / star, star2_log_n, None))
    return rows


@dataclass(frozen=True)
class SudakovReport:
    max_diag_a: float
    sigma_star2: float
    sudakov_bound: float
    stronger: str


def sudakov_compare(pair: MMatrixPair) -> SudakovReport:
    """Compare the permanental lower bound (via max A_ii) with the
    Sudakov-style bound 2/sigma_star2 for a symmetric positive definite kernel."""
    K = pair.K
    scale = max(1.0, float(np.abs(K).max()))
    if np.abs(K - K.T).max() > 1e-10 * scale:
        raise NotSymmetric("kernel is not symmetric")
    if (np.linalg.eigvalsh((K + K.T) / 2) <= 0).any():
        raise NotSymmetric("kernel is not positive definite")
    sm = sigma_matrix(K)
    max_a = float(pair.diag_a.max())
    if max_a < sm.sudakov_bound * (1 - 1e-12):
        stronger = "permanental"
    elif max_a > sm.sudakov_bound * (1 + 1e-12):
        stronger = "sudakov"
    else:
        stronger = "tie"
    return SudakovReport(
        max_diag_a=max_a,
        sigma_star2=sm.sigma_star2,
        sudakov_bound=sm.sudakov_bound,
        stronger=stronger,
    )
