"""Diagonal bounds for M-matrix inverses and the sigma-metric machinery.

The increment quantity sigma2[i, j] = K_ii + K_jj - K_ij - K_ji plays the
role of the squared Gaussian increment; its minimum over pairs feeds both
the diagonal bounds and the Sudakov-style comparisons.  The diagonal
bounds, the Sudakov comparison and the rearranged diagonal statistic
``psi_star`` (entry [n/p] of the sorted diagonal of A) read one validated
``MMatrixPair`` (A, K = A^-1) and invert nothing.  The scan evaluates
``psi_star`` on caller-chosen configurations; the infimum over all
configurations is not computable and is not attempted.
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
from .linalg import MMatrixPair, as_square_matrix, invert, validate_m_matrix

_NEG_SQ_TOL = 1e-12
# M-matrix tolerances (off-diagonal and inverse) of each scanned kernel's inverse
_SCAN_TOL = 1e-10


@dataclass(frozen=True)
class SigmaMatrix:
    """sigma2[i, j] = K_ii + K_jj - K_ij - K_ji with its minimum over i != j."""

    sigma2: np.ndarray
    sigma_star2: float
    argmin: tuple[int, int]
    negative_square: bool

    @property
    def sudakov_bound(self) -> float:
        """2 / sigma_star2, the Sudakov-style diagonal bound."""
        return 2.0 / self.sigma_star2


def sigma_matrix(k) -> SigmaMatrix:
    """Increment matrix of a kernel; flags (does not reject) negative squares."""
    K = as_square_matrix(k)
    n = K.shape[0]
    if n < 2:
        raise ValueError("needs at least two points")
    d = np.diag(K)
    sigma2 = d[:, None] + d[None, :] - K - K.T
    np.fill_diagonal(sigma2, 0.0)
    off = ~np.eye(n, dtype=bool)
    flat = np.where(off, sigma2, np.inf)
    i, j = np.unravel_index(int(np.argmin(flat)), sigma2.shape)
    return SigmaMatrix(
        sigma2=sigma2,
        sigma_star2=float(sigma2[i, j]),
        argmin=(int(i), int(j)),
        negative_square=bool(sigma2[off].min() < -_NEG_SQ_TOL),
    )


def _column_gaps(K: np.ndarray) -> np.ndarray:
    """K_ii - max_{j != i} K_ji for every column i, all of which must be
    positive (the columnwise domination hypothesis)."""
    n = K.shape[0]
    if n < 2:
        raise OutOfRange(f"column domination needs at least 2 points, got n = {n}")
    gaps = np.diag(K) - np.where(np.eye(n, dtype=bool), -np.inf, K).max(axis=0)
    if (gaps <= 0).any():
        row = int(np.argmin(gaps))
        raise HypothesisFailed(
            row, f"K[{row},{row}] does not exceed its column maximum"
        )
    return gaps


def diag_bound_simple(pair: MMatrixPair) -> np.ndarray:
    """Per-row bounds A_ii <= 1 / (K_ii - max_{j != i} K_ji).

    Requires positive row sums of A and the columnwise domination
    K_ii > max_{j != i} K_ji.
    """
    if (pair.row_sums <= 0).any():
        row = int(np.argmin(pair.row_sums))
        raise HypothesisFailed(row, f"row sum {pair.row_sums[row]:.6g} not positive")
    bounds = 1.0 / _column_gaps(pair.K)
    assert (pair.diag_a <= bounds * (1 + 1e-12)).all(), "diagonal bound violated"
    return bounds


def diag_bound_sigma(pair: MMatrixPair, c: float) -> float:
    """Scalar bound A_ii <= 2 / ((1-C) sigma_star2) for constant-diagonal kernels.

    The supplied C must satisfy |K_ij - K_ji| <= C sigma2_ij with C < 1;
    otherwise the minimal feasible C is reported.
    """
    K = pair.K
    d = np.diag(K)
    if not np.allclose(d, d[0], rtol=1e-10, atol=1e-12 * max(1.0, abs(d[0]))):
        raise NotConstantDiagonal(f"kernel diagonal varies: {d}")
    if not 0.0 <= c < 1.0:
        raise ValueError("need 0 <= C < 1")
    min_c = asymmetry_constant(K)
    # inverses computed in floating point carry harmless asymmetry noise
    if min_c > c + 1e-10:
        raise AsymmetryTooLarge(min_c)
    sm = sigma_matrix(K)
    bound = 2.0 / ((1.0 - c) * sm.sigma_star2)
    assert (pair.diag_a <= bound * (1 + 1e-12)).all(), "diagonal bound violated"
    return bound


def diag_bound_scaled(pair: MMatrixPair, k_hat: float) -> np.ndarray:
    """Per-row bounds A_ii <= 2 / (r_i (1-C) sigma_hat_star2) with r_i = K_ii / K_hat.

    C is ``asymmetry_constant(K, normalized=True)``, the minimal constant in
    the scaled asymmetry condition, and must come out below 1.
    """
    if k_hat <= 0:
        raise ValueError("K_hat must be positive")
    K = pair.K
    _column_gaps(K)
    r = np.diag(K) / k_hat
    scaled = K / r[None, :]
    sigma_hat2 = 2.0 * k_hat - scaled - scaled.T
    off = ~np.eye(pair.n, dtype=bool)
    if (sigma_hat2[off] <= 0).any():
        raise DegenerateSigma("scaled sigma^2 vanishes off the diagonal")
    c = asymmetry_constant(K, normalized=True)
    if c >= 1.0:
        raise AsymmetryTooLarge(c)
    star2 = float(sigma_hat2[off].min())
    bounds = 2.0 / ((1.0 - c) * star2 * r)
    assert (pair.diag_a <= bounds * (1 + 1e-12)).all(), "scaled diagonal bound violated"
    return bounds


def asymmetry_constant(k, normalized: bool = False) -> float:
    """Minimal C with |K_ij - K_ji| <= C sigma2_ij over i != j.

    With ``normalized`` the entries are first divided columnwise by the
    kernel diagonal (the ratio form used when the diagonal is not constant).
    """
    K = as_square_matrix(k)
    n = K.shape[0]
    if n < 2:
        raise ValueError("needs at least two points")
    if normalized:
        d = np.diag(K)
        if (d <= 0).any():
            raise ValueError("normalized form needs a positive diagonal")
        M = K / d[None, :]
        sigma2 = 2.0 - M - M.T
    else:
        M = K
        d = np.diag(K)
        sigma2 = d[:, None] + d[None, :] - M - M.T
    asym = np.abs(M - M.T)
    off = ~np.eye(n, dtype=bool)
    degenerate = off & (sigma2 <= 0)
    if (asym[degenerate] > 1e-14).any():
        raise DegenerateSigma("sigma^2 vanishes for a pair with nonzero asymmetry")
    good = off & (sigma2 > 0)
    if not good.any():
        return 0.0
    return float((asym[good] / sigma2[good]).max())


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
    a_star: float | None
    log_n_over_a_star: float | None
    sigma_star2_log_n: float | None
    error: str | None


def unboundedness_statistic(kernel_fn, delta: float, n_grid, p: int = 1) -> list[ScanRow]:
    """Diagnostic scan of log n / a*_{[n/p]} on the points j delta / n, j = 1..n.

    A diverging column is numerical evidence for the unboundedness
    criterion, never a proof; rows where the inverse is not an M-matrix
    report the failure instead of a value.
    """
    _check_p(p, min(n_grid))
    rows = []
    for n in n_grid:
        pts = [j * delta / n for j in range(1, n + 1)]
        K = np.array([[float(kernel_fn(s, t)) for t in pts] for s in pts])
        logn = math.log(n)
        star2_log_n = sigma_matrix(K).sigma_star2 * logn
        try:
            pair = validate_m_matrix(invert(K), off_diag_tol=_SCAN_TOL, inverse_tol=_SCAN_TOL)
        except PermanentalError as exc:  # reported per row
            rows.append(ScanRow(delta, n, None, None, star2_log_n,
                                f"{type(exc).__name__}: {exc}"))
            continue
        a_star = psi_star(pair, p)
        rows.append(ScanRow(delta, n, a_star, logn / a_star, star2_log_n, None))
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
