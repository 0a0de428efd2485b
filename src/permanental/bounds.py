"""Diagonal bounds for M-matrix inverses and the sigma-metric machinery.

The increment quantity sigma2[i, j] = K_ii + K_jj - K_ij - K_ji plays the
role of the squared Gaussian increment; its minimum over pairs feeds both
the diagonal bounds and the Sudakov-style comparisons.  The rearranged
diagonal statistic (``psi_star``) is evaluated per point configuration;
the infimum over all configurations is not computable and is not attempted.
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
)
from .linalg import MMatrixPair, as_square_matrix, invert, validate_m_matrix

_NEG_SQ_TOL = 1e-12


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


def diag_bound_simple(pair: MMatrixPair) -> np.ndarray:
    """Per-row bounds A_ii <= 1 / (K_ii - max_{j != i} K_ji).

    Requires positive row sums of A and the columnwise domination
    K_ii > max_{j != i} K_ji.
    """
    if (pair.row_sums <= 0).any():
        row = int(np.argmin(pair.row_sums))
        raise HypothesisFailed(row, f"row sum {pair.row_sums[row]:.6g} not positive")
    K = pair.K
    n = pair.n
    col_max = np.where(np.eye(n, dtype=bool), -np.inf, K).max(axis=0)
    gaps = np.diag(K) - col_max
    if (gaps <= 0).any():
        row = int(np.argmin(gaps))
        raise HypothesisFailed(
            row, f"K[{row},{row}] does not exceed its column maximum"
        )
    bounds = 1.0 / gaps
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

    C is computed as the minimal constant in the scaled asymmetry condition
    and must come out below 1.
    """
    if k_hat <= 0:
        raise ValueError("K_hat must be positive")
    K = pair.K
    n = pair.n
    col_max = np.where(np.eye(n, dtype=bool), -np.inf, K).max(axis=0)
    if (np.diag(K) <= col_max).any():
        row = int(np.argmin(np.diag(K) - col_max))
        raise HypothesisFailed(row, "K_ii does not exceed its column maximum")
    r = np.diag(K) / k_hat
    scaled = K / r[None, :]
    sigma_hat2 = 2.0 * k_hat - scaled - scaled.T
    np.fill_diagonal(sigma_hat2, 0.0)
    asym = np.abs(scaled - scaled.T)
    off = ~np.eye(n, dtype=bool)
    if (sigma_hat2[off] <= 0).any():
        raise DegenerateSigma("scaled sigma^2 vanishes off the diagonal")
    c = float((asym[off] / sigma_hat2[off]).max())
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


@dataclass(frozen=True)
class PointConfig:
    """Finite point configuration and its pairwise kernel values."""

    points: tuple
    kernel_values: np.ndarray

    def __post_init__(self):
        kv = as_square_matrix(self.kernel_values)
        if kv.shape[0] != len(self.points) or len(self.points) < 2:
            raise ValueError("kernel_values must be square over >= 2 points")
        object.__setattr__(self, "kernel_values", kv)

    @property
    def n(self) -> int:
        return len(self.points)


def config_from_kernel_fn(kernel_fn, points) -> PointConfig:
    pts = tuple(points)
    kv = np.array([[float(kernel_fn(s, t)) for t in pts] for s in pts])
    return PointConfig(points=pts, kernel_values=kv)


def psi_star(config: PointConfig, p: int = 1, m_matrix_tol: float = 1e-10) -> float:
    """Rearranged-diagonal statistic for one configuration.

    Inverts the kernel matrix, validates the M-matrix property, sorts the
    diagonal of the inverse nondecreasing and returns entry [n/p].  The
    infimum over configurations is approximated by evaluating caller-chosen
    configurations.
    """
    if p < 1 or int(p) != p:
        raise ValueError("p must be an integer >= 1")
    n = config.n
    m = n // p
    if m < 1:
        raise ValueError(f"[n/p] = 0 for n = {n}, p = {p}")
    pair = validate_m_matrix(
        invert(config.kernel_values), off_diag_tol=m_matrix_tol, inverse_tol=m_matrix_tol
    )
    return float(np.sort(pair.diag_a)[m - 1])


@dataclass(frozen=True)
class ScanRow:
    delta: float
    n: int
    a_star: float | None
    log_n_over_a_star: float | None
    sigma_star2_log_n: float | None
    error: str | None


def unboundedness_statistic(kernel_fn, deltas, n_grid, p: int = 1,
                            m_matrix_tol: float = 1e-10) -> list[ScanRow]:
    """Diagnostic scan of log n / a*_{[n/p]} on equally spaced configurations.

    A diverging column is numerical evidence for the unboundedness
    criterion, never a proof; rows where the inverse is not an M-matrix
    report the failure instead of a value.
    """
    rows = []
    for delta in deltas:
        for n in n_grid:
            pts = [j * delta / n for j in range(1, n + 1)]
            config = config_from_kernel_fn(kernel_fn, pts)
            sm = sigma_matrix(config.kernel_values)
            logn = math.log(n)
            try:
                a_star = psi_star(config, p=p, m_matrix_tol=m_matrix_tol)
            except Exception as exc:  # noqa: BLE001 - reported per row
                rows.append(ScanRow(delta, n, None, None,
                                    sm.sigma_star2 * logn, f"{type(exc).__name__}: {exc}"))
                continue
            rows.append(
                ScanRow(
                    delta=delta,
                    n=n,
                    a_star=a_star,
                    log_n_over_a_star=logn / a_star,
                    sigma_star2_log_n=sm.sigma_star2 * logn,
                    error=None,
                )
            )
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
