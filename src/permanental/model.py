"""Laplace transforms of alpha-permanental vectors and the mixing law of Z.

Two equivalent evaluations are provided: the determinant form
``|A|^alpha / |A+S|^alpha`` and the alpha-permanent series obtained from
the D - B splitting of A.  The series is summed order by order with a
certified Chernoff tail bound, which also normalizes the mixing
distribution of the latent index vector Z.  Per series matrix B~ = D^-1 B
the bound comes from one Perron root and one batched ``slogdet`` over a
fixed t grid, as a table over all truncation orders.

The enumeration of the Z law serves ``z-dist`` and the tests only: the
sampler draws Z from the loop soup, and E f(X) is a ``Moments`` mean over
``sampler.sample_chunks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, TruncationInfeasible
from .linalg import (
    MMatrixPair,
    as_square_matrix,
    invert,
    spectral_radius_nonneg,
    validate_m_matrix,
)

# Roots-of-unity grids beyond this many points are refused outright.
GRID_CAP = 40_000_000
# Above this Perron root no truncation order can be certified at double precision.
RHO_CEILING = 1.0 - 1e-6
_MAX_ORDER = 400
# Grid points per batch of complex n x n determinants: bounds the transient
# memory of the coefficient grid (the matrices and det's copy of them).
_GRID_CHUNK = 16_384


@dataclass(frozen=True)
class PermanentalSpec:
    """A validated M-matrix pair together with the index alpha > 0."""

    pair: MMatrixPair
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def n(self) -> int:
        return self.pair.n

    @classmethod
    def from_m_matrix(cls, a, alpha: float) -> "PermanentalSpec":
        return cls(validate_m_matrix(a), float(alpha))

    @classmethod
    def from_kernel(cls, k, alpha: float) -> "PermanentalSpec":
        return cls(validate_m_matrix(invert(as_square_matrix(k))), float(alpha))


def _as_s_vector(s, n: int) -> np.ndarray:
    v = np.asarray(s, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"s must have length {n}, got {v.shape}")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ValueError("s must be finite and nonnegative")
    return v


def direct_laplace(spec: PermanentalSpec, s) -> float:
    """E exp(-<s, X>) = |A|^alpha / |A+S|^alpha, evaluated via slogdet."""
    sv = _as_s_vector(s, spec.n)
    sign_a, logdet_a = np.linalg.slogdet(spec.pair.A)
    sign_s, logdet_s = np.linalg.slogdet(spec.pair.A + np.diag(sv))
    if sign_a <= 0 or sign_s <= 0:
        raise ValueError("nonpositive determinant; pair is not a valid M-matrix")
    return math.exp(spec.alpha * (logdet_a - logdet_s))


def compositions(total: int, n: int):
    """Multi-indices k in N^n with |k| = total, in lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, n - 1):
            yield (first,) + rest


def _log_tail_bounds(
    b_tilde: np.ndarray, alpha: float, rho: float, max_order: int
) -> np.ndarray:
    """log upper bounds on sum_{|k| > order} |B~(k)|_alpha / k!, order = 0..max_order.

    All series coefficients are nonnegative, so for any 1 < t < 1/rho the
    tail is at most t^{-(order+1)} det(I - t B~)^{-alpha}; each order takes
    the minimum over one log-spaced t grid, whose determinants are one
    batched slogdet.
    """
    orders = np.arange(max_order + 1.0)
    if rho <= 0.0:
        return np.full(orders.size, -math.inf)
    if rho >= 1.0:
        return np.full(orders.size, math.inf)
    t = np.geomspace(1.0 + 1e-9, (1.0 / rho) * (1.0 - 1e-9), 64)
    sign, logdet = np.linalg.slogdet(np.eye(b_tilde.shape[0]) - t[:, None, None] * b_tilde)
    t, logdet = t[sign > 0], logdet[sign > 0]
    bounds = -alpha * logdet - (orders[:, None] + 1.0) * np.log(t)
    return bounds.min(axis=1, initial=math.inf)


def _series_coefficients_box(
    b_tilde: np.ndarray, alpha: float, order: int, rho: float
) -> np.ndarray:
    """Coefficients F_k = |B~(k)|_alpha / k! for all k in {0..order}^n.

    Extracts Taylor coefficients of det(I - Z B~)^{-alpha} by evaluating it
    on the (order+1)-st roots-of-unity grid and applying an n-dimensional
    FFT.  At radius 1 the aliased mass is exactly the out-of-box mass,
    which the caller's tail certificate already covers.  ``rho`` is the
    Perron root of B~.
    """
    n = b_tilde.shape[0]
    N = order + 1
    total = N**n
    if total > GRID_CAP:
        raise DimensionTooLarge(
            f"coefficient grid {N}^{n} = {total} exceeds cap {GRID_CAP}"
        )
    # principal branch of det^? is the analytic continuation only while the
    # accumulated argument cannot wrap; otherwise fall back to eigenvalues
    principal_ok = n * math.asin(min(rho, 1.0)) < 0.999 * math.pi
    omega = np.exp(2j * np.pi * np.arange(N) / N)
    eye = np.eye(n, dtype=complex)
    flat = np.empty(total, dtype=complex)
    chunk = min(_GRID_CHUNK, total)
    shape = (N,) * n
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        digits = np.unravel_index(np.arange(start, stop), shape)
        z = omega[np.stack(digits, axis=1)]
        mats = eye[None, :, :] - z[:, :, None] * b_tilde[None, :, :]
        if principal_ok:
            flat[start:stop] = np.linalg.det(mats) ** (-alpha)
        else:
            mu = np.linalg.eigvals(mats - eye[None, :, :]) + 1.0
            flat[start:stop] = np.exp(-alpha * np.log(mu).sum(axis=-1))
    coeffs = np.fft.fftn(flat.reshape(shape)) / total
    return np.ascontiguousarray(coeffs.real)


def _b_tilde(pair: MMatrixPair, s: np.ndarray | None = None) -> np.ndarray:
    scale = pair.diag_a if s is None else pair.diag_a + s
    return pair.B / scale[:, None]


@dataclass
class ZDistribution:
    """Masses of the latent index vector Z, enumerated in graded order.

    ``masses`` holds multi-indices by increasing order (lexicographic within
    an order).  ``covered_mass + tail_bound`` certifies the normalization.
    Each mass carries a nonnegative alias bias bounded by ``tail_bound``, so
    tight targets give tight per-mass accuracy.
    """

    spec: PermanentalSpec
    masses: dict[tuple[int, ...], float]
    covered_mass: float
    tail_bound: float
    max_order: int

    # perfbench/launcher.py traces this method by name
    def extended(self, extra_orders: int = 1) -> "ZDistribution":
        """Re-enumerate with a deeper truncation order."""
        return _z_masses_to_order(self.spec, self.max_order + extra_orders)


def _series_parts(spec: PermanentalSpec, sv: np.ndarray | None = None,
                  max_order: int = _MAX_ORDER):
    """B~ = (D + S)^-1 B, its Perron root, the prefactor |A|^alpha / |D + S|^alpha
    and the log tail bounds for orders 0..max_order; S = 0 when ``sv`` is None."""
    bt = _b_tilde(spec.pair, sv)
    rho = spectral_radius_nonneg(bt)
    sign, logdet_a = np.linalg.slogdet(spec.pair.A)
    if sign <= 0:
        raise ValueError("nonpositive determinant")
    scale = spec.pair.diag_a if sv is None else spec.pair.diag_a + sv
    pref = math.exp(spec.alpha * (logdet_a - np.log(scale).sum()))
    return bt, rho, pref, _log_tail_bounds(bt, spec.alpha, rho, max_order)


def _z_masses_to_order(spec: PermanentalSpec, order: int, parts=None) -> ZDistribution:
    """Masses up to ``order``; ``parts`` is ``_series_parts(spec, max_order=m)``
    for some m >= order when the caller has it already."""
    bt, rho, pref, log_tails = parts or _series_parts(spec, max_order=order)
    coeffs = _series_coefficients_box(bt, spec.alpha, order, rho)
    masses = {k: pref * max(float(coeffs[k]), 0.0)
              for j in range(order + 1) for k in compositions(j, spec.n)}
    covered = float(np.sum(list(masses.values())))
    tail = pref * math.exp(log_tails[order])
    return ZDistribution(
        spec=spec,
        masses=masses,
        covered_mass=covered,
        tail_bound=tail,
        max_order=order,
    )


def z_masses(spec: PermanentalSpec, target_mass: float) -> ZDistribution:
    """Enumerate Z masses to the lowest order whose certified tail bound
    is at most 1 - target_mass (hence covered mass >= target_mass)."""
    if not 0.0 < target_mass < 1.0 - 1e-12:
        raise ValueError("target_mass must lie in (0, 1 - 1e-12)")
    parts = _series_parts(spec)
    _, rho, pref, log_tails = parts
    if rho >= RHO_CEILING:
        raise TruncationInfeasible(
            f"Perron root {rho:.8f} too close to 1; no order can be certified"
        )
    certified = np.flatnonzero(log_tails <= math.log(1.0 - target_mass) - math.log(pref))
    if certified.size == 0:
        raise TruncationInfeasible(
            f"no certified order below {_MAX_ORDER} for target {target_mass}"
        )
    return _z_masses_to_order(spec, int(certified[0]), parts)


@dataclass(frozen=True)
class SeriesValue:
    """Series evaluation with its certified relative tail and order used."""

    value: float
    rel_err: float
    orders_used: int


def series_laplace_report(spec: PermanentalSpec, s, rel_tol: float = 1e-8) -> SeriesValue:
    """Sum the alpha-permanent series for E exp(-<s, X>) order by order.

    Per-order sums c_j = sum_{|k|=j} |B~(k)|_alpha / k! satisfy the
    log-derivative recursion j c_j = alpha sum_{r<=j} tr(B~^r) c_{j-r};
    summation stops once the certified tail is below rel_tol times the
    partial sum.
    """
    if not 1e-14 < rel_tol < 1e-2:
        raise ValueError("rel_tol must lie in (1e-14, 1e-2)")
    bt, rho, pref, log_tails = _series_parts(spec, _as_s_vector(s, spec.n))
    if rho >= RHO_CEILING:
        raise TruncationInfeasible(
            f"Perron root {rho:.8f} of the shifted series matrix too close to 1"
        )
    c = [1.0]
    partial = 1.0
    traces: list[float] = []
    power = np.eye(spec.n)
    order = 0
    while True:
        tail = math.exp(log_tails[order])
        if tail <= rel_tol * partial:
            return SeriesValue(value=pref * partial, rel_err=tail / partial, orders_used=order)
        order += 1
        if order > _MAX_ORDER:
            raise TruncationInfeasible(f"series did not certify within {_MAX_ORDER} orders")
        power = power @ bt
        traces.append(float(np.trace(power)))
        cj = spec.alpha / order * sum(
            traces[r - 1] * c[order - r] for r in range(1, order + 1)
        )
        c.append(cj)
        partial += cj
