"""Numerical potential densities for a family of asymmetric Levy processes.

The jump measure has density x^{-2} g(1/|x|) (p 1_{x>0} + q 1_{x<0}) with
the slowly varying profile g(y) = (log y)^gamma (log log y)^delta, zero below
its cut > 1.  The exponent psi is
evaluated exactly for whole arrays of lam at once, in fixed-size blocks,
from a fixed composite rule on the jump integral in u = lam x, where only
the profile factor g(lam/u) depends on lam: Gauss-Legendre panels in
v = log u on the sub-oscillatory head (u <= 1), graded from v = 0, and
Filon-type panels [2^k, 2^{k+1}] in u (Legendre coefficients of the jump
density times the moments 2 i^k j_k of the half width) over the
oscillatory part, so the cost grows only like log lam.  Each panel is a
per-node weight tensor, with the trig factors and the Filon moments folded
in; the panels that no lam clips are built once per process, and a block
builds weights only for the panels clipped at lam X_LO or at the support
cut, so that it costs one profile evaluation per node and one matrix
product per panel.  Each panel's error is estimated from its
trailing Legendre coefficients.  The spectral functions
R(lam) = Re 1/(beta + psi) and I(lam) = Im 1/(beta + psi) are evaluated once
per model on a fixed table of 20-point Gauss-Legendre panels in lam up to
_LAM_EXACT_MAX, which keeps their Legendre coefficients.  The table gives
u(0) and, at each lag, the exact range of the killed potential density
u(+-z) = R_part(z) +- H_part(z): Filon weights in lam (the moments of the
same Legendre polynomials against e^{i lam z}) times the coefficients of R
and I, plus one new panel that ends where the surrogate lobes begin.  Those
lobes are summed with Euler acceleration; the increment metric is
sigma^2(z) = 2 (u(0) - R_part(z)).

Because R decays only like 1/(lam log^c lam), every integral over
(0, infinity) is split at a finite boundary: exact evaluation below it and
an asymptotic surrogate above it, with the surrogate corrected by a fitted
1/log-lambda drift measured against the exact values.  The remaining 1-D
integrals (the antiderivative G of g(s)/s, the surrogate tail of R, the
surrogate lobes and the Thm 1.6 statistics) use the same Gauss-Legendre
panels as psi, in log w for the tails, which end where a closed-form bound
on the rest is negligible.  Reported error estimates include the fit
residual, the quadrature estimates of every panel (converged or not), the
bound on the part of a tail the panels leave out, and the psi error carried
through R and I.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import example11
from .errors import NotIntegrable, OutOfRange
from .example11 import _check_finite, _check_weights
from .oscillatory import euler_accelerate, lobe_boundaries

DEFAULT_CUT = math.e**2
_X_LO = 1e-12
_LAM_EXACT_MAX = 2e8
_N_EXACT_LOBES = 48
_N_FAR_LOBES = 512
# lags of a kernel that agree to this relative size share one bundle
_LAG_REL = 1e-12

# psi rule: Gauss-Legendre nodes per panel, lam values per block (bounds
# the node arrays at _PSI_BLOCK * _N_LEG per banked panel), clipped panels
# per weight batch (bounds their weights at _PANEL_BATCH * 6 * _N_LEG: a lam
# with u1 = 1 in _psi_block clips at most 2 panels, any other all its at most
# 9), and the upper log-y limit of the truncation bound
_N_LEG = 20
_PSI_BLOCK = 512
_PANEL_BATCH = 256
_OMEGA_RECUR = 20.0  # Filon moments by recurrence above this lam * half width
_W_HI_TAIL = 80.0

# spectral table: the width of its uniform panels in periods 2 pi cut
# of the ripple that the support cut puts into R (about 14 Gauss nodes per
# period), and their number
_RIPPLE_PERIODS = 1.38
_UNIFORM_PANELS = 64

# tail integrals in w = log lam: panel width in log w, the log of the largest
# w they reach (w = e^700 ~ 1e304), and the size, relative to the bound on
# the whole tail, below which the closed-form bound on the rest lets the
# panels stop
_T_STEP = 0.5
_T_MAX = 700.0
_REST_RTOL = 1e-17


@dataclass(frozen=True)
class LogPowerProfile:
    """Slowly varying profile (log y)^gamma (log log y)^delta on (cut, inf)."""

    gamma: float
    delta: float
    cut: float = DEFAULT_CUT

    def __post_init__(self):
        _check_finite(gamma=self.gamma, delta=self.delta, cut=self.cut)
        if self.delta != 0.0 and self.cut <= math.e:
            raise OutOfRange("delta != 0 needs cut > e so log log y stays positive")
        if self.delta == 0.0 and self.cut <= 1.0:
            raise OutOfRange("cut must exceed 1 so log y stays positive")

    def of_log(self, w):
        """g(e^w), elementwise; the w-space form used by tail integrands."""
        w = np.asarray(w, dtype=float)
        live = w > math.log(self.cut)
        whole = bool(live.all())
        safe = w if whole else np.where(live, w, math.e)
        with np.errstate(over="ignore"):  # g = inf far out is its value there
            val = safe**self.gamma
            if self.delta != 0.0:
                val = val * np.log(safe) ** self.delta
        out = val if whole else np.where(live, val, 0.0)
        return float(out) if out.ndim == 0 else out

    def inverse_tail_bound(self, w):
        """Upper bound on the integral of 1/g(e^s) over s > w >= log(cut),
        elementwise, in closed form (inf where none holds).

        With t = log s the integrand is e^{(1-gamma) t} t^{-delta}.  For
        gamma = 1 it integrates exactly; for gamma > 1 its log-derivative
        stays below -c = 1 - gamma - min(delta, 0)/t beyond t, so the
        integral is at most the integrand at t over c.
        """
        t = np.log(np.asarray(w, dtype=float))
        gam, dl = self.gamma, self.delta
        if gam < 1.0 or (gam == 1.0 and dl <= 1.0):
            return np.full(t.shape, math.inf)
        if gam == 1.0:
            return t ** (1.0 - dl) / (dl - 1.0)
        c = gam - 1.0 + min(dl, 0.0) / t
        value = np.exp((1.0 - gam) * t) * (t**-dl if dl != 0.0 else 1.0)
        return np.where(c > 0.0, value / np.maximum(c, 1e-300), math.inf)


@dataclass(frozen=True)
class LevyModel:
    """Killing rate beta, jump-sign weights (p, q), and the profile g.

    g vanishes below its cut > 1, so every jump has |x| < 1 / cut < 1: the
    Levy integrability condition holds, and the compensator lam x runs over
    the whole support.
    """

    beta: float
    p: float
    q: float
    g: LogPowerProfile

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise OutOfRange(f"beta must be positive and finite, got {self.beta}")
        _check_weights(self.p, self.q)

    @property
    def symmetric(self) -> bool:
        return self.p == self.q


def log_power_model(
    beta: float, p: float, q: float, gamma: float, delta: float, cut: float = DEFAULT_CUT
) -> LevyModel:
    return LevyModel(beta=beta, p=p, q=q, g=LogPowerProfile(gamma=gamma, delta=delta, cut=cut))


# ---------------------------------------------------------------- psi


def _sin_minus_lin(u: np.ndarray) -> np.ndarray:
    # sin(u) - u, by its Taylor series below 0.5 to avoid cancellation
    out = np.sin(u) - u
    small = u < 0.5
    s = u[small]
    s2 = s * s
    out[small] = -(s * s2) / 6.0 * (1.0 - s2 / 20.0 * (1.0 - s2 / 42.0 * (
        1.0 - s2 / 72.0 * (1.0 - s2 / 110.0 * (1.0 - s2 / 156.0)))))
    return out


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1] and the matrix taking values at them
    to Legendre coefficients (exact below degree _N_LEG)."""
    t, w = np.polynomial.legendre.leggauss(_N_LEG)
    vander = np.polynomial.legendre.legvander(t, _N_LEG - 1)
    return t, vander * w[:, None] * ((2.0 * np.arange(_N_LEG) + 1.0) / 2.0)


def _legendre_panels(lo: np.ndarray, hi: np.ndarray):
    """Mid points, half widths and Gauss-Legendre nodes (P, _N_LEG) of panels."""
    t, _ = _legendre_rule()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid, half, mid[:, None] + half[:, None] * t


def _legendre_integral(values: np.ndarray, half: np.ndarray):
    """Panel integrals of values (..., P, _N_LEG) at the Legendre nodes, with
    the two trailing Legendre coefficients as the error estimate."""
    coef = values @ _legendre_rule()[1]
    return 2.0 * half * coef[..., 0], 2.0 * half * (
        np.abs(coef[..., -1]) + np.abs(coef[..., -2]))


def _panels(edges: np.ndarray):
    """Owner row, lower and upper end of the non-empty panels between
    consecutive entries of each row of edges."""
    lo = np.minimum(edges[:, :-1], edges[:, 1:])
    hi = np.maximum(edges[:, :-1], edges[:, 1:])
    keep = hi > lo
    owner = np.broadcast_to(np.arange(edges.shape[0])[:, None], lo.shape)
    return owner[keep], lo[keep], hi[keep]


def _graded_offsets(span: float) -> np.ndarray:
    """0, 1, 2, 4, 8, 12, ... to past span: steps 1, 1, 2, 4, 4, 4, ..."""
    return np.concatenate([[0.0, 1.0, 2.0], np.arange(4.0, span + 4.0, 4.0)])


def _graded_edges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Edges from start towards stop at the _graded_offsets (clipped at
    stop), fine where the integrand is largest or least smooth."""
    step = np.sign(stop - start)[:, None] * _graded_offsets(float(np.max(np.abs(stop - start))))
    return np.clip(start[:, None] + step, np.minimum(start, stop)[:, None],
                   np.maximum(start, stop)[:, None])


class _Antiderivative:
    """G(w) = integral of g(e^u) du over (w_cut, w), elementwise, for a
    profile's of_log and w_cut = log(cut) > 0; 0 at and below w_cut.

    The panels are geometric, ratio sqrt 2, in the distance from the nearest
    point below w_cut where the log-power profiles are singular (u = 1,
    where log u vanishes, else u = 0), and run to w = e^_T_MAX or to where
    the sum stops being finite (G = inf beyond).  Each panel keeps the
    Legendre coefficients of the antiderivative of its interpolant of g, so
    G at any w is the sum of the panels below plus its own panel's part:
    exact to rounding and smooth in w.
    """

    def __init__(self, of_log, w_cut: float):
        base = 1.0 if w_cut > 1.0 else 0.0
        count = math.ceil(2.0 * math.log2((math.exp(_T_MAX) - base) / (w_cut - base)))
        edges = base + (w_cut - base) * 2.0 ** (0.5 * np.arange(count + 1.0))
        _, half, u = _legendre_panels(edges[:-1], edges[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            coef = of_log(u) @ _legendre_rule()[1]
            cum = np.concatenate([[0.0], np.cumsum(2.0 * half * coef[:, 0])])
        ok = np.isfinite(coef).all(axis=1) & np.isfinite(cum[1:])
        keep = ok.size if ok.all() else int(np.argmin(ok))
        self.w_cut = w_cut
        self.finite_to = math.inf if ok.all() else edges[keep]
        self.edges = edges[:keep + 1]
        self.half = half[:keep]
        self.cum = cum[:keep + 1]
        self.anti = np.polynomial.legendre.legint(coef[:keep], lbnd=-1, axis=1).T
        panel_err = 2.0 * half[:keep] * (np.abs(coef[:keep, -1]) + np.abs(coef[:keep, -2]))
        self.cum_err = np.concatenate([[0.0], np.cumsum(panel_err)])

    def with_error(self, w):
        """G(w) and its error estimate (the estimates of every panel below
        w and of w's own panel)."""
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        k = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, self.half.size - 1)
        x = np.clip((flat - self.edges[k]) / self.half[k] - 1.0, -1.0, 1.0)
        part = np.polynomial.legendre.legval(x, self.anti[:, k], tensor=False)
        value = np.where(flat > self.finite_to, math.inf, self.cum[k] + self.half[k] * part)
        value = np.where(flat > self.w_cut, value, 0.0).reshape(w.shape)
        err = np.where(flat > self.w_cut, self.cum_err[k + 1], 0.0).reshape(w.shape)
        if w.ndim == 0:
            return float(value), float(err)
        return value, err

    def __call__(self, w):
        return self.with_error(w)[0]


def _tail_integral(f, w0: float, rest, exact: bool = False) -> tuple[float, float]:
    """Integral of a positive f(w) over (w0, infinity) and its error, on
    Gauss-Legendre panels of width _T_STEP in t = log w.

    ``rest(w)`` is a closed-form bound on the integral over (w, infinity),
    elementwise.  The panels stop at the first edge where it falls below
    _REST_RTOL times its largest finite value, at w = e^_T_MAX, or before
    the first panel where f is not positive and finite (the profile
    overflowed there); the bound at the stop is added to the error, or to
    the value when ``exact`` says that rest(w) is the integral itself.
    """
    edges = np.append(np.arange(math.log(w0), _T_MAX, _T_STEP), _T_MAX)
    with np.errstate(over="ignore", divide="ignore"):
        bounds = rest(np.exp(edges))
        scale = np.max(bounds, where=np.isfinite(bounds), initial=0.0)
        below = np.flatnonzero(bounds <= _REST_RTOL * scale)
        stop = int(below[0]) if below.size else edges.size - 1
        _, half, t = _legendre_panels(edges[:stop], edges[1:stop + 1])
        w = np.exp(t)
        values = f(w) * w
    bad = np.flatnonzero(~((values > 0.0) & np.isfinite(values)).all(axis=1))
    if bad.size:
        stop = int(bad[0])
    val, err = _legendre_integral(values[:stop], half[:stop])
    if exact:
        return float(val.sum() + bounds[stop]), float(err.sum())
    return float(val.sum()), float(err.sum() + bounds[stop])


@functools.cache
def _moment_rule() -> tuple[np.ndarray, np.ndarray]:
    """A 48-point Gauss-Legendre rule and the weighted P_k (k < _N_LEG) at
    its nodes: exact for the moments below _OMEGA_RECUR to double precision."""
    tau, w = np.polynomial.legendre.leggauss(48)
    return tau, np.polynomial.legendre.legvander(tau, _N_LEG - 1) * w[:, None]


def _filon_moments(omega: np.ndarray) -> np.ndarray:
    """mu_k(omega) = integral over [-1, 1] of P_k(t) e^{i omega t} dt
    = 2 i^k j_k(omega) for k < _N_LEG, shape (P, _N_LEG).

    Upward recurrence of the spherical Bessel functions is stable for
    omega > k; below _OMEGA_RECUR the moments come from a fixed rule."""
    mu = np.empty((omega.size, _N_LEG), dtype=complex)
    low = omega < _OMEGA_RECUR
    tau, weighted = _moment_rule()
    phase = omega[low, None] * tau
    mu[low] = np.cos(phase) @ weighted + 1j * (np.sin(phase) @ weighted)
    om = omega[~low]
    j = np.empty((om.size, _N_LEG))
    s, c = np.sin(om), np.cos(om)
    j[:, 0] = s / om
    j[:, 1] = (s / om - c) / om
    for k in range(1, _N_LEG - 1):
        j[:, k + 1] = (2 * k + 1) / om * j[:, k] - j[:, k - 1]
    mu[~low] = 2.0 * j * (1j ** np.arange(_N_LEG))
    return mu


def _scaled_weights(head_lo, head_hi, osc_lo, osc_hi):
    """log u at the Gauss-Legendre nodes (P, _N_LEG) of panels in u = lam x,
    and the weights (P, 6, _N_LEG) that take the profile g(lam/u) at those
    nodes to each panel's part of Re psi / lam and of J / lam, then to four
    terms whose absolute values sum to its error estimate over lam.

    With G = g(lam/u) lam/u, the head panels [head_lo, head_hi] run in
    v = log u, where the jump integrand is 2 sin^2(u/2) G and (sin u - u) G;
    their error terms are the two trailing Legendre coefficients of each.
    The oscillatory panels [osc_lo, osc_hi] that follow run in u, with Filon
    weights for (1 - cos u) G/u and sin(u) G/u, less the compensator G;
    their error terms are three times the trailing coefficients of G/u (the
    plain, cos and sin parts) and those of the compensator."""
    _, legendre = _legendre_rule()
    # the panel integral and the two trailing coefficients, per node value
    ends = 2.0 * legendre.T[[0, -1, -2]]
    _, half, v = _legendre_panels(head_lo, head_hi)
    mid, half_osc, x = _legendre_panels(osc_lo, osc_hi)
    # axes: panel, (integral, trailing, trailing), (Re psi, J), node
    weights = np.empty((head_lo.size + osc_lo.size, 3, 2, _N_LEG))

    head = weights[:head_lo.size]
    u = np.exp(v)
    basis = half[:, None, None] * ends
    head[:, :, 0] = basis * (2.0 * np.sin(0.5 * u) ** 2 / u)[:, None]
    head[:, :, 1] = basis * (_sin_minus_lin(u) / u)[:, None]

    osc = weights[head_lo.size:]
    inv = 1.0 / x
    inv2 = inv * inv
    basis = half_osc[:, None, None] * ends
    # integral of F e^{i u} over the panel from the values of F at its nodes
    phi = (half_osc * np.exp(1j * mid))[:, None] * (_filon_moments(half_osc) @ legendre.T)
    osc[:, :, 0] = 3.0 * basis * inv2[:, None]
    osc[:, 0, 0] = (basis[:, 0] - phi.real) * inv2
    osc[:, :, 1] = basis * inv[:, None]
    osc[:, 0, 1] = phi.imag * inv2 - osc[:, 0, 1]
    return np.concatenate([v, np.log(x)]), weights.reshape(-1, 6, _N_LEG)


@functools.lru_cache(maxsize=4)
def _scaled_bank(n_head: int, n_osc: int):
    """``_scaled_weights`` of the panels that no lam clips, with the weights
    as (P, _N_LEG, 6): the first n_head head panels [-O_{k+1}, -O_k] (O the
    _graded_offsets), then [2^k, 2^{k+1}] for k < n_osc."""
    offsets = _graded_offsets(4.0 * n_head)[:n_head + 1]
    pow2 = 2.0 ** np.arange(n_osc + 1.0)
    log_u, weights = _scaled_weights(-offsets[1:], -offsets[:-1], pow2[:-1], pow2[1:])
    return log_u, np.ascontiguousarray(weights.swapaxes(1, 2))


def _bank_size(count: int) -> int:
    # a multiple of 16, so that one bank serves blocks of similar reach
    return 16 * (count // 16 + 1)


def _psi_block(model: LevyModel, lam: np.ndarray, cut_tail: float):
    """Re psi, the integral J of (sin(lam x) - lam x) against the jump
    density (Im psi = -(p - q) J), and the error bound, at lam > 0.

    The jump integral runs over [X_LO, x_cut = 1/cut] in u = lam x, where
    only the profile factor g(lam/u) lam/u depends on lam, in two parts:
    the head u <= u1 = min(1, lam x_cut) on graded panels in v = log u, and
    the oscillatory part [u1, lam x_cut] on panels [u1 2^k, u1 2^{k+1}]
    with Filon-type weights.  When u1 = 1 every head panel that lam X_LO
    leaves whole and every oscillatory panel [2^k, 2^{k+1}] that lam x_cut
    leaves whole is one of ``_scaled_bank``'s; the others get their weights
    here, _PANEL_BATCH panels at a time, head panels first, so that each
    lam adds up its panels in the same order whatever the batch.
    The cut below X_LO is bounded by (lam x)^2 / 2 against the jump
    density, i.e. by lam^2 / 2 times ``cut_tail``.
    """
    n = lam.size
    u_cut = lam * (1.0 / model.g.cut)
    u1 = np.minimum(u_cut, 1.0)
    v1 = np.log(u1)
    v_lo = np.log(lam * _X_LO)
    log_lam = np.log(lam)

    # head panels from v1 towards v_lo; the whole ones from v1 = 0 are banked
    head_edges = _graded_edges(v1, v_lo)
    offsets = _graded_offsets(float(np.max(np.abs(v_lo - v1))))
    head_banked = (v1 == 0.0)[:, None] & (v_lo[:, None] <= -offsets[1:])
    head_lo = np.minimum(head_edges[:, :-1], head_edges[:, 1:])
    head_hi = np.maximum(head_edges[:, :-1], head_edges[:, 1:])

    # oscillatory panels: u1 2^k clipped at lam x_cut, which closes every row
    # (log2 may round a ratio just past 2^k down to k)
    steps = 2.0 ** np.arange(math.ceil(math.log2(np.max(u_cut / u1))) + 1.0)
    rows, lo, hi = _panels(np.column_stack(
        [np.minimum(u1[:, None] * steps, u_cut[:, None]), u_cut]))
    # a banked panel is exactly [2^k, 2^{k+1}], k = exponent - 1 >= 0
    mantissa, exponent = np.frexp(lo)
    osc_banked = (mantissa == 0.5) & (hi == 2.0 * lo) & (lo >= 1.0)

    # the lam that hold each bank panel: head panels, then oscillatory ones
    h_rows, h_cols = np.nonzero(head_banked)
    n_head = _bank_size(int(h_cols.max(initial=0)))
    n_osc = _bank_size(int(exponent[osc_banked].max(initial=0)))
    member = np.zeros((n_head + n_osc, n), dtype=bool)
    member[h_cols, h_rows] = True
    member[n_head + exponent[osc_banked] - 1, rows[osc_banked]] = True
    # Re psi / lam, J / lam and the four error terms over lam of each panel,
    # with the terms' absolute values summed per lam: the banked panels one
    # at a time over the lam that hold them (a slice where those are
    # consecutive), then the clipped ones and every panel of a lam with
    # lam x_cut < 1 in batches
    log_u, weights = _scaled_bank(n_head, n_osc)
    sums = np.zeros((n, 6))
    for k in np.flatnonzero(member.any(axis=1)):
        own = np.flatnonzero(member[k])
        if own[-1] - own[0] + 1 == own.size:
            own = slice(own[0], own[-1] + 1)
        part = model.g.of_log(log_lam[own, None] - log_u[k]) @ weights[k]
        np.abs(part[:, 2:], out=part[:, 2:])
        sums[own] += part
    h_rows, h_cols = np.nonzero((head_hi > head_lo) & ~head_banked)
    head_lo, head_hi = head_lo[h_rows, h_cols], head_hi[h_rows, h_cols]
    clipped = ~osc_banked
    lo, hi = lo[clipped], hi[clipped]
    own = np.concatenate([h_rows, rows[clipped]])
    n_h = h_rows.size
    for start in range(0, own.size, _PANEL_BATCH):
        stop = start + _PANEL_BATCH
        h = slice(min(start, n_h), min(stop, n_h))
        o = slice(max(start - n_h, 0), max(stop - n_h, 0))
        log_u, weights = _scaled_weights(head_lo[h], head_hi[h], lo[o], hi[o])
        batch = own[start:stop]
        part = (weights @ model.g.of_log(log_lam[batch, None] - log_u)[..., None])[..., 0]
        np.abs(part[:, 2:], out=part[:, 2:])
        np.add.at(sums, batch, part)
    err = lam * (0.5 * lam * cut_tail + sums[:, 2:].sum(axis=1))
    return lam * sums[:, 0], lam * sums[:, 1], err


@functools.lru_cache(maxsize=8)
def _cut_tail(model: LevyModel) -> float:
    """The integral of g(1/x) over (0, X_LO) plus its quadrature error, for
    the bound on psi's cut there; kept for the most recently used models."""
    _, lo, hi = _panels(_graded_edges(np.array([-math.log(_X_LO)]), np.array([_W_HI_TAIL])))
    _, half, w = _legendre_panels(lo, hi)
    val, err = _legendre_integral(model.g.of_log(w) * np.exp(-w), half)
    # summed panel by panel, first to last: the order fixes the last bits of
    # every psi error bound
    return abs(np.cumsum(val)[-1]) + np.cumsum(err)[-1]


def psi_with_error(model: LevyModel, lam):
    """psi at lam (a number or an array) and a computed error bound;
    psi(-lam) = conj(psi(lam)) and psi(0) = 0.

    Arrays are evaluated in blocks of _PSI_BLOCK values, so memory does not
    grow with the batch; a number is a batch of one.
    """
    lam = np.asarray(lam, dtype=float)
    flat = lam.ravel()
    value = np.zeros(flat.size, dtype=complex)
    err = np.zeros(flat.size)
    live = np.flatnonzero(flat != 0.0)
    if live.size:
        cut_tail = _cut_tail(model)
        for start in range(0, live.size, _PSI_BLOCK):
            idx = live[start:start + _PSI_BLOCK]
            re, im_j, e = _psi_block(model, np.abs(flat[idx]), cut_tail)
            value.real[idx] = re
            value.imag[idx] = -(model.p - model.q) * im_j
            err[idx] = e
        value[flat < 0.0] = value[flat < 0.0].conj()
    if lam.ndim == 0:
        return complex(value[0]), float(err[0])
    return value.reshape(lam.shape), err.reshape(lam.shape)


# ---------------------------------------------------------------- spectral


class SpectralFns:
    """Evaluators for R = Re 1/(beta+psi) and I = Im 1/(beta+psi).

    ``resolvent`` takes a number or an array of lam and evaluates psi once
    for all of it.  ``surrogate`` replaces psi by its leading form
    (pi/2) lam g(lam) + i (p-q) lam G(lam), ``far`` adds the fitted drift,
    and ``l1_tail`` integrates it over (Lam, infinity).  The drift fits, the
    spectral table, u(0) and G are cached properties, computed on first use.
    """

    def __init__(self, model: LevyModel):
        self.model = model
        self._certify_integrability()

    @functools.cached_property
    def G_log(self) -> _Antiderivative:
        """G_log(w): integral of g(s)/s from the support cut to e^w,
        elementwise; only p != q reads it."""
        return _Antiderivative(self.model.g.of_log, math.log(self.model.g.cut))

    # -- exact evaluators ------------------------------------------------
    def resolvent(self, lam):
        """R and I at lam with the psi error carried through them:
        |d(1/(beta+psi))| <= |d psi| / |beta+psi|^2."""
        value, err = psi_with_error(self.model, lam)
        inv = 1.0 / (self.model.beta + value)
        i = 0.0 * inv.real if self.model.symmetric else inv.imag
        return inv.real, i, err * np.abs(inv) ** 2

    # -- asymptotic surrogate --------------------------------------------
    def surrogate(self, w):
        """(e^w R, e^w I) of psi's leading form at lam = e^w; the e^w factor
        cancels analytically.  R is written as 1/(re + im^2/re), so that
        g = inf far out gives 0."""
        m = self.model
        re = m.beta * np.exp(-w) + (math.pi / 2.0) * m.g.of_log(w)
        im = 0.0 if m.symmetric else (m.p - m.q) * self.G_log(w)
        return 1.0 / (re + im * (im / re)), -im / (re * re + im * im)

    # -- drift correction: exact/asym ratio fitted as 1 + a/w + b/w^2 ----
    @functools.cached_property
    def drift(self) -> dict[str, tuple[float, float, float]]:
        """Fit coefficients (a, b) and the fit residual of R (key "R") and
        of I ("I"); both fits share one psi batch."""
        ws = np.linspace(math.log(_LAM_EXACT_MAX / 16.0), math.log(_LAM_EXACT_MAX), 5)
        lams = np.exp(ws)
        r, i, _ = self.resolvent(lams)
        r_asym, i_asym = self.surrogate(np.log(lams))
        return {"R": self._fit(ws, r, r_asym / lams), "I": self._fit(ws, i, i_asym / lams)}

    @staticmethod
    def _fit(ws, exact, asym) -> tuple[float, float, float]:
        if np.any(asym == 0.0):
            return 0.0, 0.0, 0.0
        rhs = exact / asym - 1.0
        design = np.vstack([1.0 / ws, 1.0 / ws**2]).T
        coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        resid = float(np.abs(design @ coef - rhs).max())
        return float(coef[0]), float(coef[1]), resid

    def far(self, lam):
        """R and I of the drift-corrected surrogate at lam."""
        (ar, br, _), (ai, bi, _) = self.drift["R"], self.drift["I"]
        w = np.log(lam)
        r, i = self.surrogate(w)
        return r / lam * (1.0 + ar / w + br / w**2), i / lam * (1.0 + ai / w + bi / w**2)

    def l1_tail(self, lam: float) -> tuple[float, float]:
        """Integral of R over (lam, infinity) via the drift-corrected
        surrogate, with its error: the panel estimates, the fit residual
        and the bound on the range beyond the panels.

        For p = q with gamma = 1 that bound is the exact integral of
        2/(pi g), which the surrogate's e^w R equals far out, where the panels stop
        (g overflows near w = e^696 and the drift factor is 1 to rounding);
        the rest is then added to the value.
        """
        a, b, resid = self.drift["R"]
        exact = self.model.symmetric and self.model.g.gamma == 1.0
        val, err = _tail_integral(
            lambda w: self.surrogate(w)[0] * (1.0 + a / w + b / w**2), math.log(lam),
            lambda w: (1.0 + abs(a) / w + abs(b) / w**2) * self._surrogate_rest(w), exact)
        return val, err + resid * abs(val)

    def _surrogate_rest(self, w):
        """Closed-form bound on the integral of the surrogate's e^w R over
        (w, infinity).

        For p != q, e^w R <= re / im^2, and the integral of g/G^2 over
        (w, infinity) is at most 1/G(w).  For p = q, e^w R <= 2/(pi g),
        whose tail the profile bounds.
        """
        m = self.model
        if not m.symmetric:
            big_g = self.G_log(w)
            return ((math.pi / 2.0) / big_g + m.beta * np.exp(-w) / big_g**2) / (m.p - m.q) ** 2
        return (2.0 / math.pi) * m.g.inverse_tail_bound(w)

    @functools.cached_property
    def table(self) -> _Panels:
        """R and I on the panels of ``_table_edges`` up to _LAM_EXACT_MAX,
        one psi batch."""
        table = _resolvent_panels(self, _table_edges(self.model.g.cut))
        if not (np.isfinite(table.coef).all() and np.isfinite(table.err).all()):
            raise OutOfRange(f"R and I are not finite on the spectral table of {self.model.g}")
        return table

    @functools.cached_property
    def u_zero(self) -> tuple[float, float]:
        """u(0) = (1/pi) integral of R over (0, infinity) and its error:
        the table's panel integrals, then ``l1_tail(_LAM_EXACT_MAX)``."""
        t = self.table
        tail, tail_err = self.l1_tail(_LAM_EXACT_MAX)
        value = (2.0 * t.half * t.coef[0, :, 0]).sum() + tail
        return value / math.pi, (t.err[0].sum() + tail_err) / math.pi

    # -- integrability certificate ---------------------------------------
    def _certify_integrability(self) -> None:
        # p != q with gamma > -1: the surrogate tail integrates finitely; for
        # p = q, R ~ 2/(pi lam g), and the w-integral of 1/g converges iff
        # gamma > 1, or gamma = 1 with delta > 1
        g = self.model.g
        if self.model.symmetric and not (g.gamma > 1.0 or (g.gamma == 1.0 and g.delta > 1.0)):
            raise NotIntegrable(f"R is not integrable for p = q with gamma = {g.gamma}, "
                                f"delta = {g.delta} (needs gamma > 1)")


@functools.lru_cache(maxsize=8)
def spectral(model: LevyModel) -> SpectralFns:
    """Spectral evaluators for the model; certified integrable R or NotIntegrable.

    The most recently used models keep their evaluators (drift fits,
    spectral tables and u(0) included)."""
    return SpectralFns(model)


# ---------------------------------------------------------------- quadrature


def _table_edges(cut: float) -> np.ndarray:
    """Panel edges of a model's spectral table over [0, _LAM_EXACT_MAX]: [0, 1],
    ratio-2 panels up to w, _UNIFORM_PANELS panels of width w, then ratio-sqrt 2
    panels.  w = _RIPPLE_PERIODS ripple periods 2 pi cut (above 8.6 for
    cut > 1): the uniform panels resolve the ripple where it matters, and
    beyond them it is small against R."""
    w = _RIPPLE_PERIODS * 2.0 * math.pi * cut
    top = min(_UNIFORM_PANELS * w, _LAM_EXACT_MAX)
    edges = np.sort(np.concatenate([
        [0.0], np.geomspace(1.0, w, math.ceil(math.log2(w)) + 1),
        np.minimum(w * np.arange(1.0, _UNIFORM_PANELS + 1.0), top),
        np.geomspace(top, _LAM_EXACT_MAX, math.ceil(2.0 * math.log2(_LAM_EXACT_MAX / top)) + 1)]))
    # distinct edges; np.unique would import numpy.ma
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


class _Panels(NamedTuple):
    """R and I on Gauss-Legendre panels in lam: the edges, mid points, half
    widths, Legendre coefficients (2, P, _N_LEG) of R (row 0) and I (row 1),
    and their integration errors (2, P): the trailing-coefficient estimate
    plus the psi error carried through R and I, integrated over the panel."""

    edges: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    coef: np.ndarray
    err: np.ndarray


def _resolvent_panels(sf: SpectralFns, edges: np.ndarray) -> _Panels:
    """One psi batch over the Gauss-Legendre nodes of the panels between
    consecutive edges; where psi overflows, the panels are not finite and
    the caller refuses them."""
    mid, half, lam = _legendre_panels(edges[:-1], edges[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        r, i, e = sf.resolvent(lam)
        coef = np.stack([r, i, e]) @ _legendre_rule()[1]
    trailing = np.abs(coef[:2, :, -1]) + np.abs(coef[:2, :, -2])
    return _Panels(edges, mid, half, coef[:2], 2.0 * half * (trailing + coef[2, :, 0]))


def _filon(mid: np.ndarray, half: np.ndarray, coef: np.ndarray, z: float) -> complex:
    """Sum over panels of the integral of e^{i lam z} times the Legendre
    series coef (P, _N_LEG) of each panel: Filon weights in lam."""
    return complex(np.sum(half * np.exp(1j * z * mid)
                          * np.sum(coef * _filon_moments(z * half), axis=1)))


@dataclass(frozen=True)
class PotentialValues:
    """u(z), u(-z) with their even/odd parts, u(0) and the increment metric
    sigma^2(z) = 2 u(0) - u(z) - u(-z) = 2 (u(0) - r_part).

    ``abserr`` is 2 (err_u0 + err_R) + err_I, the computed errors of u(0),
    r_part and h_part (the table's panel errors, the new panel's, the lobe
    estimates, the acceleration error and the drift-fit residual), so it is
    at least the computed error of each field.  It does not count the bias of
    the surrogate where the lobes splice onto exact R and I, so for p != q
    it does not bound the fields."""

    z: float
    u_plus: float
    u_minus: float
    r_part: float
    h_part: float
    u_zero: float
    sigma2: float
    abserr: float


def _exact_lobe_count(z: float) -> int:
    if z <= 0:
        return 0
    return max(2, min(_N_EXACT_LOBES, int(_LAM_EXACT_MAX * z / math.pi) - 1))


def _trig_transform(sf: SpectralFns, z: float, kind: str) -> tuple[float, float]:
    """(1/pi) integral of cos(lam z) R (kind "cos") or sin(lam z) I ("sin")
    over (0, infinity) and its error.

    The exact range runs up to lam_split, the end of _exact_lobe_count(z)
    half-period lobes: the table's panels below lam_split and one new panel
    that ends there (ratio-sqrt 2 panels if lam_split lies past the table),
    all by Filon weights.  _N_FAR_LOBES drift-corrected surrogate lobes
    follow, summed with Euler acceleration.

    The surrogate is psi's leading form only on the profile's support, and
    its drift factor 1 + a/w + b/w^2 is an expansion in 1/w: a lag whose
    lam_split lies below the support cut or below e (w < 1) is refused, and
    so is one whose value or error bound is not finite.  Past the table, the
    last exact panel is built first: a lag is refused when that panel's
    error bound alone reaches u(0), which bounds every u(+-z)."""
    row, trig, which = (0, np.cos, "R") if kind == "cos" else (1, np.sin, "I")
    far_edges = lobe_boundaries(z, kind, _N_FAR_LOBES, start_index=_exact_lobe_count(z))
    split = far_edges[0]
    floor = max(sf.model.g.cut, math.e)
    if split < floor:
        raise OutOfRange(f"lag z = {z:g} is too large: its surrogate lobes would start at "
                         f"lam = {split:.4g}, below {floor:.4g}, where the surrogate is no "
                         f"asymptotic form of R")
    no_bound = OutOfRange(f"lag z = {z:g} has no finite error bound: its exact range "
                          f"reaches lam = {split:.4g}, where psi is not finite")
    table = sf.table
    k = int(np.searchsorted(table.edges, split, side="right")) - 1
    lo = table.edges[k]
    if split <= _LAM_EXACT_MAX:
        edges = np.array([lo, split])
    else:
        edges = np.geomspace(lo, split, math.ceil(2.0 * math.log2(split / lo)) + 1)
        # psi's error bound grows with lam: try the last panel before the ones below it
        last_err = _resolvent_panels(sf, edges[-2:]).err[row, 0] / math.pi
        if not math.isfinite(last_err):
            raise no_bound
        if last_err >= sf.u_zero[0]:
            raise _vanishing_lag(z, last_err, sf.u_zero[0])
    new = _resolvent_panels(sf, edges)
    exact = (_filon(table.mid[:k], table.half[:k], table.coef[row, :k], z)
             + _filon(new.mid, new.half, new.coef[row], z))
    _, half, nodes = _legendre_panels(far_edges[:-1], far_edges[1:])
    far_terms, far_err = _legendre_integral(trig(nodes * z) * sf.far(nodes)[row], half)
    lobes, accel_err = euler_accelerate(far_terms)
    _, _, resid = sf.drift[which]
    err = (table.err[row, :k].sum() + new.err[row].sum() + far_err.sum() + accel_err
           + resid * abs(far_terms[0]) * 4.0)
    value = (exact.real if kind == "cos" else exact.imag) + lobes
    if not (math.isfinite(value) and math.isfinite(err)):
        raise no_bound
    return value / math.pi, err / math.pi


def _vanishing_lag(z: float, err: float, u0: float) -> OutOfRange:
    return OutOfRange(f"lag z = {z:g} is too small: its error bound {err:.3g} reaches "
                      f"u(0) = {u0:.6g}, and every u(+-z) lies in [0, u(0)]")


def potential_bundle(model: LevyModel, z: float) -> PotentialValues:
    """All potential quantities at lag z (its sign is dropped).

    u(0) is the model's (``SpectralFns.u_zero``); the lag integrates only
    cos(lam z) R and, for p != q, sin(lam z) I.  Every u(+-z) lies in
    [0, u(0)], so a lag whose error bound reaches u(0) is refused."""
    if not math.isfinite(z):
        raise OutOfRange(f"lag z = {z} is not finite")
    sf = spectral(model)
    z = abs(z)
    u0, u0_err = sf.u_zero
    if z == 0.0:
        return PotentialValues(z=0.0, u_plus=u0, u_minus=u0, r_part=u0, h_part=0.0,
                               u_zero=u0, sigma2=0.0, abserr=u0_err)
    r_part, r_err = _trig_transform(sf, z, "cos")
    h_part, h_err = (0.0, 0.0) if model.symmetric else _trig_transform(sf, z, "sin")
    abserr = 2.0 * (u0_err + r_err) + h_err
    if abserr >= u0:
        raise _vanishing_lag(z, abserr, u0)
    return PotentialValues(
        z=z,
        u_plus=r_part + h_part,
        u_minus=r_part - h_part,
        r_part=r_part,
        h_part=h_part,
        u_zero=u0,
        sigma2=max(2.0 * (u0 - r_part), 0.0),
        abserr=abserr,
    )


@dataclass(frozen=True)
class Thm16Row:
    n: float
    statistic: float
    log_n: float
    ratio: float
    err: float


def check_thm16_integrals(model: LevyModel, n_grid) -> list[Thm16Row]:
    """The integral criterion against log n on the grid, with the error of
    each statistic: G(log n), the integral of g(s)/s up to n (the
    surrogate's ``SpectralFns.G_log``), for p != q, or the reciprocal of the
    integral of 1/g(e^w) over w > log n for p = q; g is supported on
    (cut, inf)."""
    g = model.g
    example11.classify_example11(g.gamma, g.delta, model.p, model.q)  # the Example 1.1 range
    for n in n_grid:
        if not 1.0 < n < math.inf:
            raise OutOfRange(f"every n must be finite and above 1, got {n:g}")
    big_g = None if model.symmetric else spectral(model).G_log
    rows = []
    for n in n_grid:
        w_n = math.log(float(n))
        stat = err = math.inf  # where G or 1/the tail is not finite
        if big_g is not None:
            if w_n < big_g.finite_to:
                stat, err = big_g.with_error(w_n)
        else:
            inv, inv_err = _tail_integral(lambda w: 1.0 / g.of_log(w),
                                          max(w_n, math.log(g.cut)), g.inverse_tail_bound)
            if inv > 0.0:
                stat, err = 1.0 / inv, inv_err / inv**2
        if not (math.isfinite(stat) and math.isfinite(err)):
            raise OutOfRange(f"the Thm 1.6 statistic at n = {n:g} or its error bound is not "
                             f"finite for gamma = {g.gamma:g}, delta = {g.delta:g}")
        rows.append(Thm16Row(n=float(n), statistic=stat, log_n=w_n, ratio=stat / w_n, err=err))
    return rows


def kernel_matrix(model: LevyModel, points) -> tuple[np.ndarray, float]:
    """Stationary kernel K[i, j] = u(t_j - t_i) over the points, with the
    worst per-entry quadrature error estimate.

    One bundle serves every run of lags |t_j - t_i| that agree with their
    sorted neighbour to _LAG_REL relative: the smallest of the run.  An
    equally spaced grid thus gives an exactly Toeplitz kernel, although
    rounding makes its j*h lags differ in the last bits."""
    t = np.array(points, dtype=float)
    lag = t[None, :] - t[:, None]
    lags, index = np.unique(np.abs(lag), return_inverse=True)
    new = np.diff(lags, prepend=-math.inf) > _LAG_REL * lags
    bundles = [potential_bundle(model, float(z)) for z in lags[new]]
    run = (np.cumsum(new) - 1)[index].reshape(lag.shape)
    u_plus = np.array([b.u_plus for b in bundles])
    u_minus = np.array([b.u_minus for b in bundles])
    K = np.where(lag >= 0, u_plus[run], u_minus[run])
    return K, max((b.abserr for b in bundles), default=0.0)
